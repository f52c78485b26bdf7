#include "core/study_axes.hh"

#include <cstdlib>
#include <stdexcept>

#include "stats/json_report.hh"

namespace wsg::core
{

void
appendConfigLine(std::string &out, std::string_view key,
                 std::string_view value)
{
    out += key;
    out += '=';
    out += value;
    out += '\n';
}

// The machine axes (protocol, hierarchy, scheduler) add canonical lines
// only off their defaults, so every study config from before an axis
// existed — and with it every content hash, cache entry and campaign
// resume key — keeps its bytes.
constexpr std::array<StudyAxis, kStudyAxisCount> kStudyAxes = {{
    {"profilers", "prof", "tree-mattson",
     [](StudyConfig &c, const std::string &label) {
         c.profiler = memsys::parseProfilerKind(label);
     },
     [](const StudyConfig &c) -> std::string {
         return memsys::profilerKindName(c.profiler);
     },
     [](std::string &out, const StudyConfig &c) {
         appendConfigLine(out, "profiler",
                          memsys::profilerKindName(c.profiler));
     }},
    {"sampling", "samp", "exact",
     [](StudyConfig &c, const std::string &label) {
         c.sampling = approx::parseSamplingLabel(label);
     },
     [](const StudyConfig &c) { return approx::samplingLabel(c.sampling); },
     [](std::string &out, const StudyConfig &c) {
         const approx::SamplingConfig &s = c.sampling;
         appendConfigLine(out, "sampling_mode",
                          approx::samplingModeName(s.mode));
         if (s.mode == approx::SamplingMode::FixedRate)
             appendConfigLine(out, "sampling_rate",
                              stats::JsonWriter::formatDouble(s.rate));
         if (s.mode == approx::SamplingMode::FixedSize)
             appendConfigLine(out, "sampling_max_lines",
                              std::to_string(s.maxLines));
         if (s.enabled())
             appendConfigLine(out, "sampling_hash_salt",
                              std::to_string(s.hashSalt));
     }},
    {"protocols", "proto", "write-invalidate",
     [](StudyConfig &c, const std::string &label) {
         c.protocol = sim::parseCoherenceProtocol(label);
     },
     [](const StudyConfig &c) -> std::string {
         return sim::coherenceProtocolName(c.protocol);
     },
     [](std::string &out, const StudyConfig &c) {
         if (c.protocol != sim::CoherenceProtocol::WriteInvalidate)
             appendConfigLine(out, "protocol",
                              sim::coherenceProtocolName(c.protocol));
     }},
    {"hierarchies", "hier", "single",
     [](StudyConfig &c, const std::string &label) {
         c.hierarchy = memsys::parseHierarchySpec(label);
     },
     [](const StudyConfig &c) { return memsys::hierarchyLabel(c.hierarchy); },
     [](std::string &out, const StudyConfig &c) {
         if (c.hierarchy.twoLevel())
             appendConfigLine(out, "hierarchy",
                              memsys::hierarchyLabel(c.hierarchy));
     }},
    {"schedulers", "sched", "static",
     // From the current spec, so --steal-rate/--steal-seed given before
     // --scheduler survive a label that omits them.
     [](StudyConfig &c, const std::string &label) {
         c.scheduler = replay::parseSchedulerSpec(label, c.scheduler);
     },
     [](const StudyConfig &c) {
         return replay::schedulerSpecLabel(c.scheduler);
     },
     [](std::string &out, const StudyConfig &c) {
         const replay::SchedulerSpec &s = c.scheduler;
         if (s.kind == replay::SchedulerKind::Static)
             return;
         appendConfigLine(out, "scheduler", replay::schedulerKindName(s.kind));
         if (s.kind == replay::SchedulerKind::WorkStealing) {
             appendConfigLine(out, "steal_rate",
                              stats::JsonWriter::formatDouble(s.stealRate));
             appendConfigLine(out, "steal_seed", std::to_string(s.stealSeed));
         }
     }},
}};

constexpr std::array<AxisInput, kAxisInputCount> kAxisInputs = {{
    // axis, flag, wire key, numeric, label prefix, need, modify
    {kSamplingAxis, "--sample-rate", "sample_rate", true, "rate:",
     "a rate in (0, 1]", nullptr},
    {kSamplingAxis, "--sample-size", "sample_size", true, "size:",
     "a positive line count", nullptr},
    {kProfilerAxis, "--profiler", "profiler", false, "", nullptr, nullptr},
    {kProtocolAxis, "--protocol", "protocol", false, "", nullptr, nullptr},
    {kHierarchyAxis, "--hierarchy", "hierarchy", false, "", nullptr,
     nullptr},
    {kSchedulerAxis, "--scheduler", "scheduler", false, "", nullptr,
     nullptr},
    {kSchedulerAxis, "--steal-rate", nullptr, false, nullptr,
     "a rate in [0, 1]",
     [](StudyConfig &c, const std::string &value) {
         char *end = nullptr;
         double v = std::strtod(value.c_str(), &end);
         if (value.empty() || *end != '\0' || v < 0.0 || v > 1.0)
             throw std::invalid_argument(value);
         c.scheduler.stealRate = v;
     }},
    {kSchedulerAxis, "--steal-seed", nullptr, false, nullptr,
     "a non-negative integer",
     [](StudyConfig &c, const std::string &value) {
         char *end = nullptr;
         unsigned long long v = std::strtoull(value.c_str(), &end, 10);
         if (value.empty() || *end != '\0')
             throw std::invalid_argument(value);
         c.scheduler.stealSeed = v;
     }},
}};

std::array<std::string, kStudyAxisCount>
defaultAxisLabels()
{
    std::array<std::string, kStudyAxisCount> labels;
    for (std::size_t a = 0; a < labels.size(); ++a)
        labels[a] = kStudyAxes[a].defaultLabel;
    return labels;
}

void
applyAxisInput(const AxisInput &input, StudyConfig &config,
               const std::string &value, std::string_view spelling)
{
    try {
        if (input.modify != nullptr)
            input.modify(config, value);
        else
            kStudyAxes[input.axis].parse(config, input.labelPrefix + value);
    } catch (const std::invalid_argument &e) {
        if (input.need == nullptr)
            throw std::invalid_argument(std::string(spelling) + ": " +
                                        e.what());
        throw std::invalid_argument(std::string(spelling) + " needs " +
                                    input.need + ", got '" + value + "'");
    }
}

void
checkAxisCombination(const StudyConfig &config, AxisInputSet given,
                     bool wire)
{
    auto spelling = [wire](const AxisInput &input) {
        return std::string(wire ? input.wireKey : input.flag);
    };
    for (std::size_t i = 0; i < kAxisInputs.size(); ++i) {
        const AxisInput &a = kAxisInputs[i];
        for (std::size_t j = i + 1; j < kAxisInputs.size(); ++j) {
            const AxisInput &b = kAxisInputs[j];
            if ((given >> i & given >> j & 1) != 0 && a.axis == b.axis &&
                a.labelPrefix != nullptr && b.labelPrefix != nullptr)
                throw std::invalid_argument(spelling(a) + " and " +
                                            spelling(b) +
                                            " are mutually exclusive");
        }
    }
    if (config.profiler == memsys::ProfilerKind::Aet &&
        config.sampling.enabled())
        throw std::invalid_argument(
            spelling(*inputForLabel(kProfilerAxis, "aet")) +
            " aet does not compose with sampling");
}

const AxisInput *
inputForLabel(StudyAxisIndex axis, std::string_view label)
{
    for (const AxisInput &input : kAxisInputs) {
        if (input.axis == axis && input.labelPrefix != nullptr &&
            label.starts_with(input.labelPrefix))
            return &input;
    }
    return nullptr;
}

} // namespace wsg::core
