#include "campaign/grid.hh"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "stats/hash.hh"
#include "stats/json_parse.hh"

namespace wsg::campaign
{

namespace
{

/** The known top-level grid keys besides the study axes'; anything
 *  else is a typo. */
constexpr const char *kGridKeys[] = {
    "schema",  "presets",       "sizes",          "line_bytes",
    "points_per_octave",        "include",        "exclude",
    "analyze_races",            "timeout_seconds",
};

const stats::JsonValue *
arrayField(const stats::JsonValue &root, const char *key)
{
    const stats::JsonValue *v = root.find(key);
    if (v == nullptr)
        return nullptr;
    if (!v->isArray())
        throw CampaignError(std::string("grid field '") + key +
                            "' must be an array");
    if (v->size() == 0)
        throw CampaignError(std::string("grid field '") + key +
                            "' must not be empty");
    return v;
}

std::vector<std::string>
stringArray(const stats::JsonValue &root, const char *key)
{
    std::vector<std::string> out;
    const stats::JsonValue *v = arrayField(root, key);
    if (v == nullptr)
        return out;
    for (std::size_t i = 0; i < v->size(); ++i) {
        if (!(*v)[i].isString())
            throw CampaignError(std::string("grid field '") + key +
                                "' must hold strings");
        out.push_back((*v)[i].asString());
    }
    return out;
}

std::vector<double>
numberArray(const stats::JsonValue &root, const char *key)
{
    std::vector<double> out;
    const stats::JsonValue *v = arrayField(root, key);
    if (v == nullptr)
        return out;
    for (std::size_t i = 0; i < v->size(); ++i) {
        if (!(*v)[i].isNumber())
            throw CampaignError(std::string("grid field '") + key +
                                "' must hold numbers");
        out.push_back((*v)[i].asNumber());
    }
    return out;
}

/** Wrap axis-value parse errors with the field name. */
template <typename Fn>
auto
axisValue(const char *key, const std::string &value, Fn &&parse)
{
    try {
        return parse(value);
    } catch (const std::invalid_argument &e) {
        throw CampaignError(std::string("grid field '") + key +
                            "': " + e.what());
    }
}

} // namespace

GridSpec
parseGridSpec(std::string_view json)
{
    stats::JsonValue root;
    try {
        root = stats::parseJson(json);
    } catch (const stats::JsonParseError &e) {
        throw CampaignError(std::string("grid file: ") + e.what());
    }
    if (!root.isObject())
        throw CampaignError("grid file: not a JSON object");

    for (const auto &[key, value] : root.members()) {
        bool known = false;
        for (const char *k : kGridKeys)
            known = known || key == k;
        for (const core::StudyAxis &axis : core::kStudyAxes)
            known = known || key == axis.gridKey;
        if (!known)
            throw CampaignError("grid file: unknown key '" + key +
                                "'");
    }

    const stats::JsonValue *schema = root.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->asString() != "wsg-campaign-grid-v1")
        throw CampaignError(
            "grid file: schema must be \"wsg-campaign-grid-v1\"");

    GridSpec spec;
    spec.presets = stringArray(root, "presets");
    for (const std::string &preset : spec.presets) {
        if (!core::isFigureSuiteName(preset))
            throw CampaignError("grid file: unknown preset '" +
                                preset + "'");
    }

    std::vector<std::string> sizes = stringArray(root, "sizes");
    if (!sizes.empty()) {
        spec.sizes.clear();
        for (const std::string &s : sizes)
            spec.sizes.push_back(axisValue(
                "sizes", s, [](const std::string &v) {
                    return core::parseProblemSize(v);
                }));
    }

    std::vector<double> lines = numberArray(root, "line_bytes");
    if (!lines.empty()) {
        spec.lineBytes.clear();
        for (double v : lines) {
            if (!(v >= 0.0 && v <= 4294967295.0) || v != std::floor(v))
                throw CampaignError(
                    "grid field 'line_bytes' must hold integers in "
                    "[0, 2^32 - 1]");
            spec.lineBytes.push_back(static_cast<std::uint32_t>(v));
        }
    }

    std::vector<double> ppo = numberArray(root, "points_per_octave");
    if (!ppo.empty()) {
        spec.pointsPerOctave.clear();
        for (double v : ppo) {
            if (v < 0.0 || v > 64.0 ||
                v != static_cast<double>(static_cast<int>(v)))
                throw CampaignError(
                    "grid field 'points_per_octave' must hold "
                    "integers in [0, 64]");
            spec.pointsPerOctave.push_back(static_cast<int>(v));
        }
    }

    for (std::size_t a = 0; a < core::kStudyAxisCount; ++a) {
        const core::StudyAxis &axis = core::kStudyAxes[a];
        spec.axes[a] = stringArray(root, axis.gridKey);
        // Normalize aliases so "wi" and "write-invalidate" label (and
        // hash) identically.
        for (std::string &label : spec.axes[a])
            label = axisValue(axis.gridKey, label,
                              [&axis](const std::string &v) {
                                  core::StudyConfig config;
                                  axis.parse(config, v);
                                  return axis.label(config);
                              });
    }

    spec.include = stringArray(root, "include");
    spec.exclude = stringArray(root, "exclude");

    if (const stats::JsonValue *v = root.find("analyze_races")) {
        if (!v->isBool())
            throw CampaignError(
                "grid field 'analyze_races' must be a bool");
        spec.analyzeRaces = v->asBool();
    }
    if (const stats::JsonValue *v = root.find("timeout_seconds")) {
        if (!v->isNumber() || v->asNumber() < 0.0)
            throw CampaignError("grid field 'timeout_seconds' must be "
                                "a non-negative number");
        spec.timeoutSeconds = v->asNumber();
    }
    return spec;
}

GridSpec
loadGridSpec(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CampaignError("cannot read grid file: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseGridSpec(text.str());
}

namespace
{

using AxisPoint = std::array<std::string, core::kStudyAxisCount>;

/** The cross product of the study-axis labels in table order, the
 *  last axis varying fastest. */
std::vector<AxisPoint>
axisPoints(const GridSpec &spec)
{
    std::vector<AxisPoint> points{core::defaultAxisLabels()};
    for (std::size_t a = 0; a < core::kStudyAxisCount; ++a) {
        if (spec.axes[a].empty())
            continue; // the default label, already in every point
        std::vector<AxisPoint> next;
        for (const AxisPoint &point : points) {
            for (const std::string &label : spec.axes[a]) {
                next.push_back(point);
                next.back()[a] = label;
            }
        }
        points = std::move(next);
    }
    return points;
}

} // namespace

Grid
expandGrid(const GridSpec &spec)
{
    std::vector<std::string> presets =
        spec.presets.empty() ? core::figureSuiteNames() : spec.presets;
    std::vector<AxisPoint> points = axisPoints(spec);

    Grid grid;
    std::string hashInput = "wsg-campaign-grid-v1\n";
    for (const std::string &preset : presets) {
      for (core::ProblemSize size : spec.sizes) {
        for (std::uint32_t line : spec.lineBytes) {
          for (int ppo : spec.pointsPerOctave) {
            for (const AxisPoint &labels : points) {
                // An infeasible combination (AET has no per-line stack
                // state to sample from) is not an error: a grid that
                // sweeps both axes simply skips it.
                core::StudyConfig config;
                for (std::size_t a = 0; a < labels.size(); ++a)
                    core::kStudyAxes[a].parse(config, labels[a]);
                try {
                    core::checkAxisCombination(config, 0, false);
                } catch (const std::invalid_argument &) {
                    ++grid.skippedInfeasible;
                    continue;
                }

                CampaignEntry entry;
                entry.preset = preset;
                entry.size = size;
                entry.lineBytes = line;
                entry.pointsPerOctave = ppo;
                entry.axes = labels;

                core::SuiteVariant variant;
                variant.size = size;
                variant.lineBytes = line;
                serve::Request &req = entry.request;
                req.op = serve::Op::Study;
                req.preset = core::suiteVariantName(preset, variant);
                req.pointsPerOctave = ppo;
                req.analyzeRaces = spec.analyzeRaces;
                req.timeoutSeconds = spec.timeoutSeconds;
                entry.name = req.preset;
                if (ppo != 0)
                    entry.name += "@ppo=" + std::to_string(ppo);
                for (std::size_t a = 0; a < labels.size(); ++a) {
                    const core::StudyAxis &axis = core::kStudyAxes[a];
                    if (labels[a] == axis.defaultLabel)
                        continue;
                    entry.name += std::string("@") + axis.segment + "=" +
                                  labels[a];
                    const core::AxisInput *input = core::inputForLabel(
                        static_cast<core::StudyAxisIndex>(a), labels[a]);
                    req.axes[input - core::kAxisInputs.data()] =
                        labels[a].substr(std::strlen(input->labelPrefix));
                }

                bool kept = spec.include.empty();
                for (const std::string &inc : spec.include)
                    kept = kept || entry.name.find(inc) != std::string::npos;
                for (const std::string &exc : spec.exclude)
                    kept = kept && entry.name.find(exc) == std::string::npos;
                if (!kept) {
                    ++grid.filteredOut;
                    continue;
                }

                // Resolve the point through the same factory the
                // daemon uses: the canonical config's hash is the
                // cache key, known before anything is submitted.
                core::StudyJob job;
                try {
                    job = core::figureSuiteJob(req.preset,
                                               req.studyConfig());
                } catch (const std::exception &e) {
                    throw CampaignError("grid point '" + entry.name +
                                        "' is invalid: " + e.what());
                }
                entry.configHash = stats::fnv1a64Hex(job.canonicalConfig);

                hashInput +=
                    entry.name + "=" + entry.configHash + "\n";
                grid.entries.push_back(std::move(entry));
            }
          }
        }
      }
    }
    grid.gridHash = stats::fnv1a64Hex(hashInput);
    return grid;
}

} // namespace wsg::campaign
