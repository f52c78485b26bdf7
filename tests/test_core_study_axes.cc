/**
 * @file
 * Completeness of the study-axis table (core/study_axes.hh). Every row
 * of kStudyAxes, at example off-default labels, must reach the same
 * StudyConfig through every front end — the runner CLI in both flag
 * spellings, the serve wire (encode, parse, studyConfig) and the
 * campaign grid (entry-name segment and config hash) — and must add
 * its own canonical-config lines. The loops run over the table, so a
 * new row is covered here without editing any front-end test; a row
 * without an example label fails.
 */

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/grid.hh"
#include "core/study_axes.hh"
#include "core/study_runner.hh"
#include "core/suite.hh"
#include "serve/protocol.hh"
#include "stats/hash.hh"

using namespace wsg;
using namespace wsg::core;

namespace
{

/** Off-default labels per axis, keyed by grid key. */
const std::map<std::string, std::vector<std::string>> kExamples = {
    {"profilers", {"aet"}},
    {"sampling", {"rate:0.25", "size:2048"}},
    {"protocols", {"mesi", "write-update"}},
    {"hierarchies", {"incl:4096:65536", "excl:1024:8192"}},
    {"schedulers", {"round-robin", "steal:r0.5:s3"}},
};

const char *const kPreset = "fig5-fft-radix8";
const char *const kVariant = "fig5-fft-radix8@size=small";

/** The canonical config of the example preset under @p config — the
 *  bytes config_hash is taken over. */
std::string
canonical(const StudyConfig &config)
{
    return figureSuiteJob(kVariant, config).canonicalConfig;
}

StudyConfig
parseCli(std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    int argc = static_cast<int>(argv.size());
    RunnerCli cli = parseRunnerCli(argc, argv.data());
    EXPECT_EQ(argc, 1);
    return cli.study;
}

} // namespace

TEST(StudyAxes, EveryRowHasExamplesAndDistinctNames)
{
    std::set<std::string> grid_keys;
    std::set<std::string> segments;
    for (const StudyAxis &axis : kStudyAxes) {
        EXPECT_TRUE(kExamples.count(axis.gridKey))
            << "no example label for axis " << axis.gridKey;
        EXPECT_TRUE(grid_keys.insert(axis.gridKey).second);
        EXPECT_TRUE(segments.insert(axis.segment).second);
    }
    std::set<std::string> flags;
    std::set<std::string> wire_keys;
    for (std::size_t k = 0; k < kAxisInputs.size(); ++k) {
        const AxisInput &input = kAxisInputs[k];
        EXPECT_LT(input.axis, kStudyAxisCount);
        EXPECT_TRUE(flags.insert(input.flag).second) << input.flag;
        // The wire inputs lead the table.
        EXPECT_EQ(input.wireKey != nullptr, k < kWireInputCount)
            << input.flag;
        if (input.wireKey != nullptr) {
            EXPECT_TRUE(wire_keys.insert(input.wireKey).second);
        }
        // A whole-axis input must reach the wire, or a grid point
        // could not be submitted.
        if (input.labelPrefix != nullptr) {
            EXPECT_NE(input.wireKey, nullptr) << input.flag;
        }
    }
}

TEST(StudyAxes, DefaultLabelsDescribeTheDefaultConfig)
{
    const StudyConfig plain;
    for (const StudyAxis &axis : kStudyAxes) {
        SCOPED_TRACE(axis.gridKey);
        EXPECT_EQ(axis.label(plain), axis.defaultLabel);
        StudyConfig parsed;
        axis.parse(parsed, axis.defaultLabel);
        EXPECT_EQ(canonical(parsed), canonical(plain));
    }
}

TEST(StudyAxes, EveryFrontEndReachesTheSameConfig)
{
    for (std::size_t a = 0; a < kStudyAxisCount; ++a) {
        const StudyAxis &axis = kStudyAxes[a];
        auto examples = kExamples.find(axis.gridKey);
        ASSERT_NE(examples, kExamples.end()) << axis.gridKey;
        for (const std::string &label : examples->second) {
            SCOPED_TRACE(std::string(axis.gridKey) + " " + label);
            StudyConfig want;
            axis.parse(want, label);
            EXPECT_EQ(axis.label(want), label) << "labels round-trip";
            ASSERT_NE(label, axis.defaultLabel);
            const std::string want_config = canonical(want);

            // The axis contributes its own canonical-config lines.
            std::string lines;
            axis.appendCanonical(lines, want);
            std::string default_lines;
            axis.appendCanonical(default_lines, StudyConfig{});
            EXPECT_NE(lines, default_lines);
            EXPECT_NE(want_config.find(lines), std::string::npos);
            EXPECT_NE(want_config, canonical(StudyConfig{}));

            const AxisInput *input =
                inputForLabel(static_cast<StudyAxisIndex>(a), label);
            ASSERT_NE(input, nullptr);
            std::string value =
                label.substr(std::string(input->labelPrefix).size());

            // Runner CLI, both spellings.
            EXPECT_EQ(canonical(parseCli({input->flag, value})),
                      want_config);
            EXPECT_EQ(canonical(parseCli(
                          {std::string(input->flag) + "=" + value})),
                      want_config);

            // Serve wire: encode, parse, studyConfig.
            serve::Request req;
            req.op = serve::Op::Study;
            req.preset = kVariant;
            req.axis(input->wireKey) = value;
            std::string line = serve::encodeRequest(req);
            EXPECT_NE(line.find(std::string("\"") + input->wireKey +
                                "\":"),
                      std::string::npos)
                << line;
            serve::Request back = serve::parseRequest(
                std::string_view(line).substr(0, line.size() - 1));
            EXPECT_EQ(canonical(back.studyConfig()), want_config);

            // Campaign grid: one point, named by the axis segment,
            // hashed like the config the other front ends reach.
            campaign::Grid grid =
                campaign::expandGrid(campaign::parseGridSpec(
                    std::string(R"({"schema":"wsg-campaign-grid-v1",)") +
                    R"("presets":[")" + kPreset +
                    R"("],"sizes":["small"],")" + axis.gridKey +
                    R"(":[")" + label + R"("]})"));
            ASSERT_EQ(grid.entries.size(), 1u);
            const campaign::CampaignEntry &entry = grid.entries[0];
            EXPECT_EQ(entry.name, std::string(kVariant) + "@" +
                                      axis.segment + "=" + label);
            EXPECT_EQ(entry.configHash, stats::fnv1a64Hex(want_config));
            EXPECT_EQ(entry.axes[a], label);
            EXPECT_EQ(canonical(entry.request.studyConfig()),
                      want_config);
        }
    }
}

TEST(StudyAxes, CrossAxisRulesNameTheFrontEndsSpelling)
{
    StudyConfig aet;
    aet.profiler = memsys::ProfilerKind::Aet;
    EXPECT_NO_THROW(checkAxisCombination(aet, 0, false));
    aet.sampling = approx::parseSamplingLabel("rate:0.5");
    try {
        checkAxisCombination(aet, 0, false);
        ADD_FAILURE() << "AET with sampling was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "--profiler aet does not compose with sampling");
    }

    AxisInputSet both = 0;
    for (std::size_t k = 0; k < kAxisInputs.size(); ++k)
        if (kAxisInputs[k].axis == kSamplingAxis)
            both |= AxisInputSet{1} << k;
    try {
        checkAxisCombination(StudyConfig{}, both, true);
        ADD_FAILURE() << "both sampling inputs were accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "sample_rate and sample_size are mutually exclusive");
    }

    // Modifiers compose with their axis's whole-value input.
    AxisInputSet scheduler = 0;
    for (std::size_t k = 0; k < kAxisInputs.size(); ++k)
        if (kAxisInputs[k].axis == kSchedulerAxis)
            scheduler |= AxisInputSet{1} << k;
    EXPECT_NO_THROW(checkAxisCombination(StudyConfig{}, scheduler, false));
}
