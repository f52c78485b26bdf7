/**
 * @file
 * Grid parsing and expansion tests: the declarative sweep file, its
 * strict validation (typos must not silently shrink a thousand-study
 * sweep), the deterministic cross product with infeasible-point
 * skipping, and the content-addressed entry hashes that make campaign
 * entries cache keys.
 */

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/grid.hh"
#include "core/suite.hh"
#include "stats/hash.hh"

using namespace wsg;
using namespace wsg::campaign;

TEST(CampaignGrid, ParsesEveryAxis)
{
    GridSpec spec = parseGridSpec(R"({
        "schema": "wsg-campaign-grid-v1",
        "presets": ["fig2-lu-B16", "fig4-cg-2d"],
        "sizes": ["small", "large"],
        "line_bytes": [16, 64],
        "points_per_octave": [2],
        "profilers": ["tree-mattson", "aet"],
        "sampling": ["exact", "rate:0.25", "size:4096"],
        "include": ["lu"],
        "exclude": ["large"],
        "analyze_races": true,
        "timeout_seconds": 30})");
    EXPECT_EQ(spec.presets.size(), 2u);
    ASSERT_EQ(spec.sizes.size(), 2u);
    EXPECT_EQ(spec.sizes[0], core::ProblemSize::Small);
    EXPECT_EQ(spec.lineBytes.size(), 2u);
    EXPECT_EQ(spec.pointsPerOctave.size(), 1u);
    EXPECT_EQ(spec.axes[core::kProfilerAxis].size(), 2u);
    EXPECT_EQ(spec.axes[core::kSamplingAxis],
              (std::vector<std::string>{"exact", "rate:0.25",
                                        "size:4096"}));
    EXPECT_TRUE(spec.analyzeRaces);
    EXPECT_DOUBLE_EQ(spec.timeoutSeconds, 30.0);
}

TEST(CampaignGrid, DefaultsAreSingletonAxes)
{
    GridSpec spec =
        parseGridSpec(R"({"schema":"wsg-campaign-grid-v1"})");
    EXPECT_TRUE(spec.presets.empty()); // = the whole suite
    EXPECT_EQ(spec.sizes.size(), 1u);
    EXPECT_EQ(spec.lineBytes, std::vector<std::uint32_t>{0});
    for (const std::vector<std::string> &labels : spec.axes)
        EXPECT_TRUE(labels.empty()); // = the axis default alone

    Grid grid = expandGrid(spec);
    EXPECT_EQ(grid.entries.size(), core::figureSuiteNames().size());
}

TEST(CampaignGrid, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseGridSpec("not json"), CampaignError);
    EXPECT_THROW(parseGridSpec("[]"), CampaignError);
    EXPECT_THROW(parseGridSpec(R"({"schema":"wrong"})"),
                 CampaignError);
    // Unknown keys are typos, not extensions.
    EXPECT_THROW(parseGridSpec(
                     R"({"schema":"wsg-campaign-grid-v1","preset":[]})"),
                 CampaignError);
    // Empty axis arrays would silently expand to zero studies.
    EXPECT_THROW(parseGridSpec(
                     R"({"schema":"wsg-campaign-grid-v1","sizes":[]})"),
                 CampaignError);
    EXPECT_THROW(
        parseGridSpec(
            R"({"schema":"wsg-campaign-grid-v1","presets":["nope"]})"),
        CampaignError);
    EXPECT_THROW(
        parseGridSpec(
            R"({"schema":"wsg-campaign-grid-v1","sizes":["huge"]})"),
        CampaignError);
    EXPECT_THROW(
        parseGridSpec(
            R"({"schema":"wsg-campaign-grid-v1","line_bytes":[-8]})"),
        CampaignError);
    EXPECT_THROW(
        parseGridSpec(
            R"({"schema":"wsg-campaign-grid-v1","profilers":["x"]})"),
        CampaignError);
    // The removed list-Mattson construction is an unknown kind.
    EXPECT_THROW(
        parseGridSpec(
            R"({"schema":"wsg-campaign-grid-v1","profilers":["list"]})"),
        CampaignError);
    // Line sizes must be integers a uint32 holds; no out-of-range
    // cast decides it.
    for (const char *lines : {"[4.5]", "[4294967296]", "[1e30]"})
        EXPECT_THROW(parseGridSpec(std::string(R"({"schema":)"
                                               R"("wsg-campaign-grid-v1",)"
                                               R"("line_bytes":)") +
                                   lines + "}"),
                     CampaignError)
            << lines;
    EXPECT_THROW(
        parseGridSpec(
            R"({"schema":"wsg-campaign-grid-v1","sampling":["size:2.5"]})"),
        CampaignError);
    EXPECT_THROW(
        parseGridSpec(
            R"({"schema":"wsg-campaign-grid-v1","schedulers":["steal:r2"]})"),
        CampaignError);
}

TEST(CampaignGrid, SamplingPointSpellings)
{
    using approx::parseSamplingLabel;
    EXPECT_FALSE(parseSamplingLabel("exact").enabled());
    approx::SamplingConfig rate = parseSamplingLabel("rate:0.5");
    EXPECT_EQ(rate.mode, approx::SamplingMode::FixedRate);
    EXPECT_DOUBLE_EQ(rate.rate, 0.5);
    approx::SamplingConfig size = parseSamplingLabel("size:1024");
    EXPECT_EQ(size.mode, approx::SamplingMode::FixedSize);
    EXPECT_EQ(size.maxLines, 1024u);
    EXPECT_EQ(approx::samplingLabel(parseSamplingLabel("rate:0.50")),
              "rate:0.5");
    EXPECT_EQ(approx::samplingLabel(size), "size:1024");
    EXPECT_EQ(approx::samplingLabel({}), "exact");
    for (const char *bad :
         {"rate:0", "rate:1.5", "rate:x", "rate:", "size:0", "size:",
          "size:-3", "size:2.5", "size:1e+30",
          "size:18446744073709551616", "random"})
        EXPECT_THROW(parseSamplingLabel(bad), std::invalid_argument)
            << bad;
    EXPECT_EQ(parseSamplingLabel("size:18446744073709551615").maxLines,
              18446744073709551615u);
}

TEST(CampaignGrid, ExpansionSkipsInfeasibleAndFilters)
{
    GridSpec spec;
    spec.presets = {"fig2-lu-B16", "fig4-cg-2d"};
    spec.sizes = {core::ProblemSize::Small, core::ProblemSize::Base};
    spec.lineBytes = {16, 32};
    spec.axes[core::kProfilerAxis] = {"tree-mattson", "aet"};
    spec.axes[core::kSamplingAxis] = {"exact", "rate:0.25"};

    Grid grid = expandGrid(spec);
    // 2*2*2 axis points, each with tree x {exact, rate} + aet x exact;
    // aet x rate is infeasible.
    EXPECT_EQ(grid.entries.size(), 24u);
    EXPECT_EQ(grid.skippedInfeasible, 8u);
    EXPECT_EQ(grid.filteredOut, 0u);

    spec.include = {"lu"};
    spec.exclude = {"prof=aet"};
    Grid filtered = expandGrid(spec);
    EXPECT_EQ(filtered.entries.size(), 8u);
    EXPECT_EQ(filtered.filteredOut, 16u);
    for (const CampaignEntry &entry : filtered.entries) {
        EXPECT_NE(entry.name.find("lu"), std::string::npos);
        EXPECT_EQ(entry.name.find("prof=aet"), std::string::npos);
    }
}

TEST(CampaignGrid, EntriesAreContentAddressedAndDistinct)
{
    GridSpec spec;
    spec.presets = {"fig2-lu-B16"};
    spec.sizes = {core::ProblemSize::Small, core::ProblemSize::Base};
    spec.lineBytes = {16, 32};

    Grid grid = expandGrid(spec);
    ASSERT_EQ(grid.entries.size(), 4u);
    std::set<std::string> hashes;
    for (const CampaignEntry &entry : grid.entries) {
        EXPECT_EQ(entry.configHash.size(), 16u);
        hashes.insert(entry.configHash);
        // The request must be submittable as-is: its preset resolves
        // through the suite factory to the same canonical config.
        core::StudyJob job = core::figureSuiteJob(
            entry.request.preset, entry.request.studyConfig());
        EXPECT_EQ(stats::fnv1a64Hex(job.canonicalConfig),
                  entry.configHash);
    }
    EXPECT_EQ(hashes.size(), 4u) << "axis points must not collide";
}

TEST(CampaignGrid, RoundSampleSizesSurviveTheWire)
{
    // Each request is re-parsed the way the daemon reads it off the
    // socket and must resolve to the entry's own content hash.
    Grid grid = expandGrid(parseGridSpec(R"({
        "schema": "wsg-campaign-grid-v1",
        "presets": ["fig2-lu-B16"],
        "sizes": ["small"],
        "sampling": ["size:100000", "size:1000000", "rate:1e-05"]})"));
    ASSERT_EQ(grid.entries.size(), 3u);
    for (const CampaignEntry &entry : grid.entries) {
        serve::Request served =
            serve::parseRequest(serve::encodeRequest(entry.request));
        core::StudyJob job = core::figureSuiteJob(served.preset,
                                                  served.studyConfig());
        EXPECT_EQ(stats::fnv1a64Hex(job.canonicalConfig),
                  entry.configHash)
            << entry.name;
    }
}

TEST(CampaignGrid, ExpansionIsDeterministic)
{
    GridSpec spec;
    spec.presets = {"fig2-lu-B16", "fig5-fft-radix8"};
    spec.lineBytes = {16, 32};
    Grid a = expandGrid(spec);
    Grid b = expandGrid(spec);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    EXPECT_EQ(a.gridHash, b.gridHash);
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].name, b.entries[i].name);
        EXPECT_EQ(a.entries[i].configHash, b.entries[i].configHash);
    }

    // The grid hash is sensitive to membership, not just size.
    spec.lineBytes = {16, 64};
    EXPECT_NE(expandGrid(spec).gridHash, a.gridHash);
}

TEST(CampaignGrid, NamesEncodeNonDefaultAxesOnly)
{
    GridSpec spec;
    spec.presets = {"fig2-lu-B16"};
    Grid plain = expandGrid(spec);
    ASSERT_EQ(plain.entries.size(), 1u);
    EXPECT_EQ(plain.entries[0].name, "fig2-lu-B16");

    spec.sizes = {core::ProblemSize::Large};
    spec.pointsPerOctave = {2};
    spec.axes[core::kProfilerAxis] = {"aet"};
    Grid qualified = expandGrid(spec);
    ASSERT_EQ(qualified.entries.size(), 1u);
    EXPECT_EQ(qualified.entries[0].name,
              "fig2-lu-B16@size=large@ppo=2@prof=aet");
}

TEST(CampaignGrid, MachineAxesExpandNormalizeAndName)
{
    GridSpec spec = parseGridSpec(R"({
        "schema": "wsg-campaign-grid-v1",
        "presets": ["fig2-lu-B16"],
        "protocols": ["wi", "mesi"],
        "hierarchies": ["single", "incl:4096:65536"]})");
    // Short spellings normalize through the real parsers at parse
    // time, so labels and hashes are canonical.
    EXPECT_EQ(spec.axes[core::kProtocolAxis],
              (std::vector<std::string>{"write-invalidate", "mesi"}));
    EXPECT_EQ(spec.axes[core::kHierarchyAxis],
              (std::vector<std::string>{"single", "incl:4096:65536"}));

    Grid grid = expandGrid(spec);
    ASSERT_EQ(grid.entries.size(), 4u);
    // Default axes stay out of names and requests; non-default ones
    // appear as @proto= / @hier= segments in axis order.
    EXPECT_EQ(grid.entries[0].name, "fig2-lu-B16");
    EXPECT_TRUE(grid.entries[0].request.axis("protocol").empty());
    EXPECT_TRUE(grid.entries[0].request.axis("hierarchy").empty());
    EXPECT_EQ(grid.entries[1].name,
              "fig2-lu-B16@hier=incl:4096:65536");
    EXPECT_EQ(grid.entries[2].name, "fig2-lu-B16@proto=mesi");
    EXPECT_EQ(grid.entries[3].name,
              "fig2-lu-B16@proto=mesi@hier=incl:4096:65536");
    EXPECT_EQ(grid.entries[3].request.axis("protocol"), "mesi");
    EXPECT_EQ(grid.entries[3].request.axis("hierarchy"),
              "incl:4096:65536");

    std::set<std::string> hashes;
    for (const CampaignEntry &entry : grid.entries)
        hashes.insert(entry.configHash);
    EXPECT_EQ(hashes.size(), 4u) << "machine points must not collide";
}

TEST(CampaignGrid, MachineAxisDefaultsLeaveHashesUntouched)
{
    // A grid that spells the defaults explicitly is the same grid: a
    // pre-axes campaign manifest must keep resolving byte-identically.
    GridSpec plain;
    plain.presets = {"fig2-lu-B16"};
    GridSpec spelled = parseGridSpec(R"({
        "schema": "wsg-campaign-grid-v1",
        "presets": ["fig2-lu-B16"],
        "protocols": ["write-invalidate"],
        "hierarchies": ["single"]})");
    Grid a = expandGrid(plain);
    Grid b = expandGrid(spelled);
    EXPECT_EQ(a.gridHash, b.gridHash);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    EXPECT_EQ(a.entries[0].name, b.entries[0].name);
    EXPECT_EQ(a.entries[0].configHash, b.entries[0].configHash);
}

TEST(CampaignGrid, MachineAxisTyposAreRejected)
{
    EXPECT_THROW(parseGridSpec(R"({
        "schema": "wsg-campaign-grid-v1",
        "protocols": ["moesi"]})"),
                 CampaignError);
    EXPECT_THROW(parseGridSpec(R"({
        "schema": "wsg-campaign-grid-v1",
        "hierarchies": ["incl:65536:4096"]})"),
                 CampaignError);
}

TEST(CampaignGrid, FiveAxisSweepPinsNamesAndHashes)
{
    // One grid over all five study axes, spelled with aliases where
    // they exist: the entry names, content hashes, grid hash,
    // infeasible count and two wire requests are pinned literally.
    Grid grid = expandGrid(parseGridSpec(R"({
        "schema": "wsg-campaign-grid-v1",
        "presets": ["fig5-fft-radix8"],
        "sizes": ["small"],
        "profilers": ["tree", "aet"],
        "sampling": ["exact", "size:2048"],
        "protocols": ["wi", "mesi"],
        "hierarchies": ["single", "incl:4096:65536"],
        "schedulers": ["static", "steal:r0.25:s1"]})"));
    const std::string p = "fig5-fft-radix8@size=small";
    const std::string h = "@hier=incl:4096:65536";
    const std::string s = "@sched=steal:r0.25:s1";
    const std::string m = "@proto=mesi";
    const std::string z = "@samp=size:2048";
    const std::string a = "@prof=aet";
    const std::vector<std::pair<std::string, std::string>> want = {
        {p, "1903079a3b1dfc9f"},
        {p + s, "6344522b841eac19"},
        {p + h, "e12525cb11c13779"},
        {p + h + s, "f3f0ae6a0ed415bb"},
        {p + m, "6a21ffc65e2b12a6"},
        {p + m + s, "696cff37d956a5fa"},
        {p + m + h, "e99d92e712d8b35c"},
        {p + m + h + s, "7a6fab5068f595a0"},
        {p + z, "cb566002290641c4"},
        {p + z + s, "7225b7e856d51e08"},
        {p + z + h, "60b56dcd7615670a"},
        {p + z + h + s, "ba556153ce66a34e"},
        {p + z + m, "7cd60e6c43807195"},
        {p + z + m + s, "937e7f91f925cf37"},
        {p + z + m + h, "73522fa72a6ea457"},
        {p + z + m + h + s, "e8e5602051429431"},
        {p + a, "ab46afbe50b8f212"},
        {p + a + s, "3689d3a017e7d2f6"},
        {p + a + h, "7f516e46f2c6a3c8"},
        {p + a + h + s, "457c6beb96c19bcc"},
        {p + a + m, "426256ff08d2e257"},
        {p + a + m + s, "7713baccdcde0e31"},
        {p + a + m + h, "77c073ecb4b3adb1"},
        {p + a + m + h + s, "1278f37ea154ae13"},
    };
    ASSERT_EQ(grid.entries.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(grid.entries[i].name, want[i].first) << "entry " << i;
        EXPECT_EQ(grid.entries[i].configHash, want[i].second)
            << grid.entries[i].name;
    }
    EXPECT_EQ(grid.gridHash, "bb51dde30f9345bf");
    EXPECT_EQ(grid.skippedInfeasible, 8u);
    EXPECT_EQ(grid.filteredOut, 0u);

    EXPECT_EQ(serve::encodeRequest(grid.entries[15].request),
              R"({"op":"study","preset":"fig5-fft-radix8@size=small",)"
              R"("sample_size":2048,"protocol":"mesi",)"
              R"("hierarchy":"incl:4096:65536",)"
              R"("scheduler":"steal:r0.25:s1"})"
              "\n");
    EXPECT_EQ(serve::encodeRequest(grid.entries[23].request),
              R"({"op":"study","preset":"fig5-fft-radix8@size=small",)"
              R"("profiler":"aet","protocol":"mesi",)"
              R"("hierarchy":"incl:4096:65536",)"
              R"("scheduler":"steal:r0.25:s1"})"
              "\n");
}
