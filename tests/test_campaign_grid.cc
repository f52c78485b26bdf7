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
    EXPECT_EQ(spec.profilers.size(), 2u);
    ASSERT_EQ(spec.sampling.size(), 3u);
    EXPECT_EQ(spec.sampling[1].label, "rate:0.25");
    EXPECT_EQ(spec.sampling[2].config.maxLines, 4096u);
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
    EXPECT_EQ(spec.sampling.size(), 1u);
    EXPECT_EQ(spec.sampling[0].label, "exact");

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
}

TEST(CampaignGrid, SamplingPointSpellings)
{
    EXPECT_EQ(parseSamplingPoint("exact").label, "exact");
    SamplingPoint rate = parseSamplingPoint("rate:0.5");
    EXPECT_DOUBLE_EQ(rate.config.rate, 0.5);
    SamplingPoint size = parseSamplingPoint("size:1024");
    EXPECT_EQ(size.config.maxLines, 1024u);
    EXPECT_THROW(parseSamplingPoint("rate:0"), CampaignError);
    EXPECT_THROW(parseSamplingPoint("rate:1.5"), CampaignError);
    EXPECT_THROW(parseSamplingPoint("rate:x"), CampaignError);
    EXPECT_THROW(parseSamplingPoint("size:0"), CampaignError);
    EXPECT_THROW(parseSamplingPoint("random"), CampaignError);
}

TEST(CampaignGrid, ExpansionSkipsInfeasibleAndFilters)
{
    GridSpec spec;
    spec.presets = {"fig2-lu-B16", "fig4-cg-2d"};
    spec.sizes = {core::ProblemSize::Small, core::ProblemSize::Base};
    spec.lineBytes = {16, 32};
    spec.profilers = {memsys::ProfilerKind::TreeMattson,
                      memsys::ProfilerKind::Aet};
    spec.sampling = {parseSamplingPoint("exact"),
                     parseSamplingPoint("rate:0.25")};

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
    spec.profilers = {memsys::ProfilerKind::Aet};
    spec.sampling = {parseSamplingPoint("exact")};
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
    ASSERT_EQ(spec.protocols.size(), 2u);
    EXPECT_EQ(spec.protocols[0], "write-invalidate");
    EXPECT_EQ(spec.protocols[1], "mesi");
    ASSERT_EQ(spec.hierarchies.size(), 2u);
    EXPECT_EQ(spec.hierarchies[1], "incl:4096:65536");

    Grid grid = expandGrid(spec);
    ASSERT_EQ(grid.entries.size(), 4u);
    // Default axes stay out of names and requests; non-default ones
    // appear as @proto= / @hier= segments in axis order.
    EXPECT_EQ(grid.entries[0].name, "fig2-lu-B16");
    EXPECT_TRUE(grid.entries[0].request.protocol.empty());
    EXPECT_TRUE(grid.entries[0].request.hierarchy.empty());
    EXPECT_EQ(grid.entries[1].name,
              "fig2-lu-B16@hier=incl:4096:65536");
    EXPECT_EQ(grid.entries[2].name, "fig2-lu-B16@proto=mesi");
    EXPECT_EQ(grid.entries[3].name,
              "fig2-lu-B16@proto=mesi@hier=incl:4096:65536");
    EXPECT_EQ(grid.entries[3].request.protocol, "mesi");
    EXPECT_EQ(grid.entries[3].request.hierarchy, "incl:4096:65536");

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
