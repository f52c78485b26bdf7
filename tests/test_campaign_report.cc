/**
 * @file
 * Aggregate-report tests over synthetic study payloads: knee and
 * miss-class extraction, first-seen-order grouping, sustainability
 * bands, the skipped→ok normalization that keeps resumed campaigns
 * byte-identical, and the emit → parse → emit byte-identity the
 * report format promises.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/report.hh"
#include "stats/json_report.hh"

using namespace wsg;
using namespace wsg::campaign;

namespace
{

/** A minimal wsg-study-report-v2 payload with the fields the
 *  aggregator reads. @p knee_bytes positions the single knee;
 *  @p procs controls per_proc length. */
std::string
payload(std::uint64_t knee_bytes, unsigned procs,
        double floor_rate = 0.01)
{
    std::string per_proc;
    for (unsigned i = 0; i < procs; ++i)
        per_proc += std::string(i > 0 ? "," : "") + "{}";
    return std::string("{\"schema\":\"wsg-study-report-v2\","
                       "\"studies\":[{\"name\":\"synthetic\","
                       "\"ok\":true,"
                       "\"floor_rate\":") +
           stats::JsonWriter::formatDouble(floor_rate) +
           ",\"max_footprint_bytes\":1048576,"
           "\"working_sets\":[{\"level\":1,\"size_bytes\":" +
           std::to_string(knee_bytes) +
           ",\"miss_rate_before\":0.2,\"miss_rate_after\":0.02}],"
           "\"miss_classes\":{"
           "\"cache_sizes_bytes\":[1024,65536,1048576],"
           "\"cold\":[10,10,10],"
           "\"capacity\":[80,30,0],"
           "\"true_sharing\":[5,5,5],"
           "\"false_sharing\":[5,5,5],"
           "\"total\":[100,50,20],"
           "\"per_proc\":[" +
           per_proc +
           "],\"per_array\":[]},"
           "\"aggregate\":{\"reads\":800,\"writes\":200,"
           "\"read_true_sharing\":10,\"read_false_sharing\":10,"
           "\"write_true_sharing\":5,\"write_false_sharing\":5}}]}";
}

CampaignEntry
entry(const std::string &preset, const std::string &hash,
      std::uint32_t line_bytes = 0)
{
    CampaignEntry e;
    e.preset = preset;
    e.name = preset + (line_bytes != 0
                           ? "@line=" + std::to_string(line_bytes)
                           : "");
    e.configHash = hash;
    e.lineBytes = line_bytes;
    return e;
}

EntryOutcome
okOutcome(const std::string &body)
{
    EntryOutcome out;
    out.status = "ok";
    out.cache = "miss";
    out.payload = body;
    return out;
}

} // namespace

TEST(CampaignReport, ExtractsKneesAndMissSplit)
{
    Grid grid;
    grid.gridHash = "g1";
    grid.entries.push_back(entry("appA", "h1"));
    CampaignResult result;
    // Knee at 64 KiB: the split is read at the 65536 sweep point.
    result.outcomes.push_back(okOutcome(payload(65536, 4)));

    CampaignReport report = buildCampaignReport(grid, result);
    EXPECT_EQ(report.entries, 1u);
    EXPECT_EQ(report.ok, 1u);
    ASSERT_EQ(report.studies.size(), 1u);
    const StudySummary &s = report.studies[0];
    EXPECT_EQ(s.status, "ok");
    EXPECT_EQ(s.numProcs, 4u);
    EXPECT_EQ(s.largestKneeBytes, 65536u);
    ASSERT_EQ(s.knees.size(), 1u);
    EXPECT_DOUBLE_EQ(s.knees[0].missRateBefore, 0.2);
    // At the 65536 point: total 50 = cold 10 + capacity 30 + 5 + 5.
    EXPECT_DOUBLE_EQ(s.missSplit.cold, 0.2);
    EXPECT_DOUBLE_EQ(s.missSplit.capacity, 0.6);
    EXPECT_DOUBLE_EQ(s.missSplit.trueSharing, 0.1);
    EXPECT_DOUBLE_EQ(s.missSplit.falseSharing, 0.1);
    // 30 sharing misses over 1000 refs.
    EXPECT_DOUBLE_EQ(s.sharingMissRate, 0.03);

    // Sustainability: one study with a 64 KiB knee fits every cache
    // of at least 64 KiB.
    ASSERT_FALSE(report.bands.empty());
    const SustainabilityBand &pooled = report.bands[0];
    EXPECT_EQ(pooled.numProcs, 0u);
    ASSERT_EQ(pooled.fractionFit.size(),
              report.bandCacheSizes.size());
    for (std::size_t i = 0; i < report.bandCacheSizes.size(); ++i)
        EXPECT_DOUBLE_EQ(pooled.fractionFit[i],
                         report.bandCacheSizes[i] >= 65536 ? 1.0
                                                           : 0.0);
}

TEST(CampaignReport, GroupsInFirstSeenOrder)
{
    Grid grid;
    grid.gridHash = "g2";
    grid.entries.push_back(entry("appB", "h1", 16));
    grid.entries.push_back(entry("appA", "h2", 16));
    grid.entries.push_back(entry("appB", "h3", 32));
    CampaignResult result;
    result.outcomes.push_back(okOutcome(payload(1024, 4)));
    result.outcomes.push_back(okOutcome(payload(65536, 8)));
    result.outcomes.push_back(okOutcome(payload(1048576, 4)));

    CampaignReport report = buildCampaignReport(grid, result);
    ASSERT_EQ(report.byPreset.size(), 2u);
    EXPECT_EQ(report.byPreset[0].key, "appB"); // first seen first
    EXPECT_EQ(report.byPreset[1].key, "appA");
    EXPECT_EQ(report.byPreset[0].studies, 2u);
    EXPECT_EQ(report.byPreset[0].kneeMinBytes, 1024u);
    EXPECT_EQ(report.byPreset[0].kneeMedianBytes, 1024u);
    EXPECT_EQ(report.byPreset[0].kneeMaxBytes, 1048576u);

    ASSERT_EQ(report.byLineBytes.size(), 2u);
    EXPECT_EQ(report.byLineBytes[0].key, "line=16");
    EXPECT_EQ(report.byLineBytes[1].key, "line=32");

    // Bands: pooled first, then node counts in first-seen order.
    ASSERT_EQ(report.bands.size(), 3u);
    EXPECT_EQ(report.bands[0].numProcs, 0u);
    EXPECT_EQ(report.bands[0].studies, 3u);
    EXPECT_EQ(report.bands[1].numProcs, 4u);
    EXPECT_EQ(report.bands[1].studies, 2u);
    EXPECT_EQ(report.bands[2].numProcs, 8u);
}

TEST(CampaignReport, SkippedNormalizesToOkForByteIdentity)
{
    Grid grid;
    grid.gridHash = "g3";
    grid.entries.push_back(entry("appA", "h1"));
    CampaignResult fresh;
    fresh.outcomes.push_back(okOutcome(payload(1024, 2)));
    CampaignResult resumed;
    resumed.outcomes.push_back(okOutcome(payload(1024, 2)));
    resumed.outcomes[0].status = "skipped";
    resumed.outcomes[0].cache = "manifest";

    std::string a =
        writeCampaignReport(buildCampaignReport(grid, fresh));
    std::string b =
        writeCampaignReport(buildCampaignReport(grid, resumed));
    EXPECT_EQ(a, b) << "resume must not change the report bytes";
}

TEST(CampaignReport, FailuresAndBadPayloadsAreCountedNotFatal)
{
    Grid grid;
    grid.gridHash = "g4";
    grid.entries.push_back(entry("appA", "h1"));
    grid.entries.push_back(entry("appA", "h2"));
    grid.entries.push_back(entry("appA", "h3"));
    CampaignResult result;
    EntryOutcome failed;
    failed.status = "timed_out";
    failed.error = "watchdog";
    result.outcomes.push_back(failed);
    result.outcomes.push_back(okOutcome("{\"truncated\":"));
    result.outcomes.push_back(okOutcome(payload(1024, 2)));

    CampaignReport report = buildCampaignReport(grid, result);
    EXPECT_EQ(report.ok, 1u);
    EXPECT_EQ(report.timedOut, 1u);
    EXPECT_EQ(report.errors, 1u);
    EXPECT_EQ(report.studies[0].status, "timed_out");
    EXPECT_EQ(report.studies[1].status, "error");
    EXPECT_FALSE(report.studies[1].error.empty());
    // Only the ok study reaches the groupings.
    ASSERT_EQ(report.byPreset.size(), 1u);
    EXPECT_EQ(report.byPreset[0].studies, 1u);
}

TEST(CampaignReport, EmitParseEmitIsByteIdentity)
{
    Grid grid;
    grid.gridHash = "g5";
    grid.entries.push_back(entry("appB", "h1", 16));
    grid.entries.push_back(entry("appA", "h2", 32));
    grid.entries.push_back(entry("appA", "h3"));
    CampaignResult result;
    result.outcomes.push_back(okOutcome(payload(1024, 4, 0.015625)));
    EntryOutcome failed;
    failed.status = "failed";
    failed.error = "synthetic";
    result.outcomes.push_back(failed);
    // An irrational-looking double exercises shortest-round-trip
    // formatting through the parse cycle.
    result.outcomes.push_back(okOutcome(payload(65536, 8, 0.0123456789)));
    result.telemetry.cacheHits = 1;
    result.telemetry.cacheMisses = 1;
    result.telemetry.p50Seconds = 0.125;
    result.telemetry.p95Seconds = 0.375;

    for (bool telemetry : {false, true}) {
        CampaignReport report =
            buildCampaignReport(grid, result, telemetry);
        std::string once = writeCampaignReport(report);
        CampaignReport reparsed = parseCampaignReport(once);
        EXPECT_EQ(reparsed.hasTelemetry, telemetry);
        std::string twice = writeCampaignReport(reparsed);
        EXPECT_EQ(once, twice)
            << "telemetry=" << telemetry
            << ": emit->parse->emit must be byte-identical";
    }
}

TEST(CampaignReport, ParserRejectsWrongSchema)
{
    EXPECT_THROW(parseCampaignReport("{\"schema\":\"nope\"}"),
                 CampaignError);
    EXPECT_THROW(parseCampaignReport("not json"), CampaignError);
    EXPECT_THROW(parseCampaignReport("[]"), CampaignError);
}

TEST(CampaignReport, MachineAxesSurviveTheRoundTrip)
{
    Grid grid;
    grid.gridHash = "g7";
    CampaignEntry plain = entry("appA", "h1");
    CampaignEntry mach = entry("appA", "h2");
    mach.name = "appA@proto=mesi@hier=incl:4096:65536";
    mach.axes[core::kProtocolAxis] = "mesi";
    mach.axes[core::kHierarchyAxis] = "incl:4096:65536";
    grid.entries.push_back(plain);
    grid.entries.push_back(mach);
    CampaignResult result;
    result.outcomes.push_back(okOutcome(payload(1024, 2)));
    result.outcomes.push_back(okOutcome(payload(65536, 2)));

    CampaignReport report = buildCampaignReport(grid, result);
    ASSERT_EQ(report.studies.size(), 2u);
    EXPECT_EQ(report.studies[0].protocol, "");
    EXPECT_EQ(report.studies[0].hierarchy, "");
    EXPECT_EQ(report.studies[1].protocol, "mesi");
    EXPECT_EQ(report.studies[1].hierarchy, "incl:4096:65536");

    std::string once = writeCampaignReport(report);
    // Default axes stay out of the document entirely, so a pre-axes
    // campaign's report bytes are unchanged; non-default ones appear.
    EXPECT_EQ(once.find("write-invalidate"), std::string::npos);
    EXPECT_NE(once.find("\"protocol\": \"mesi\""), std::string::npos);
    EXPECT_NE(once.find("\"hierarchy\": \"incl:4096:65536\""),
              std::string::npos);

    CampaignReport back = parseCampaignReport(once);
    ASSERT_EQ(back.studies.size(), 2u);
    EXPECT_EQ(back.studies[1].protocol, "mesi");
    EXPECT_EQ(back.studies[1].hierarchy, "incl:4096:65536");
    EXPECT_EQ(writeCampaignReport(back), once);
}
