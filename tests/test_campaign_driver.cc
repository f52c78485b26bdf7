/**
 * @file
 * Campaign driver tests against an in-process wsg-served Server:
 * bounded-concurrency fan-out with a synthetic factory (fast paths:
 * outcomes, manifest records, payload store, overload retry), and a
 * real-suite mini campaign proving the resume contract — kill the
 * campaign state, re-run, everything is served from cache and the
 * report bytes do not change.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "campaign/driver.hh"
#include "campaign/manifest.hh"
#include "campaign/report.hh"
#include "serve/server.hh"
#include "stats/hash.hh"

using namespace wsg;
using namespace wsg::campaign;

namespace
{

std::string
testPath(const std::string &suffix)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "wsg_campaign_" +
           std::string(info->name()) + "_" +
           std::to_string(::getpid()) + suffix;
}

/** Accepts any preset; "boom*" fails, everything else succeeds. */
core::StudyJob
syntheticJob(const std::string &name, const core::StudyConfig &)
{
    core::StudyJob job;
    job.name = name;
    job.canonicalConfig = "wsg-test-config-v1\nname=" + name + "\n";
    job.body = [name]() -> core::StudyResult {
        if (name.rfind("boom", 0) == 0)
            throw std::runtime_error("synthetic failure");
        return core::StudyResult{};
    };
    return job;
}

/** A grid whose entries hash the way the synthetic factory does. */
Grid
syntheticGrid(const std::vector<std::string> &names)
{
    Grid grid;
    std::string hash_input = "wsg-campaign-grid-v1\n";
    for (const std::string &name : names) {
        CampaignEntry entry;
        entry.name = name;
        entry.preset = name;
        entry.request.op = serve::Op::Study;
        entry.request.preset = name;
        entry.configHash = stats::fnv1a64Hex(
            "wsg-test-config-v1\nname=" + name + "\n");
        hash_input += entry.name + "=" + entry.configHash + "\n";
        grid.entries.push_back(std::move(entry));
    }
    grid.gridHash = stats::fnv1a64Hex(hash_input);
    return grid;
}

serve::ServerConfig
serverConfig(const std::string &socket)
{
    serve::ServerConfig config;
    config.socketPath = socket;
    config.service.cache.dir = "";
    return config;
}

} // namespace

TEST(CampaignDriver, RunsEveryEntryAndRecordsOutcomes)
{
    serve::Server server(serverConfig(testPath(".sock")),
                         &syntheticJob);
    server.start();

    Grid grid = syntheticGrid({"a", "b", "boom1", "c"});
    DriverConfig config;
    config.socketPath = testPath(".sock");
    config.concurrency = 3;
    CampaignResult result = runCampaign(grid, config);

    ASSERT_EQ(result.outcomes.size(), 4u);
    EXPECT_EQ(result.outcomes[0].status, "ok");
    EXPECT_EQ(result.outcomes[1].status, "ok");
    EXPECT_EQ(result.outcomes[2].status, "failed");
    EXPECT_EQ(result.outcomes[2].error, "synthetic failure");
    EXPECT_EQ(result.outcomes[3].status, "ok");
    EXPECT_FALSE(result.outcomes[0].payload.empty());
    EXPECT_EQ(result.telemetry.ok, 3u);
    EXPECT_EQ(result.telemetry.failed, 1u);
    // The failed study carries no cache disposition; only the three
    // computed ones count as misses.
    EXPECT_EQ(result.telemetry.cacheMisses, 3u);
    EXPECT_FALSE(result.telemetry.serverStats.empty());
    EXPECT_GE(result.telemetry.p95Seconds,
              result.telemetry.p50Seconds);

    server.requestShutdown();
    server.wait();
}

TEST(CampaignDriver, CheckpointsToManifestAndResumesFromResultsDir)
{
    std::string socket = testPath(".sock");
    std::string manifest = testPath(".jsonl");
    std::string results = testPath(".results");
    std::remove(manifest.c_str());

    Grid grid = syntheticGrid({"a", "b", "c"});
    DriverConfig config;
    config.socketPath = socket;
    config.manifestPath = manifest;
    config.resultsDir = results;

    std::string first_payload;
    {
        serve::Server server(serverConfig(socket), &syntheticJob);
        server.start();
        CampaignResult result = runCampaign(grid, config);
        EXPECT_EQ(result.telemetry.ok, 3u);
        first_payload = result.outcomes[0].payload;
        server.requestShutdown();
        server.wait();
    }
    ManifestContents contents = loadManifest(manifest);
    EXPECT_EQ(contents.gridHash, grid.gridHash);
    EXPECT_EQ(contents.records.size(), 3u);

    // Resume with NO server running: every entry must come off the
    // manifest + results dir without a round trip.
    CampaignResult resumed = runCampaign(grid, config);
    EXPECT_EQ(resumed.telemetry.skipped, 3u);
    EXPECT_EQ(resumed.telemetry.ok, 0u);
    EXPECT_EQ(resumed.outcomes[0].status, "skipped");
    EXPECT_EQ(resumed.outcomes[0].cache, "manifest");
    EXPECT_EQ(resumed.outcomes[0].payload, first_payload);
    EXPECT_DOUBLE_EQ(resumed.telemetry.cacheServedRatio(), 1.0);
}

TEST(CampaignDriver, ManifestFromDifferentGridIsRejected)
{
    std::string manifest = testPath(".jsonl");
    std::remove(manifest.c_str());
    {
        ManifestWriter writer(manifest, "some-other-grid", 1);
    }
    Grid grid = syntheticGrid({"a"});
    DriverConfig config;
    config.socketPath = testPath(".sock");
    config.manifestPath = manifest;
    EXPECT_THROW(runCampaign(grid, config), CampaignError);
    std::remove(manifest.c_str());
}

TEST(CampaignDriver, OverloadRetriesThenReportsTypedRejection)
{
    serve::ServerConfig sconfig = serverConfig(testPath(".sock"));
    sconfig.service.maxQueueDepth = 0; // reject every admit
    serve::Server server(sconfig, &syntheticJob);
    server.start();

    Grid grid = syntheticGrid({"a"});
    DriverConfig config;
    config.socketPath = testPath(".sock");
    config.retry.retries = 2;
    config.retry.baseBackoffMs = 1;
    CampaignResult result = runCampaign(grid, config);
    EXPECT_EQ(result.outcomes[0].status, "overloaded");
    EXPECT_EQ(result.outcomes[0].attempts, 3u);
    EXPECT_EQ(result.telemetry.overloaded, 1u);
    EXPECT_EQ(result.telemetry.retriedRoundTrips, 1u);

    server.requestShutdown();
    server.wait();
}

TEST(CampaignDriver, UnreachableDaemonYieldsErrorsNotAHang)
{
    Grid grid = syntheticGrid({"a", "b"});
    DriverConfig config;
    config.socketPath = testPath(".absent.sock");
    CampaignResult result = runCampaign(grid, config);
    EXPECT_EQ(result.telemetry.errors, 2u);
    EXPECT_EQ(result.outcomes[0].status, "error");
    EXPECT_FALSE(result.outcomes[0].error.empty());
}

// The full resume contract on the real suite: run a small real grid,
// then re-run it two ways — warm manifest (no daemon needed for the
// skipped entries) and cold manifest against the same daemon (served
// as cache hits) — and require byte-identical reports from all three.
TEST(CampaignDriver, RealSuiteResumeKeepsReportBytesIdentical)
{
    GridSpec spec;
    spec.presets = {"fig2-lu-B16"};
    spec.sizes = {core::ProblemSize::Small};
    spec.lineBytes = {16, 32};
    Grid grid = expandGrid(spec);
    ASSERT_EQ(grid.entries.size(), 2u);

    std::string socket = testPath(".sock");
    serve::Server server(serverConfig(socket), {});
    server.start();

    DriverConfig config;
    config.socketPath = socket;
    config.manifestPath = testPath(".jsonl");
    config.resultsDir = testPath(".results");
    std::remove(config.manifestPath.c_str());

    CampaignResult cold = runCampaign(grid, config);
    EXPECT_EQ(cold.telemetry.ok, 2u);
    EXPECT_EQ(cold.telemetry.cacheMisses, 2u);
    std::string report_cold =
        writeCampaignReport(buildCampaignReport(grid, cold));

    // Warm resume: all skipped, same bytes.
    CampaignResult warm = runCampaign(grid, config);
    EXPECT_EQ(warm.telemetry.skipped, 2u);
    EXPECT_EQ(writeCampaignReport(buildCampaignReport(grid, warm)),
              report_cold);

    // Cold manifest, warm daemon: all served as cache hits, and the
    // daemon-computed hash agrees with the grid's precomputed one.
    DriverConfig fresh = config;
    fresh.manifestPath = testPath(".fresh.jsonl");
    std::remove(fresh.manifestPath.c_str());
    CampaignResult hits = runCampaign(grid, fresh);
    EXPECT_EQ(hits.telemetry.cacheHits, 2u);
    EXPECT_DOUBLE_EQ(hits.telemetry.cacheServedRatio(), 1.0);
    EXPECT_EQ(writeCampaignReport(buildCampaignReport(grid, hits)),
              report_cold);

    std::remove(config.manifestPath.c_str());
    std::remove(fresh.manifestPath.c_str());
    server.requestShutdown();
    server.wait();
}
