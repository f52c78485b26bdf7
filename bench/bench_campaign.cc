/**
 * @file
 * Campaign-orchestration load table: drive a multi-axis sweep grid
 * through an in-process wsg-served daemon with the campaign driver at
 * 1, 4 and 16 client connections, cold then warm.
 *
 * Each concurrency level hosts a fresh daemon (memory-only cache) and
 * runs the same expanded grid twice through campaign::runCampaign:
 * the cold pass computes every study once (excess clients coalesce or
 * back off), the warm pass must be served entirely from the daemon's
 * cache. The table reports per-level wall time, client-observed
 * p50/p95 service time, and the warm pass's cache-served ratio — the
 * number the CI resume smoke asserts on.
 *
 * The default grid sweeps the whole suite across two line sizes under
 * fixed-size sampling so the bench measures *orchestration*, not
 * simulation throughput; --exact removes the sampling.
 *
 * Flags:
 *   --clients K   run only this client count (repeatable; default
 *                 1, 4, 16)
 *   --exact       full unsampled studies
 *   --smoke       tiny grid, single level, hard-assert the cold/warm
 *                 contract (CI entry point)
 *
 * The closing table is quoted by EXPERIMENTS.md ("Campaign
 * orchestration").
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "campaign/driver.hh"
#include "campaign/grid.hh"
#include "campaign/report.hh"
#include "core/suite.hh"
#include "serve/server.hh"
#include "stats/table.hh"
#include "stats/units.hh"

using namespace wsg;

namespace
{

struct LevelResult
{
    unsigned clients = 0;
    std::size_t studies = 0;
    double coldWall = 0.0;
    double warmWall = 0.0;
    double coldP50 = 0.0;
    double coldP95 = 0.0;
    double warmP95 = 0.0;
    double warmServedRatio = 0.0;
    bool allOk = false;
};

LevelResult
runLevel(unsigned clients, const campaign::Grid &grid)
{
    std::string socket = "/tmp/wsg_bench_campaign_" +
                         std::to_string(::getpid()) + "_" +
                         std::to_string(clients) + ".sock";
    serve::ServerConfig sconfig;
    sconfig.socketPath = socket;
    sconfig.service.cache.dir = ""; // no cross-level warmup
    sconfig.service.maxQueueDepth = 64;
    serve::Server server(sconfig);
    server.start();

    campaign::DriverConfig dconfig;
    dconfig.socketPath = socket;
    dconfig.concurrency = clients;

    LevelResult level;
    level.clients = clients;
    level.studies = grid.entries.size();

    auto timed = [&](campaign::CampaignResult &out) {
        auto t0 = std::chrono::steady_clock::now();
        out = campaign::runCampaign(grid, dconfig);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    campaign::CampaignResult cold;
    level.coldWall = timed(cold);
    campaign::CampaignResult warm;
    level.warmWall = timed(warm);

    level.coldP50 = cold.telemetry.p50Seconds;
    level.coldP95 = cold.telemetry.p95Seconds;
    level.warmP95 = warm.telemetry.p95Seconds;
    level.warmServedRatio = warm.telemetry.cacheServedRatio();
    level.allOk =
        cold.telemetry.ok == grid.entries.size() &&
        warm.telemetry.ok == grid.entries.size() &&
        campaign::writeCampaignReport(
            campaign::buildCampaignReport(grid, cold)) ==
            campaign::writeCampaignReport(
                campaign::buildCampaignReport(grid, warm));

    server.requestShutdown();
    server.wait();
    return level;
}

std::string
formatMs(double seconds)
{
    std::ostringstream os;
    os.precision(3);
    os << seconds * 1e3 << " ms";
    return os.str();
}

std::string
formatPct(double fraction)
{
    return stats::formatCount(fraction * 100.0) + " %";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<unsigned> levels;
    bool smoke = false;
    bool exact = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--clients" && i + 1 < argc) {
            levels.push_back(
                static_cast<unsigned>(std::stoul(argv[++i])));
        } else if (arg == "--exact") {
            exact = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else {
            std::cerr << "error: unknown argument '" << arg
                      << "' (flags: --clients K, --exact, --smoke)\n";
            return 2;
        }
    }
    if (levels.empty())
        levels = smoke ? std::vector<unsigned>{2}
                       : std::vector<unsigned>{1, 4, 16};

    campaign::GridSpec spec;
    if (smoke) {
        spec.presets = {"fig2-lu-B16", "fig4-cg-2d"};
        spec.sizes = {core::ProblemSize::Small};
        spec.lineBytes = {16, 32};
    } else {
        spec.lineBytes = {16, 64};
    }
    if (!exact)
        spec.axes[core::kSamplingAxis] = {"size:4096"};
    campaign::Grid grid = campaign::expandGrid(spec);

    bench::banner("campaign orchestration (wsg-campaign)",
                  "sweep fan-out, cold/warm wall time and cache-served "
                  "ratio per client count");
    std::cout << "grid " << grid.gridHash << ": "
              << grid.entries.size()
              << " studies, two passes per level; fresh daemon per "
                 "level\n\n";

    std::vector<LevelResult> results;
    for (unsigned clients : levels) {
        std::cout << "level: " << clients << " client(s)..."
                  << std::flush;
        results.push_back(runLevel(clients, grid));
        std::cout << " cold " << results.back().coldWall << " s, warm "
                  << results.back().warmWall << " s\n";
    }
    std::cout << "\n";

    stats::Table tab("campaign passes per client count");
    tab.header({"clients", "studies", "cold wall", "warm wall",
                "cold p50", "cold p95", "warm p95", "warm served"});
    for (const LevelResult &r : results)
        tab.addRow({std::to_string(r.clients),
                    std::to_string(r.studies),
                    formatMs(r.coldWall), formatMs(r.warmWall),
                    formatMs(r.coldP50), formatMs(r.coldP95),
                    formatMs(r.warmP95),
                    formatPct(r.warmServedRatio)});
    std::cout << tab.render();

    bool sane = true;
    for (const LevelResult &r : results) {
        sane = sane && r.allOk;
        // The warm pass never recomputes: every study is served from
        // a cache layer.
        sane = sane && r.warmServedRatio >= 0.999;
    }
    std::cout << "\n"
              << (sane ? "campaign contract holds"
                       : "UNEXPECTED campaign behaviour")
              << " (warm pass fully cache-served, cold/warm reports "
                 "byte-identical)\n";
    return sane ? 0 : 1;
}
