/**
 * @file
 * Figure 4 — "Miss rates for CG, 4000 x 4000 grid, P = 1024":
 * misses/FLOP versus cache size for the 2-D (and 3-D) iterative solver.
 *
 * Analytical curves at paper scale plus a trace-driven confirmation on a
 * 128^2 grid over 16 processors (and 32^3 over 8).
 *
 * Runner flags: --jobs N, --json PATH, --progress.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/presets.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "model/cg_model.hh"
#include "sim/multiprocessor.hh"
#include "stats/table.hh"
#include "stats/units.hh"

using namespace wsg;

int
main(int argc, char **argv)
{
    core::RunnerCli cli = core::parseRunnerCli(argc, argv);
    bench::banner("Figure 4",
                  "CG misses/FLOP vs cache size, 4000^2 grid (and 225^3 "
                  "3-D), P = 1024");
    bench::ScopeTimer timer("fig4");

    // Analytical curves at paper scale.
    auto sizes = sim::sweepSizes(32, 4 * stats::kMiB, 2);
    model::CgModel m2(core::presets::paperCg2d());
    model::CgModel m3(core::presets::paperCg3d());
    std::cout << stats::renderSeries(
        "Figure 4 (analytical): misses per FLOP vs cache size", "cache",
        {m2.missCurve(sizes), m3.missCurve(sizes)});

    std::cout << "\nWorking sets (analytical):\n";
    for (const model::CgModel *m : {&m2, &m3}) {
        std::cout << "  " << (m->params().dims == 2 ? "2-D" : "3-D")
                  << ":\n";
        for (const auto &lev : m->workingSets()) {
            std::cout << "    " << lev.name << " = "
                      << stats::formatBytes(lev.sizeBytes) << "  ("
                      << lev.what << ")\n";
        }
    }

    // Simulation confirmation.
    std::cout << "\nSimulation confirmation:\n";
    core::StudyConfig sc = cli.study;
    sc.minCacheBytes = 16;
    std::vector<core::StudyJob> jobs = {
        core::cgStudyJob(core::presets::simCg2d(), 3, 1, sc),
        core::cgStudyJob(core::presets::simCg3d(), 3, 1, sc),
    };
    jobs[0].name = "fig4-cg-2d";
    jobs[1].name = "fig4-cg-3d";
    core::StudyRunner runner(core::cliRunnerConfig(cli));
    std::vector<core::JobReport> reports = runner.run(jobs);
    const core::StudyResult &r2 = reports[0].result;
    const core::StudyResult &r3 = reports[1].result;
    std::cout << stats::renderSeries(
        "Figure 4 (simulated): 128^2 on 4x4 procs; 32^3 on 2x2x2 procs",
        "cache", {r2.curve, r3.curve});

    std::cout << "\nDetected knees (2-D simulation):\n"
              << stats::describeWorkingSets(r2.workingSets);

    std::cout << "\nPaper vs this reproduction:\n";
    bench::compare("lev1WS (2-D, prototypical)", "~5 KB",
                   stats::formatBytes(m2.workingSets()[0].sizeBytes));
    bench::compare("lev1WS (3-D, prototypical)", "~18 KB",
                   stats::formatBytes(m3.workingSets()[0].sizeBytes));
    bench::compare(
        "lev2WS = whole partition, unrealistic to cache",
        "drops to communication rate",
        "simulated floor " + stats::formatRate(r2.floorRate) +
            " at " +
            stats::formatBytes(static_cast<double>(
                r2.maxFootprintBytes)));
    bench::compare("miss rate after lev1WS", "remains high",
                   stats::formatRate(r2.curve.valueAtOrBelow(
                       4 * m2.workingSets()[0].sizeBytes)) +
                       " (simulated, small grid)");

    std::string dest = core::emitCliReport(cli, reports);
    if (!dest.empty())
        std::cerr << "wrote JSON artifact: " << dest << "\n";
    return core::reportRaceChecks(std::cout, reports) == 0 ? 0 : 1;
}
