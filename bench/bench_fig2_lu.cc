/**
 * @file
 * Figure 2 — "Miss rates for LU factorization, n = 10,000, PE = 1024":
 * double-word read misses per FLOP versus cache size for block sizes
 * B = 4, 16, 64.
 *
 * The paper derives this figure analytically; we print the analytical
 * curves at full paper scale, then confirm the model with a trace-driven
 * simulation of a smaller configuration (n = 256, 16 processors), as the
 * paper's Section 2.2 prescribes ("use simulation to confirm our
 * estimates for some examples").
 *
 * Runner flags: --jobs N (parallel studies), --json PATH (machine
 * readable artifact), --progress (live per-study lines on stderr).
 */

#include <iostream>

#include "bench_util.hh"
#include "core/presets.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "model/lu_model.hh"
#include "sim/multiprocessor.hh"
#include "stats/table.hh"
#include "stats/units.hh"

using namespace wsg;

int
main(int argc, char **argv)
{
    core::RunnerCli cli = core::parseRunnerCli(argc, argv);
    bench::banner("Figure 2",
                  "LU misses/FLOP vs cache size, n = 10,000, P = 1024, "
                  "B in {4, 16, 64}");
    bench::ScopeTimer timer("fig2");

    // ----------------------------------------------------------------
    // Analytical curves at paper scale.
    // ----------------------------------------------------------------
    auto sizes = sim::sweepSizes(32, 2 * stats::kMiB, 2);
    std::vector<stats::Curve> curves;
    for (std::uint32_t B : {4u, 16u, 64u}) {
        model::LuModel m(core::presets::paperLu(B));
        curves.push_back(m.missCurve(sizes));
    }
    std::cout << stats::renderSeries(
        "Figure 2 (analytical): misses per FLOP vs cache size", "cache",
        curves);

    std::cout << "\nWorking-set hierarchy (B = 16):\n";
    model::LuModel m16(core::presets::paperLu(16));
    for (const auto &lev : m16.workingSets()) {
        std::cout << "  " << lev.name << " = "
                  << stats::formatBytes(lev.sizeBytes) << "  (" << lev.what
                  << "), miss rate after: "
                  << stats::formatRate(lev.missRateAfter) << "\n";
    }

    // ----------------------------------------------------------------
    // Simulation confirmation at laptop scale.
    // ----------------------------------------------------------------
    std::cout << "\nSimulation confirmation (n = 256, 4x4 processors):\n";
    std::vector<core::StudyJob> jobs;
    for (std::uint32_t B : {4u, 16u, 64u}) {
        core::StudyConfig sc = cli.study;
        sc.minCacheBytes = 16;
        jobs.push_back(core::luStudyJob(core::presets::simLu(B), sc));
        jobs.back().name = "fig2-lu-B" + std::to_string(B);
    }
    core::StudyRunner runner(core::cliRunnerConfig(cli));
    std::vector<core::JobReport> reports = runner.run(jobs);
    std::vector<stats::Curve> sim_curves;
    std::vector<core::StudyResult> results;
    for (const auto &rep : reports) {
        results.push_back(rep.result);
        sim_curves.push_back(rep.result.curve);
    }
    std::cout << stats::renderSeries(
        "Figure 2 (simulated, n = 256): misses per FLOP vs cache size",
        "cache", sim_curves);

    std::cout << "\nDetected knees (simulated, B = 16):\n"
              << stats::describeWorkingSets(results[1].workingSets);

    // ----------------------------------------------------------------
    // Paper vs measured.
    // ----------------------------------------------------------------
    std::cout << "\nPaper vs this reproduction (B = 16):\n";
    const auto &c16 = results[1].curve;
    bench::compare("lev1WS size", "~260 B",
                   stats::formatBytes(
                       results[1].workingSets.empty()
                           ? 0.0
                           : results[1].workingSets[0].sizeBytes));
    bench::compare("miss rate once lev1WS fits", "~0.5 (halved)",
                   stats::formatRate(c16.valueAtOrBelow(1024)));
    bench::compare("miss rate once lev2WS (2.2 KB) fits", "~1/B = 0.0625",
                   stats::formatRate(c16.valueAtOrBelow(6144)));
    bench::compare("lev2WS independent of n and P", "const",
                   "const (model: B*B*8 for all n, P)");

    std::string dest = core::emitCliReport(cli, reports);
    if (!dest.empty())
        std::cerr << "wrote JSON artifact: " << dest << "\n";
    return core::reportRaceChecks(std::cout, reports) == 0 ? 0 : 1;
}
