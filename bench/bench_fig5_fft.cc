/**
 * @file
 * Figure 5 — "Miss rates for 1D FFT, n = 64M = 2^26, PE = 1024":
 * misses per operation versus cache size for internal radices 2, 8, 32.
 *
 * Analytical curves at paper scale; trace-driven confirmation with
 * N = 2^14 on 4 processors.
 *
 * Runner flags: --jobs N, --json PATH, --progress.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/presets.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "model/fft_model.hh"
#include "sim/multiprocessor.hh"
#include "stats/table.hh"
#include "stats/units.hh"

using namespace wsg;

int
main(int argc, char **argv)
{
    core::RunnerCli cli = core::parseRunnerCli(argc, argv);
    bench::banner("Figure 5",
                  "FFT misses/op vs cache size, N = 2^26, P = 1024, "
                  "internal radix in {2, 8, 32}");
    bench::ScopeTimer timer("fig5");

    auto sizes = sim::sweepSizes(32, 4 * stats::kMiB, 2);
    std::vector<stats::Curve> curves;
    for (std::uint32_t r : {2u, 8u, 32u}) {
        model::FftModel m(core::presets::paperFft(r));
        curves.push_back(m.missCurve(sizes));
    }
    std::cout << stats::renderSeries(
        "Figure 5 (analytical): misses per op vs cache size", "cache",
        curves);

    std::cout << "\nSimulation confirmation (N = 2^14, P = 4):\n";
    core::StudyConfig sc = cli.study;
    sc.minCacheBytes = 16;
    std::vector<core::StudyJob> jobs;
    for (std::uint32_t r : {2u, 8u, 32u}) {
        jobs.push_back(
            core::fftStudyJob(core::presets::simFft(r), 1, 1, sc));
        jobs.back().name = "fig5-fft-radix" + std::to_string(r);
    }
    core::StudyRunner runner(core::cliRunnerConfig(cli));
    std::vector<core::JobReport> reports = runner.run(jobs);
    std::vector<stats::Curve> sim_curves;
    std::vector<double> sim_floor;
    for (const auto &rep : reports) {
        sim_curves.push_back(rep.result.curve);
        sim_floor.push_back(rep.result.floorRate);
    }
    std::cout << stats::renderSeries(
        "Figure 5 (simulated): misses per op vs cache size", "cache",
        sim_curves);

    std::cout
        << "\n(Note: at N = 2^14 the inherent-communication floor of "
        << stats::formatRate(sim_floor[0])
        << " is ~5x the paper-scale floor; subtract it when comparing "
           "plateaus.)\n";

    std::cout << "\nPaper vs this reproduction:\n";
    const char *paper_rates[] = {"0.6", "0.25", "0.15"};
    const std::uint32_t radices[] = {2, 8, 32};
    for (int i = 0; i < 3; ++i) {
        model::FftModel m(core::presets::paperFft(radices[i]));
        double lev1 = m.workingSets()[0].sizeBytes;
        double measured =
            sim_curves[static_cast<std::size_t>(i)].valueAtOrBelow(
                4.0 * lev1) -
            sim_floor[static_cast<std::size_t>(i)];
        bench::compare(
            "misses/op once lev1WS fits (radix " +
                std::to_string(radices[i]) + ")",
            paper_rates[i],
            stats::formatRate(measured) + " (floor-subtracted) / model " +
                stats::formatRate(m.workingSets()[0].missRateAfter));
    }

    model::FftModel proto(core::presets::paperFft(8));
    bench::compare("comp/comm ratio, prototypical",
                   "33 FLOPs/word (2 exchanges)",
                   stats::formatRate(proto.exactCommToCompRatio()) +
                       " FLOPs/word (" +
                       std::to_string(proto.numExchangeStages()) +
                       " exchanges)");
    bench::compare(
        "per-processor data for ratio 60", "~270 MB",
        stats::formatBytes(model::FftModel::pointsPerProcForRatio(60.0) *
                           16.0));
    bench::compare(
        "per-processor data for ratio 100", "~18 TB",
        stats::formatBytes(model::FftModel::pointsPerProcForRatio(100.0) *
                           16.0));

    std::string dest = core::emitCliReport(cli, reports);
    if (!dest.empty())
        std::cerr << "wrote JSON artifact: " << dest << "\n";
    return core::reportRaceChecks(std::cout, reports) == 0 ? 0 : 1;
}
