/**
 * @file
 * Transform-method scenario (paper Section 5 motivation: "image and
 * signal processing as well as climate modeling"): band-pass filter a
 * noisy signal with the parallel FFT — forward transform, zero the
 * out-of-band bins, inverse transform — verify the recovered tone, and
 * report the communication economics that make the FFT the hard case of
 * the paper — then compare internal radices with a parallel study
 * batch.
 *
 * Usage: spectral_filter [logN] [procs] [radix] [--jobs N]
 *        [--json PATH] [--progress] [runner study flags]
 */

#include <cmath>
#include <complex>
#include <cstdlib>
#include <iostream>
#include <numbers>
#include <random>

#include "apps/fft/parallel_fft.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "core/working_set_study.hh"
#include "model/fft_model.hh"
#include "sim/multiprocessor.hh"
#include "stats/units.hh"
#include "trace/address_space.hh"

using namespace wsg;

int
main(int argc, char **argv)
{
    core::RunnerCli cli = core::parseRunnerCli(argc, argv);
    std::uint32_t logN = argc > 1 ? static_cast<std::uint32_t>(
        std::atoi(argv[1])) : 14;
    std::uint32_t procs = argc > 2 ? static_cast<std::uint32_t>(
        std::atoi(argv[2])) : 4;
    std::uint32_t radix = argc > 3 ? static_cast<std::uint32_t>(
        std::atoi(argv[3])) : 8;

    sim::Multiprocessor machine({procs, 8});
    trace::SharedAddressSpace space;
    apps::fft::FftConfig config{logN, procs, radix};
    apps::fft::ParallelFft fft(config, space, &machine);
    std::uint64_t N = config.N();

    std::cout << "Spectral band-pass filter: N = 2^" << logN << ", P = "
              << procs << ", internal radix " << radix << "\n\n";

    // Tone at bin k0 buried in noise.
    const std::uint64_t k0 = N / 5;
    std::mt19937_64 rng(7);
    std::normal_distribution<double> noise(0.0, 1.0);
    for (std::uint64_t j = 0; j < N; ++j) {
        double ang = 2.0 * std::numbers::pi *
                     static_cast<double>(k0 * j % N) /
                     static_cast<double>(N);
        fft.setInput(j, {0.4 * std::cos(ang) + noise(rng),
                         0.4 * std::sin(ang) + noise(rng)});
    }

    fft.forward();

    // Keep a narrow band around the (positive-frequency) tone.
    std::uint64_t kept = 0;
    for (std::uint64_t k = 0; k < N; ++k) {
        std::uint64_t dist = k > k0 ? k - k0 : k0 - k;
        if (dist > 2) {
            fft.setInput(k, {0.0, 0.0});
        } else {
            ++kept;
        }
    }
    fft.inverse();

    // Verify: the filtered signal correlates strongly with the clean
    // tone despite the SNR of ~0.08.
    double corr_re = 0.0, power = 0.0;
    for (std::uint64_t j = 0; j < N; ++j) {
        double ang = 2.0 * std::numbers::pi *
                     static_cast<double>(k0 * j % N) /
                     static_cast<double>(N);
        std::complex<double> tone{std::cos(ang), std::sin(ang)};
        std::complex<double> out = fft.output(j);
        corr_re += (out * std::conj(tone)).real();
        power += std::norm(out);
    }
    double amplitude = corr_re / static_cast<double>(N);
    std::cout << "recovered tone amplitude: " << amplitude
              << " (injected 0.4), " << kept << " bins kept\n"
              << "residual power: " << power / static_cast<double>(N)
              << "\n\n";

    // Architecture-side story.
    core::StudyConfig study;
    core::StudyResult result = core::analyzeWorkingSets(
        machine, study, core::Metric::MissesPerFlop,
        fft.flops().totalFlops(), "filter");
    std::cout << "working sets of the whole filter pipeline:\n"
              << stats::describeWorkingSets(result.workingSets) << "\n";

    model::FftModel m({N, procs, radix});
    std::cout << "communication economics (the paper's FFT verdict):\n"
              << "  comp/comm ratio here: "
              << stats::formatRate(m.exactCommToCompRatio())
              << " FLOPs/word over " << m.numExchangeStages()
              << " exchanges\n"
              << "  grain needed for ratio 60: "
              << stats::formatBytes(
                     model::FftModel::pointsPerProcForRatio(60.0) * 16.0)
              << " per processor\n"
              << "  grain needed for ratio 100: "
              << stats::formatBytes(
                     model::FftModel::pointsPerProcForRatio(100.0) *
                     16.0)
              << " per processor -- \"clearly unrealistic\"\n";

    // Which internal radix should the filter use? One independent
    // study per radix, executed as a parallel batch (--jobs N).
    std::cout << "\nradix comparison (parallel study batch):\n";
    std::vector<core::StudyJob> jobs;
    for (std::uint32_t r : {2u, 8u, 32u}) {
        core::StudyConfig sc = cli.study;
        sc.minCacheBytes = 16;
        apps::fft::FftConfig cfg{logN, procs, r};
        jobs.push_back(core::fftStudyJob(cfg, 1, 1, sc));
        jobs.back().name = "filter-radix" + std::to_string(r);
    }
    core::StudyRunner runner(core::cliRunnerConfig(cli));
    std::vector<core::JobReport> reports = runner.run(jobs);
    for (const auto &rep : reports) {
        std::cout << "  " << rep.name << ": ";
        if (!rep.ok) {
            std::cout << "FAILED: " << rep.error << "\n";
            continue;
        }
        std::cout << "floor "
                  << stats::formatRate(rep.result.floorRate);
        if (!rep.result.workingSets.empty())
            std::cout << ", lev1WS "
                      << stats::formatBytes(
                             rep.result.workingSets[0].sizeBytes);
        std::cout << "\n";
    }

    std::string dest = core::emitCliReport(cli, reports);
    if (!dest.empty())
        std::cerr << "wrote JSON artifact: " << dest << "\n";
    return 0;
}
