/**
 * @file
 * Extension bench — false sharing versus cache line size.
 *
 * The paper accounts misses at double-word (8-byte) granularity, where
 * every coherence miss is true sharing by construction. Real machines
 * use longer lines, and two processors writing *different* words of one
 * line then ping-pong it without communicating any values — false
 * sharing, the granularity artifact Cole & Ramachandran's analysis
 * centers on. This bench sweeps the line size from the paper's 8 B up
 * to 256 B on CG, FFT and Barnes-Hut and reports the Dubois true/false
 * split of the coherence misses, quantifying how much of each
 * application's apparent communication is an artifact of the line
 * grain.
 *
 * Runner flags: --jobs N, --json PATH, --progress, --sample-rate /
 * --sample-size.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/presets.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "stats/table.hh"
#include "stats/units.hh"

using namespace wsg;

namespace
{

constexpr std::uint32_t kLineSizes[] = {8, 16, 32, 64, 128, 256};

/** Fraction rendered as "12.3%". */
std::string
percent(double num, double den)
{
    if (den <= 0.0)
        return "-";
    return stats::formatRate(num / den * 100.0) + "%";
}

} // namespace

int
main(int argc, char **argv)
{
    core::RunnerCli cli = core::parseRunnerCli(argc, argv);
    bench::banner("False sharing vs line size",
                  "Dubois true/false split of coherence misses, 8 B to "
                  "256 B lines, CG / FFT / Barnes-Hut");
    bench::ScopeTimer timer("false-sharing");

    // One study per (application, line size); the working-set sweep is
    // pinned to a single 16 KB point because the sharing split is
    // size-independent — the app run dominates the cost either way.
    core::StudyConfig sc = cli.study;
    sc.minCacheBytes = 16 * 1024;
    sc.maxCacheBytes = 16 * 1024;

    std::vector<core::StudyJob> jobs;
    std::vector<std::string> app_of_job;
    for (std::uint32_t line : kLineSizes) {
        jobs.push_back(
            core::cgStudyJob(core::presets::simCg2d(), 2, 1, sc, line));
        jobs.back().name = "cg-" + std::to_string(line) + "B";
        app_of_job.push_back("CG 128^2");
        jobs.push_back(core::fftStudyJob(core::presets::simFft(), 1, 1,
                                         sc, line));
        jobs.back().name = "fft-" + std::to_string(line) + "B";
        app_of_job.push_back("FFT 2^14");
        jobs.push_back(core::barnesStudyJob(core::presets::simBarnesFig6(),
                                            1, 1, sc, line));
        jobs.back().name = "barnes-" + std::to_string(line) + "B";
        app_of_job.push_back("Barnes 1024");
    }

    core::StudyRunner runner(core::cliRunnerConfig(cli));
    std::vector<core::JobReport> reports = runner.run(jobs);

    stats::Table tab("coherence-miss split by line size (reads+writes, "
                     "raw admitted counts)");
    tab.header({"app", "line", "true sharing", "false sharing",
                "false/coherence", "false per 1k refs"});
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const core::JobReport &r = reports[i];
        if (!r.ok) {
            std::cerr << "study " << r.name << " failed: " << r.error
                      << "\n";
            return 1;
        }
        const sim::ProcStats &agg = r.result.aggregate;
        std::uint64_t true_sharing =
            agg.readTrueSharing + agg.writeTrueSharing;
        std::uint64_t false_sharing =
            agg.readFalseSharing + agg.writeFalseSharing;
        std::uint64_t coherence = agg.readCoherence + agg.writeCoherence;
        std::uint64_t refs = agg.reads + agg.writes;
        tab.addRow({app_of_job[i],
                    stats::formatBytes(
                        static_cast<double>(kLineSizes[i / 3])),
                    std::to_string(true_sharing),
                    std::to_string(false_sharing),
                    percent(static_cast<double>(false_sharing),
                            static_cast<double>(coherence)),
                    stats::formatRate(
                        refs > 0 ? 1000.0 *
                                       static_cast<double>(false_sharing) /
                                       static_cast<double>(refs)
                                 : 0.0)});
    }
    std::cout << tab.render() << "\n";

    std::cout << "Observations:\n";
    bench::compare("8 B (double-word) lines", "zero false sharing",
                   "structural: one word per line");
    bench::compare("longer lines",
                   "false sharing grows with the line grain",
                   "unrelated words written by different processors "
                   "start colliding in one line");
    std::cout
        << "\nTrue sharing tracks the paper's inherent-communication "
           "floor; the false-sharing\ncolumn is pure line-granularity "
           "artifact that an 8-byte accounting never sees.\n";

    std::string dest = core::emitCliReport(cli, reports);
    if (!dest.empty())
        std::cerr << "wrote JSON artifact: " << dest << "\n";
    return core::reportRaceChecks(std::cout, reports) == 0 ? 0 : 1;
}
