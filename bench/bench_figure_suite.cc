/**
 * @file
 * The whole figure suite through one parallel StudyRunner: every
 * trace-driven simulation study behind Figures 2, 4, 5, 6 and 7, plus
 * the four remaining instrumented applications (blocked Cholesky,
 * unstructured CG, 2-D FFT, 3-D FFT) — fourteen independent studies
 * over all nine applications, submitted as one batch.
 *
 * This is the throughput showcase for the runner: the studies are
 * embarrassingly parallel, so `--jobs N` should cut wall-clock roughly
 * N-fold up to the core count. The bench prints a per-study timing and
 * simulated-refs/sec table plus batch totals; pass `--json PATH` to
 * also emit the combined machine-readable artifact for all five
 * figures, and `--progress` for live per-study lines on stderr.
 *
 * Determinism: the emitted curves and knees are byte-identical at any
 * --jobs value (see src/core/study_runner.hh).
 *
 * Extra flags beyond the shared runner CLI:
 *   --list             print the study names, one per line, and exit
 *   --only SUBSTRING   run only the studies whose name contains
 *                      SUBSTRING (repeatable; a study runs if any
 *                      pattern matches). No match, or a missing value,
 *                      is a usage error (exit 2).
 *   --sample-rate R / --sample-size N (from the runner CLI) switch
 *   every study to spatially-sampled profiling; the JSON artifact then
 *   carries the per-study sampling diagnostics.
 *   --analyze-races (from the runner CLI) runs the happens-before race
 *   check in every study and exits non-zero if any study reports an
 *   unordered conflicting access pair.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/study_runner.hh"
#include "core/suite.hh"
#include "stats/table.hh"
#include "stats/units.hh"

using namespace wsg;

namespace
{

struct SuiteCli
{
    bool list = false;
    std::vector<std::string> only;
};

SuiteCli
parseSuiteCli(int argc, char **argv)
{
    SuiteCli suite;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            suite.list = true;
        } else if (arg == "--only") {
            if (i + 1 >= argc) {
                std::cerr << "error: --only needs a substring\n";
                std::exit(2);
            }
            suite.only.push_back(argv[++i]);
        } else if (arg.rfind("--only=", 0) == 0) {
            suite.only.push_back(arg.substr(7));
        } else {
            std::cerr << "error: unknown argument '" << arg
                      << "' (flags: --jobs N, --json PATH, --progress, "
                         "--analyze-races, --timeout S, --sample-rate R, "
                         "--sample-size N, --list, --only SUBSTRING)\n";
            std::exit(2);
        }
    }
    return suite;
}

} // namespace

int
main(int argc, char **argv)
{
    core::RunnerCli cli = core::parseRunnerCli(argc, argv);
    SuiteCli suite = parseSuiteCli(argc, argv);

    // The 14 jobs come from the shared core/suite factory — the same
    // one the serving daemon resolves presets through — so this
    // bench's --json artifact is byte-identical to what `wsg-submit
    // <name>` returns.
    std::vector<core::StudyJob> jobs = core::figureSuiteJobs(cli.study);
    if (!suite.only.empty()) {
        std::vector<core::StudyJob> kept;
        for (core::StudyJob &job : jobs) {
            bool match = std::any_of(
                suite.only.begin(), suite.only.end(),
                [&job](const std::string &pat) {
                    return job.name.find(pat) != std::string::npos;
                });
            if (match)
                kept.push_back(std::move(job));
        }
        if (kept.empty()) {
            std::cerr << "error: no study matches --only; names are:\n";
            for (const core::StudyJob &job :
                 core::figureSuiteJobs(cli.study))
                std::cerr << "  " << job.name << "\n";
            std::exit(2);
        }
        jobs = std::move(kept);
    }
    if (suite.list) {
        for (const core::StudyJob &job : jobs)
            std::cout << job.name << "\n";
        return 0;
    }

    bench::banner("Figures 2-7 (suite)",
                  "all trace-driven figure studies in one parallel batch");
    core::StudyRunner runner(core::cliRunnerConfig(cli));
    std::cout << "running " << jobs.size() << " studies on "
              << runner.workerCount() << " worker(s)\n\n";

    auto t0 = std::chrono::steady_clock::now();
    std::vector<core::JobReport> reports = runner.run(jobs);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    stats::Table tab("per-study timing");
    tab.header({"study", "ok", "refs", "seconds", "refs/s", "knees"});
    double cpu_seconds = 0.0;
    std::uint64_t total_refs = 0;
    bool all_ok = true;
    for (const auto &rep : reports) {
        cpu_seconds += rep.seconds;
        total_refs += rep.simRefs;
        all_ok = all_ok && rep.ok;
        tab.addRow({rep.name, rep.ok ? "yes" : ("FAILED: " + rep.error),
                    stats::formatCount(static_cast<double>(rep.simRefs)),
                    stats::formatRate(rep.seconds),
                    stats::formatCount(rep.refsPerSec),
                    std::to_string(rep.result.workingSets.size())});
    }
    std::cout << tab.render();

    std::cout << "\nbatch totals: "
              << stats::formatCount(static_cast<double>(total_refs))
              << " simulated refs, " << wall << " s wall, " << cpu_seconds
              << " s aggregate study time";
    if (wall > 0.0)
        std::cout << " (" << cpu_seconds / wall
                  << "x concurrency achieved)";
    std::cout << "\n";

    std::size_t racy = core::reportRaceChecks(std::cout, reports);

    std::string dest = core::emitCliReport(cli, reports);
    if (!dest.empty())
        std::cerr << "wrote JSON artifact: " << dest << "\n";
    return all_ok && racy == 0 ? 0 : 1;
}
