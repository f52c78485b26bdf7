/**
 * @file
 * Extension bench — scheduler-aware replay: work stealing vs false
 * sharing, and the streaming reader's memory bound.
 *
 * The paper's studies assume static task placement: whoever touched a
 * partition keeps touching it, so all sharing misses are real
 * communication. Work-stealing runtimes trade that locality for load
 * balance — every steal makes the migrated task's cached lines remote,
 * and with multi-word lines the migration also manufactures *false*
 * sharing that a static schedule never sees. Cole & Ramachandran
 * ("Analysis of false sharing under work stealing") bound the extra
 * false-sharing misses by O(s*B) for s steals and B-word lines; this
 * bench measures the CG study under seeded randomized stealing across
 * steal rates and line sizes and reports the measured excess next to
 * the s*B budget, which EXPERIMENTS.md quotes.
 *
 * Modes (on top of the shared runner CLI: --jobs, --json, --progress,
 * --scheduler, --steal-rate, --steal-seed, --analyze-races, ...):
 *
 *   (default)          full sweep: steal rates {0.05 .. 0.5} x line
 *                      sizes {8 .. 256 B} on CG, static baseline per
 *                      line size, measured-vs-bound table
 *   --smoke            tiny sweep (small CG, 2 line sizes, 1 rate) —
 *                      the sanitizer CI matrix runs this
 *   --soak-records N   streaming soak: write a synthetic v3 trace of
 *                      N records, replay it through a work-stealing
 *                      schedule, and verify O(block) memory — peak RSS
 *                      (Linux VmHWM) must stay under --max-rss-mb even
 *                      when the packed-equivalent trace (N * 16 B) is
 *                      multi-GB
 *   --soak-trace PATH  where the soak writes its trace (default: under
 *                      /tmp, removed afterwards)
 *   --max-rss-mb M     soak RSS budget in MiB (default 512; 0 skips
 *                      the check, e.g. under sanitizers)
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "core/presets.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "replay/scheduled_sink.hh"
#include "replay/splitmix.hh"
#include "stats/table.hh"
#include "stats/units.hh"
#include "trace/sinks.hh"
#include "trace/trace_file.hh"

using namespace wsg;

namespace
{

struct BenchCli
{
    bool smoke = false;
    std::uint64_t soakRecords = 0;
    std::string soakTrace;
    std::uint64_t maxRssMb = 512;
};

BenchCli
parseBenchCli(int argc, char **argv)
{
    BenchCli bench;
    auto fail = [](const std::string &msg) {
        std::cerr << "error: " << msg << "\n";
        std::exit(2);
    };
    auto next_value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            fail(std::string(flag) + " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        if (arg == "--smoke") {
            bench.smoke = true;
        } else if (arg == "--soak-records" ||
                   arg.rfind("--soak-records=", 0) == 0) {
            value = arg == "--soak-records"
                        ? next_value(i, "--soak-records")
                        : arg.substr(15);
            bench.soakRecords = std::strtoull(value.c_str(), nullptr, 10);
            if (bench.soakRecords == 0)
                fail("--soak-records needs a positive record count");
        } else if (arg == "--soak-trace" ||
                   arg.rfind("--soak-trace=", 0) == 0) {
            bench.soakTrace = arg == "--soak-trace"
                                  ? next_value(i, "--soak-trace")
                                  : arg.substr(13);
        } else if (arg == "--max-rss-mb" ||
                   arg.rfind("--max-rss-mb=", 0) == 0) {
            value = arg == "--max-rss-mb"
                        ? next_value(i, "--max-rss-mb")
                        : arg.substr(13);
            bench.maxRssMb = std::strtoull(value.c_str(), nullptr, 10);
        } else {
            fail("unknown argument '" + arg +
                 "' (flags: --smoke, --soak-records N, --soak-trace "
                 "PATH, --max-rss-mb M, plus the shared runner flags)");
        }
    }
    return bench;
}

/** Peak resident set size in MiB (Linux VmHWM), or 0 if unknown. */
std::uint64_t
peakRssMb()
{
#ifdef __linux__
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::uint64_t kb = 0;
            std::sscanf(line.c_str(), "VmHWM: %llu",
                        reinterpret_cast<unsigned long long *>(&kb));
            return kb / 1024;
        }
    }
#endif
    return 0;
}

/** Counts and checksums everything it receives (keeps O(1) state). */
class ChecksumSink : public trace::MemorySink
{
  public:
    void
    access(const trace::MemRef &ref) override
    {
        ++refs_;
        checksum_ ^= ref.addr + 0x9E3779B97F4A7C15ull * ref.pid;
    }

    void
    sync(const trace::SyncEvent &event) override
    {
        ++syncs_;
        checksum_ ^= event.object;
    }

    std::uint64_t refs() const { return refs_; }
    std::uint64_t syncs() const { return syncs_; }
    std::uint64_t checksum() const { return checksum_; }

  private:
    std::uint64_t refs_ = 0;
    std::uint64_t syncs_ = 0;
    std::uint64_t checksum_ = 0;
};

/**
 * The streaming soak: write a synthetic v3 trace of @p records
 * references (deterministic SplitMix stream, a barrier every 4096
 * records so the scheduler has intervals to advance over), then replay
 * it through a work-stealing schedule while watching peak RSS. The
 * packed v2 equivalent of the same trace is records * 16 bytes —
 * multi-GB at defaults CI uses — while the block-framed reader must
 * hold only one ~64 KiB block at a time.
 */
int
runSoak(const BenchCli &bench)
{
    std::string path = bench.soakTrace.empty()
                           ? "/tmp/wsg_replay_soak_" +
                                 std::to_string(::getpid()) + ".wsgtrace"
                           : bench.soakTrace;
    const std::uint32_t procs = 16;

    std::cout << "soak: " << bench.soakRecords << " records ("
              << stats::formatBytes(
                     static_cast<double>(bench.soakRecords) * 16.0)
              << " packed-equivalent)\n";

    std::uint64_t written_checksum = 0;
    {
        trace::TraceWriter writer(path, procs);
        replay::SplitMix64 rng(7);
        ChecksumSink mirror;
        for (std::uint64_t i = 0; i < bench.soakRecords; ++i) {
            trace::MemRef ref;
            ref.addr = (rng.next() % (1u << 26)) * 8;
            ref.bytes = 8;
            ref.pid = static_cast<std::uint32_t>(i % procs);
            ref.type = (i & 7) == 0 ? trace::RefType::Write
                                    : trace::RefType::Read;
            writer.access(ref);
            mirror.access(ref);
            if ((i + 1) % 4096 == 0) {
                writer.barrier();
                trace::SyncEvent barrier{trace::SyncKind::Barrier, 0, 0};
                mirror.sync(barrier);
            }
        }
        written_checksum = mirror.checksum();
    }
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    double file_bytes = static_cast<double>(in.tellg());
    in.close();
    std::cout << "soak: v3 trace is " << stats::formatBytes(file_bytes)
              << " on disk ("
              << stats::formatRate(
                     file_bytes /
                     static_cast<double>(bench.soakRecords))
              << " B/record)\n";

    replay::SchedulerSpec spec;
    spec.kind = replay::SchedulerKind::WorkStealing;
    spec.stealRate = 0.25;
    spec.stealSeed = 1;
    ChecksumSink sink;
    trace::TraceReader reader(path);
    std::uint64_t delivered = replayTrace(reader, sink, spec);
    std::remove(path.c_str());

    std::uint64_t expected =
        bench.soakRecords + bench.soakRecords / 4096;
    std::cout << "soak: replayed " << delivered << " records ("
              << sink.refs() << " refs, " << sink.syncs()
              << " barriers)\n";
    if (delivered != expected || sink.refs() != bench.soakRecords) {
        std::cerr << "soak FAILED: expected " << expected
                  << " records\n";
        return 1;
    }
    // The schedule permutes pids but never addresses or ordering, so
    // the pid-sensitive checksum diverges while ref/sync counts hold;
    // a second static replay would reproduce written_checksum exactly.
    (void)written_checksum;

    std::uint64_t rss = peakRssMb();
    if (rss > 0)
        std::cout << "soak: peak RSS " << rss << " MiB (budget "
                  << bench.maxRssMb << " MiB)\n";
    if (bench.maxRssMb > 0 && rss > bench.maxRssMb) {
        std::cerr << "soak FAILED: peak RSS " << rss
                  << " MiB exceeds the O(block) budget of "
                  << bench.maxRssMb
                  << " MiB — the streaming reader is buffering more "
                     "than one block\n";
        return 1;
    }
    std::cout << "soak: OK\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    core::RunnerCli cli = core::parseRunnerCli(argc, argv);
    BenchCli bench = parseBenchCli(argc, argv);

    if (bench.soakRecords > 0)
        return runSoak(bench);

    bench::banner(
        "scheduler replay (extension)",
        "work stealing vs false sharing: measured excess misses vs the "
        "Cole & Ramachandran O(s*B) budget");
    bench::ScopeTimer timer("replay-schedulers");

    // One study per (line size, schedule); the sweep is pinned to a
    // single 16 KB point exactly like bench_false_sharing — the
    // sharing split is cache-size-independent.
    // The schedule is this bench's own sweep; only --steal-seed
    // carries over from the scheduler flags.
    core::StudyConfig sc = cli.study;
    sc.minCacheBytes = 16 * 1024;
    sc.maxCacheBytes = 16 * 1024;
    sc.scheduler = {};
    const std::uint64_t seed = cli.study.scheduler.stealSeed;

    apps::cg::CgConfig app = core::presets::simCg2d();
    std::vector<std::uint32_t> lines = {8, 16, 32, 64, 128, 256};
    std::vector<double> rates = {0.05, 0.1, 0.25, 0.5};
    std::uint32_t iters = 2;
    if (bench.smoke) {
        app.n = 32; // keep the sanitizer matrix fast
        lines = {8, 64};
        rates = {0.25};
        iters = 1;
    }

    // Jobs in (line, schedule) order: the static baseline first, then
    // one job per steal rate, all sharing the seed from --steal-seed.
    std::vector<core::StudyJob> jobs;
    for (std::uint32_t line : lines) {
        core::StudyConfig config = sc; // static baseline
        jobs.push_back(core::cgStudyJob(app, iters, 1, config, line));
        jobs.back().name = "cg-" + std::to_string(line) + "B-static";
        for (double rate : rates) {
            config.scheduler.kind = replay::SchedulerKind::WorkStealing;
            config.scheduler.stealRate = rate;
            config.scheduler.stealSeed = seed;
            jobs.push_back(
                core::cgStudyJob(app, iters, 1, config, line));
            jobs.back().name =
                "cg-" + std::to_string(line) + "B-" +
                replay::schedulerSpecLabel(config.scheduler);
        }
    }

    core::StudyRunner runner(core::cliRunnerConfig(cli));
    std::vector<core::JobReport> reports = runner.run(jobs);
    for (const core::JobReport &r : reports) {
        if (!r.ok) {
            std::cerr << "study " << r.name << " failed: " << r.error
                      << "\n";
            return 1;
        }
    }

    // Per (line, rate): excess false sharing over the static baseline
    // vs the s*B budget (s = migrations, B = words per line), plus the
    // total coherence-miss excess — the full price of migration.
    stats::Table tab("false sharing under work stealing (reads+writes, "
                     "CG " +
                     std::to_string(app.n) + "^2, seed " +
                     std::to_string(seed) + ")");
    tab.header({"line", "steal rate", "migrations s", "false (static)",
                "false (steal)", "false excess", "s*B budget",
                "sharing excess"});
    const std::size_t per_line = 1 + rates.size();
    bool bound_holds = true;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const sim::ProcStats &base =
            reports[li * per_line].result.aggregate;
        std::uint64_t base_false =
            base.readFalseSharing + base.writeFalseSharing;
        std::uint64_t base_sharing =
            base.readCoherence + base.writeCoherence;
        for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            const core::JobReport &r = reports[li * per_line + 1 + ri];
            const sim::ProcStats &agg = r.result.aggregate;
            std::uint64_t stolen_false =
                agg.readFalseSharing + agg.writeFalseSharing;
            std::uint64_t stolen_sharing =
                agg.readCoherence + agg.writeCoherence;
            std::uint64_t s = r.result.schedulerMigrations;
            std::uint64_t words = lines[li] / 8;
            std::int64_t excess =
                static_cast<std::int64_t>(stolen_false) -
                static_cast<std::int64_t>(base_false);
            std::int64_t sharing_excess =
                static_cast<std::int64_t>(stolen_sharing) -
                static_cast<std::int64_t>(base_sharing);
            std::int64_t budget =
                static_cast<std::int64_t>(s * words);
            bound_holds = bound_holds && excess <= budget;
            tab.addRow(
                {stats::formatBytes(static_cast<double>(lines[li])),
                 stats::formatRate(rates[ri]), std::to_string(s),
                 std::to_string(base_false),
                 std::to_string(stolen_false), std::to_string(excess),
                 std::to_string(budget),
                 std::to_string(sharing_excess)});
        }
    }
    std::cout << tab.render() << "\n";

    std::cout << "Observations:\n";
    bench::compare("8 B lines", "zero false sharing at any steal rate",
                   "structural: one word per line, stolen or not");
    bench::compare("false excess vs s*B",
                   "at most O(s*B) extra false-sharing misses",
                   bound_holds
                       ? "the bound holds at every (rate, line) point"
                       : "BOUND VIOLATED — see the table");
    std::cout
        << "\nMigration's dominant cost here is *true* sharing — the "
           "stolen task re-fetches\nits whole partition from the "
           "previous owner's cache (the sharing-excess\ncolumn, "
           "growing with the steal rate). Per-line false sharing "
           "stays within the\nO(s*B) budget everywhere; at CG's "
           "coarse task granularity, barrier-point\nmigration even "
           "*reclassifies* boundary false sharing as true "
           "communication:\nafter a swap, the boundary words a "
           "processor misses on really were written\nby their new "
           "remote owner.\n";
    if (!bound_holds) {
        std::cerr << "error: measured false-sharing excess exceeded "
                     "the O(s*B) budget\n";
        return 1;
    }

    std::string dest = core::emitCliReport(cli, reports);
    if (!dest.empty())
        std::cerr << "wrote JSON artifact: " << dest << "\n";
    return core::reportRaceChecks(std::cout, reports) == 0 ? 0 : 1;
}
