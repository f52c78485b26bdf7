#include "core/study_runner.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/study_axes.hh"
#include "stats/hash.hh"
#include "stats/json_report.hh"
#include "stats/units.hh"

namespace wsg::core
{

namespace
{

/**
 * The shared single-job execution path: time the body, capture
 * failures (the watchdog's typed timeout separately), and stamp the
 * canonical-config hash. Used by StudyRunner::runOne and by
 * runJobInline so the serving layer and the batch runner produce
 * identical reports for identical jobs.
 */
JobReport
executeJob(const StudyJob &job)
{
    JobReport report;
    report.name = job.name;
    if (!job.canonicalConfig.empty())
        report.configHash = stats::fnv1a64Hex(job.canonicalConfig);

    auto t0 = std::chrono::steady_clock::now();
    try {
        report.result = job.body();
        report.ok = true;
    } catch (const StudyTimeoutError &e) {
        report.error = e.what();
        report.timedOut = true;
    } catch (const std::exception &e) {
        report.error = e.what();
    } catch (...) {
        report.error = "unknown exception";
    }
    auto t1 = std::chrono::steady_clock::now();

    report.seconds = std::chrono::duration<double>(t1 - t0).count();
    report.simRefs =
        report.result.aggregate.reads + report.result.aggregate.writes;
    report.refsPerSec =
        report.seconds > 0.0
            ? static_cast<double>(report.simRefs) / report.seconds
            : 0.0;
    return report;
}

} // namespace

JobReport
runJobInline(const StudyJob &job)
{
    return executeJob(job);
}

StudyRunner::StudyRunner(const RunnerConfig &config)
    : workers_(config.jobs == 0 ? ThreadPool::hardwareThreads()
                                : config.jobs),
      onProgress_(config.onProgress)
{
    if (workers_ > 1)
        pool_ = std::make_unique<ThreadPool>(workers_);
}

StudyRunner::~StudyRunner() = default;

void
StudyRunner::emit(const JobEvent &event)
{
    if (!onProgress_)
        return;
    std::lock_guard<std::mutex> lock(progressMutex_);
    onProgress_(event);
}

JobReport
StudyRunner::runOne(const StudyJob &job, std::size_t index,
                    std::size_t total)
{
    JobEvent started;
    started.kind = JobEvent::Kind::Started;
    started.index = index;
    started.total = total;
    started.name = job.name;
    emit(started);

    JobReport report = executeJob(job);

    JobEvent finished;
    finished.kind = JobEvent::Kind::Finished;
    finished.index = index;
    finished.total = total;
    finished.name = job.name;
    finished.seconds = report.seconds;
    finished.simRefs = report.simRefs;
    finished.refsPerSec = report.refsPerSec;
    emit(finished);
    return report;
}

std::vector<JobReport>
StudyRunner::run(const std::vector<StudyJob> &jobs)
{
    std::size_t n = jobs.size();
    if (!pool_) {
        std::vector<JobReport> reports;
        reports.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            reports.push_back(runOne(jobs[i], i, n));
        return reports;
    }

    // One cache-line-aligned slot per job so concurrently finishing
    // workers never write into the same line (host false sharing).
    struct alignas(64) Slot
    {
        JobReport report;
    };
    std::vector<Slot> slots(n);
    std::atomic<std::size_t> remaining{n};
    std::mutex done_mutex;
    std::condition_variable done_cv;

    for (std::size_t i = 0; i < n; ++i) {
        pool_->submit([this, &jobs, &slots, &remaining, &done_mutex,
                       &done_cv, i, n]() {
            slots[i].report = runOne(jobs[i], i, n);
            if (remaining.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
                std::lock_guard<std::mutex> lock(done_mutex);
                done_cv.notify_all();
            }
        });
    }
    {
        std::unique_lock<std::mutex> lock(done_mutex);
        done_cv.wait(lock, [&remaining] {
            return remaining.load(std::memory_order_acquire) == 0;
        });
    }

    std::vector<JobReport> reports;
    reports.reserve(n);
    for (Slot &slot : slots)
        reports.push_back(std::move(slot.report));
    return reports;
}

namespace
{

void
writeSharingSummaries(stats::JsonWriter &w,
                      const std::vector<sim::SharingSummary> &summaries)
{
    w.beginArray();
    for (const sim::SharingSummary &s : summaries) {
        w.beginObject();
        w.member("name", s.name);
        w.member("reads", s.reads);
        w.member("writes", s.writes);
        w.member("read_cold", s.readCold);
        w.member("write_cold", s.writeCold);
        w.member("read_true_sharing", s.readTrueSharing);
        w.member("read_false_sharing", s.readFalseSharing);
        w.member("write_true_sharing", s.writeTrueSharing);
        w.member("write_false_sharing", s.writeFalseSharing);
        std::uint64_t refs = s.reads + s.writes;
        w.member("sharing_miss_rate",
                 refs > 0 ? static_cast<double>(s.sharingMisses()) /
                                static_cast<double>(refs)
                          : 0.0);
        w.endObject();
    }
    w.endArray();
}

/**
 * The v2 miss_classes block: per-category read-miss curves over the
 * study's cache-size sweep (cold + capacity + true_sharing +
 * false_sharing == total at every size) plus the size-independent
 * per-processor and per-array attribution.
 */
void
writeMissClasses(stats::JsonWriter &w, const StudyResult &result)
{
    const sim::MissClassCurves &mc = result.missClasses;
    w.key("miss_classes");
    w.beginObject();
    w.key("cache_sizes_bytes");
    w.beginArray();
    for (std::uint64_t b : mc.cacheSizesBytes)
        w.value(b);
    w.endArray();
    auto write_category =
        [&](const char *name, double sim::MissClassPoint::*field) {
            w.key(name);
            w.beginArray();
            for (const sim::MissClassPoint &p : mc.points)
                w.value(p.*field);
            w.endArray();
        };
    write_category("cold", &sim::MissClassPoint::cold);
    write_category("capacity", &sim::MissClassPoint::capacity);
    write_category("true_sharing", &sim::MissClassPoint::trueSharing);
    write_category("false_sharing", &sim::MissClassPoint::falseSharing);
    w.key("total");
    w.beginArray();
    for (const sim::MissClassPoint &p : mc.points)
        w.value(p.total());
    w.endArray();
    w.key("per_proc");
    writeSharingSummaries(w, result.perProc);
    w.key("per_array");
    writeSharingSummaries(w, result.perArray);
    w.endObject();
}

} // namespace

void
writeJsonReport(std::ostream &os,
                const std::vector<JobReport> &reports,
                bool include_timings)
{
    stats::JsonWriter w(os);
    w.beginObject();
    // v3: studies that ran off the default machine axes additionally
    // carry a protocol string, invalidations_sent/upgrades_sent in the
    // aggregate, a node_hierarchy block, and a scheduler block.
    // Default-axes documents differ from v2 in this schema string
    // alone.
    w.member("schema", "wsg-study-report-v3");
    w.key("studies");
    w.beginArray();
    for (const JobReport &r : reports) {
        w.beginObject();
        w.member("name", r.name);
        w.member("ok", r.ok);
        if (!r.ok)
            w.member("error", r.error);
        if (r.timedOut)
            w.member("timed_out", true);
        if (!r.configHash.empty())
            w.member("config_hash", r.configHash);
        w.key("curve");
        stats::writeCurve(w, r.result.curve);
        w.key("working_sets");
        stats::writeWorkingSets(w, r.result.workingSets);
        w.member("max_footprint_bytes", r.result.maxFootprintBytes);
        w.member("floor_rate", r.result.floorRate);
        bool off_default_protocol =
            r.result.protocol !=
            sim::CoherenceProtocol::WriteInvalidate;
        if (off_default_protocol)
            w.member("protocol",
                     sim::coherenceProtocolName(r.result.protocol));
        w.key("aggregate");
        w.beginObject();
        const sim::ProcStats &agg = r.result.aggregate;
        w.member("reads", agg.reads);
        w.member("writes", agg.writes);
        w.member("read_cold", agg.readCold);
        w.member("read_coherence", agg.readCoherence);
        w.member("write_cold", agg.writeCold);
        w.member("write_coherence", agg.writeCoherence);
        w.member("read_true_sharing", agg.readTrueSharing);
        w.member("read_false_sharing", agg.readFalseSharing);
        w.member("write_true_sharing", agg.writeTrueSharing);
        w.member("write_false_sharing", agg.writeFalseSharing);
        w.member("updates_sent", agg.updatesSent);
        if (off_default_protocol) {
            w.member("invalidations_sent", agg.invalidationsSent);
            w.member("upgrades_sent", agg.upgradesSent);
        }
        w.endObject();
        writeMissClasses(w, r.result);
        if (r.result.hierarchySpec.twoLevel()) {
            w.key("node_hierarchy");
            w.beginObject();
            w.member("spec",
                     memsys::hierarchyLabel(r.result.hierarchySpec));
            w.member("accesses", r.result.nodeHierarchy.accesses);
            w.member("l1_misses", r.result.nodeHierarchy.l1Misses);
            w.member("l2_misses", r.result.nodeHierarchy.l2Misses);
            w.endObject();
        }
        if (r.result.scheduler.kind != replay::SchedulerKind::Static) {
            w.key("scheduler");
            w.beginObject();
            w.member("policy",
                     replay::schedulerKindName(r.result.scheduler.kind));
            if (r.result.scheduler.kind ==
                replay::SchedulerKind::WorkStealing) {
                w.member("steal_rate", r.result.scheduler.stealRate);
                w.member("steal_seed", r.result.scheduler.stealSeed);
            }
            w.member("intervals", r.result.schedulerIntervals);
            w.member("migrations", r.result.schedulerMigrations);
            w.endObject();
        }
        const approx::SamplingDiagnostics &samp = r.result.sampling;
        w.member("profiler", memsys::profilerKindName(samp.profiler));
        w.member("profiler_bytes", samp.profilerBytes);
        if (samp.config.enabled()) {
            w.key("sampling");
            w.beginObject();
            w.member("mode",
                     approx::samplingModeName(samp.config.mode));
            if (samp.config.mode == approx::SamplingMode::FixedRate)
                w.member("rate", samp.config.rate);
            else
                w.member("max_lines", samp.config.maxLines);
            w.member("effective_rate", samp.effectiveRate);
            w.member("total_refs", samp.totalRefs);
            w.member("sampled_refs", samp.sampledRefs);
            w.member("sampled_lines", samp.sampledLines);
            w.endObject();
        }
        if (include_timings) {
            w.key("timing");
            w.beginObject();
            w.member("seconds", r.seconds);
            w.member("sim_refs", r.simRefs);
            w.member("refs_per_sec", r.refsPerSec);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

std::string
jsonReport(const std::vector<JobReport> &reports, bool include_timings)
{
    std::ostringstream os;
    writeJsonReport(os, reports, include_timings);
    return os.str();
}

RunnerCli
parseRunnerCli(int &argc, char **argv)
{
    RunnerCli cli;
    AxisInputSet given = 0;
    auto fail = [](const std::string &message) {
        std::cerr << "error: " << message << "\n";
        std::exit(2);
    };
    auto parse_jobs = [&](const std::string &text) -> unsigned {
        char *end = nullptr;
        unsigned long v = std::strtoul(text.c_str(), &end, 10);
        if (text.empty() || end != text.c_str() + text.size())
            fail("--jobs needs a non-negative integer, got '" + text +
                 "'");
        return static_cast<unsigned>(v);
    };
    auto parse_timeout = [&](const std::string &text) {
        char *end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (text.empty() || end != text.c_str() + text.size() ||
            !(v > 0.0))
            fail("--timeout needs a positive number of seconds, got '" +
                 text + "'");
        return v;
    };
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // "--flag V" or "--flag=V": set value to V and return true.
        std::string value;
        auto flag_value = [&](const std::string &flag) {
            if (arg == flag) {
                if (i + 1 >= argc)
                    fail(flag + " needs a value");
                value = argv[++i];
                return true;
            }
            if (arg.size() <= flag.size() || arg[flag.size()] != '=' ||
                arg.compare(0, flag.size(), flag) != 0)
                return false;
            value = arg.substr(flag.size() + 1);
            return true;
        };
        if (arg == "--progress") {
            cli.progress = true;
        } else if (arg == "--analyze-races") {
            cli.study.analyzeRaces = true;
        } else if (flag_value("--jobs")) {
            cli.jobs = parse_jobs(value);
        } else if (flag_value("--json")) {
            cli.jsonPath = value;
        } else if (flag_value("--timeout")) {
            cli.study.timeoutSeconds = parse_timeout(value);
        } else {
            std::size_t k = 0;
            while (k < kAxisInputs.size() &&
                   !flag_value(kAxisInputs[k].flag))
                ++k;
            if (k == kAxisInputs.size()) {
                argv[out++] = argv[i];
                continue;
            }
            try {
                applyAxisInput(kAxisInputs[k], cli.study, value,
                               kAxisInputs[k].flag);
            } catch (const std::invalid_argument &e) {
                fail(e.what());
            }
            given |= AxisInputSet{1} << k;
        }
    }
    argc = out;
    try {
        checkAxisCombination(cli.study, given, false);
    } catch (const std::invalid_argument &e) {
        fail(e.what());
    }
    return cli;
}

RunnerConfig
cliRunnerConfig(const RunnerCli &cli)
{
    RunnerConfig config;
    config.jobs = cli.jobs;
    if (cli.progress) {
        config.onProgress = [](const JobEvent &e) {
            if (e.kind == JobEvent::Kind::Started) {
                std::cerr << "[" << e.index + 1 << "/" << e.total
                          << "] " << e.name << " ...\n";
            } else {
                std::cerr << "[" << e.index + 1 << "/" << e.total
                          << "] " << e.name << " done in " << e.seconds
                          << " s ("
                          << stats::formatCount(e.refsPerSec)
                          << " simulated refs/s)\n";
            }
        };
    }
    return config;
}

std::string
emitCliReport(const RunnerCli &cli,
              const std::vector<JobReport> &reports)
{
    if (cli.jsonPath.empty())
        return "";
    if (cli.jsonPath == "-") {
        writeJsonReport(std::cout, reports);
        return "stdout";
    }
    std::ofstream file(cli.jsonPath);
    if (!file) {
        std::cerr << "error: cannot open JSON report path: "
                  << cli.jsonPath << "\n";
        std::exit(2);
    }
    writeJsonReport(file, reports);
    return cli.jsonPath;
}

std::size_t
reportRaceChecks(std::ostream &os,
                 const std::vector<JobReport> &reports)
{
    std::size_t racy = 0;
    bool any = false;
    for (const JobReport &report : reports) {
        if (!report.result.races.enabled)
            continue;
        if (!any) {
            os << "\nhappens-before race check:\n";
            any = true;
        }
        os << report.name << ": "
           << analysis::describeRaceCheck(report.result.races);
        if (!report.result.races.clean())
            ++racy;
    }
    if (any) {
        os << (racy == 0 ? "race check: all studies clean\n"
                         : "race check: " + std::to_string(racy) +
                               " study(ies) report races\n");
    }
    return racy;
}

} // namespace wsg::core
