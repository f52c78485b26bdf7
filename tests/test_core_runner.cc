/**
 * @file
 * The study runner's correctness gate: parallel execution must be
 * BYTE-IDENTICAL to serial execution — curves, knees, and aggregate
 * ProcStats — at 2, 4, and 8 workers. Also covers report ordering,
 * progress events, error isolation, and JSON emission determinism.
 */

#include <cstring>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"

using namespace wsg;
using namespace wsg::core;

namespace
{

/** Small, fast study mix covering all three curve constructions. */
std::vector<StudyJob>
smallBatch()
{
    apps::lu::LuConfig lu;
    lu.n = 64;
    lu.blockSize = 8;
    lu.procRows = 2;
    lu.procCols = 2;

    apps::cg::CgConfig cg;
    cg.n = 64;
    cg.dims = 2;
    cg.procX = 2;
    cg.procY = 2;

    apps::fft::FftConfig fft;
    fft.logN = 10;
    fft.numProcs = 4;
    fft.internalRadix = 8;

    apps::barnes::BarnesConfig barnes;
    barnes.numBodies = 256;
    barnes.numProcs = 4;
    barnes.theta = 1.0;

    return {luStudyJob(lu), cgStudyJob(cg, 2, 1), fftStudyJob(fft, 1, 1),
            barnesStudyJob(barnes, 1, 1)};
}

void
expectCurvesByteIdentical(const stats::Curve &a, const stats::Curve &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.name(), b.name());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // memcmp: "byte-identical", not merely ==.
        EXPECT_EQ(std::memcmp(&a[i].x, &b[i].x, sizeof(double)), 0)
            << "x differs at point " << i;
        EXPECT_EQ(std::memcmp(&a[i].y, &b[i].y, sizeof(double)), 0)
            << "y differs at point " << i;
    }
}

void
expectHistogramsEqual(const stats::Histogram &a,
                      const stats::Histogram &b)
{
    ASSERT_EQ(a.totalSamples(), b.totalSamples());
    ASSERT_EQ(a.infiniteSamples(), b.infiniteSamples());
    ASSERT_EQ(a.maxValue(), b.maxValue());
    for (std::uint64_t v = 0; v <= a.maxValue(); ++v)
        ASSERT_EQ(a.count(v), b.count(v)) << "bucket " << v;
}

void
expectStatsEqual(const sim::ProcStats &a, const sim::ProcStats &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.readCold, b.readCold);
    EXPECT_EQ(a.readCoherence, b.readCoherence);
    EXPECT_EQ(a.writeCold, b.writeCold);
    EXPECT_EQ(a.writeCoherence, b.writeCoherence);
    EXPECT_EQ(a.concreteReadMisses, b.concreteReadMisses);
    EXPECT_EQ(a.concreteWriteMisses, b.concreteWriteMisses);
    EXPECT_EQ(a.updatesSent, b.updatesSent);
    expectHistogramsEqual(a.readDistances, b.readDistances);
    expectHistogramsEqual(a.writeDistances, b.writeDistances);
}

void
expectResultsIdentical(const StudyResult &serial,
                       const StudyResult &parallel)
{
    expectCurvesByteIdentical(serial.curve, parallel.curve);
    ASSERT_EQ(serial.workingSets.size(), parallel.workingSets.size());
    for (std::size_t k = 0; k < serial.workingSets.size(); ++k) {
        const auto &s = serial.workingSets[k];
        const auto &p = parallel.workingSets[k];
        EXPECT_EQ(s.level, p.level);
        EXPECT_EQ(std::memcmp(&s.sizeBytes, &p.sizeBytes,
                              sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&s.coreSizeBytes, &p.coreSizeBytes,
                              sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&s.missRateBefore, &p.missRateBefore,
                              sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&s.missRateAfter, &p.missRateAfter,
                              sizeof(double)), 0);
    }
    expectStatsEqual(serial.aggregate, parallel.aggregate);
    EXPECT_EQ(serial.maxFootprintBytes, parallel.maxFootprintBytes);
    EXPECT_EQ(std::memcmp(&serial.floorRate, &parallel.floorRate,
                          sizeof(double)), 0);
}

} // namespace

TEST(StudyRunner, SerialModeRunsInlineInOrder)
{
    RunnerConfig config;
    config.jobs = 1;
    StudyRunner runner(config);
    EXPECT_EQ(runner.workerCount(), 1u);
    EXPECT_EQ(runner.pool(), nullptr);

    auto reports = runner.run(smallBatch());
    ASSERT_EQ(reports.size(), 4u);
    EXPECT_EQ(reports[0].name.rfind("LU", 0), 0u);
    EXPECT_EQ(reports[1].name.rfind("CG", 0), 0u);
    EXPECT_EQ(reports[2].name.rfind("FFT", 0), 0u);
    EXPECT_EQ(reports[3].name.rfind("Barnes", 0), 0u);
    for (const JobReport &r : reports) {
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        EXPECT_FALSE(r.result.curve.empty()) << r.name;
        EXPECT_GT(r.simRefs, 0u) << r.name;
        EXPECT_GE(r.seconds, 0.0);
    }
}

/**
 * The tentpole's correctness gate: the same studies, serial and at 2, 4,
 * and 8 workers, must produce byte-identical curves, knees, and
 * aggregate ProcStats.
 */
TEST(StudyRunner, ParallelIsByteIdenticalToSerialAt248Workers)
{
    std::vector<StudyJob> jobs = smallBatch();

    // Serial baseline through the plain run* path (no runner at all).
    std::vector<StudyResult> baseline;
    for (const StudyJob &job : jobs)
        baseline.push_back(job.body());

    for (unsigned workers : {2u, 4u, 8u}) {
        RunnerConfig config;
        config.jobs = workers;
        StudyRunner runner(config);
        ASSERT_NE(runner.pool(), nullptr);
        auto reports = runner.run(jobs);
        ASSERT_EQ(reports.size(), baseline.size());
        for (std::size_t i = 0; i < reports.size(); ++i) {
            ASSERT_TRUE(reports[i].ok)
                << workers << " workers, job " << i << ": "
                << reports[i].error;
            SCOPED_TRACE(std::to_string(workers) + " workers, job " +
                         reports[i].name);
            expectResultsIdentical(baseline[i], reports[i].result);
        }
    }
}

TEST(StudyRunner, JsonReportIsIdenticalSerialVsParallel)
{
    std::vector<StudyJob> jobs = smallBatch();

    RunnerConfig serial_config;
    serial_config.jobs = 1;
    StudyRunner serial(serial_config);
    std::string serial_json = jsonReport(serial.run(jobs));

    RunnerConfig parallel_config;
    parallel_config.jobs = 4;
    StudyRunner parallel(parallel_config);
    std::string parallel_json = jsonReport(parallel.run(jobs));

    EXPECT_EQ(serial_json, parallel_json);
    // Artifact mode excludes timings, which never serialize stably.
    EXPECT_EQ(serial_json.find("timing"), std::string::npos);
    // Timing mode includes them.
    EXPECT_NE(jsonReport(parallel.run(jobs), true).find("timing"),
              std::string::npos);
}

TEST(StudyRunner, ProgressEventsArriveForEveryJob)
{
    std::mutex m;
    std::vector<JobEvent> events;
    RunnerConfig config;
    config.jobs = 4;
    config.onProgress = [&](const JobEvent &e) {
        std::lock_guard<std::mutex> lock(m);
        events.push_back(e);
    };
    StudyRunner runner(config);
    auto reports = runner.run(smallBatch());
    ASSERT_EQ(reports.size(), 4u);

    std::set<std::size_t> started, finished;
    for (const JobEvent &e : events) {
        EXPECT_EQ(e.total, 4u);
        if (e.kind == JobEvent::Kind::Started) {
            started.insert(e.index);
        } else {
            finished.insert(e.index);
            EXPECT_GT(e.simRefs, 0u);
            EXPECT_GE(e.seconds, 0.0);
        }
    }
    EXPECT_EQ(started.size(), 4u);
    EXPECT_EQ(finished.size(), 4u);
}

TEST(StudyRunner, ThrowingJobIsIsolated)
{
    std::vector<StudyJob> jobs = smallBatch();
    StudyJob bomb;
    bomb.name = "bomb";
    bomb.body = []() -> StudyResult {
        throw std::runtime_error("boom");
    };
    jobs.insert(jobs.begin() + 1, bomb);

    RunnerConfig config;
    config.jobs = 4;
    StudyRunner runner(config);
    auto reports = runner.run(jobs);
    ASSERT_EQ(reports.size(), 5u);
    EXPECT_FALSE(reports[1].ok);
    EXPECT_EQ(reports[1].error, "boom");
    EXPECT_TRUE(reports[0].ok);
    EXPECT_TRUE(reports[2].ok);
    EXPECT_TRUE(reports[3].ok);
    EXPECT_TRUE(reports[4].ok);
}

TEST(StudyRunner, CliParsingStripsRunnerFlags)
{
    const char *raw[] = {"prog",       "positional1", "--jobs", "4",
                         "--json",     "out.json",    "--progress",
                         "positional2"};
    char *argv[8];
    for (int i = 0; i < 8; ++i)
        argv[i] = const_cast<char *>(raw[i]);
    int argc = 8;
    RunnerCli cli = parseRunnerCli(argc, argv);
    EXPECT_EQ(cli.jobs, 4u);
    EXPECT_EQ(cli.jsonPath, "out.json");
    EXPECT_TRUE(cli.progress);
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[1], "positional1");
    EXPECT_STREQ(argv[2], "positional2");

    const char *raw2[] = {"prog", "--jobs=2", "--json=-"};
    char *argv2[3];
    for (int i = 0; i < 3; ++i)
        argv2[i] = const_cast<char *>(raw2[i]);
    int argc2 = 3;
    RunnerCli cli2 = parseRunnerCli(argc2, argv2);
    EXPECT_EQ(cli2.jobs, 2u);
    EXPECT_EQ(cli2.jsonPath, "-");
    EXPECT_FALSE(cli2.progress);
    EXPECT_EQ(argc2, 1);
}

TEST(StudyRunner, CliRejectsMalformedFlagsWithCleanError)
{
    auto parse = [](std::vector<const char *> raw) {
        std::vector<char *> argv;
        for (const char *a : raw)
            argv.push_back(const_cast<char *>(a));
        int argc = static_cast<int>(argv.size());
        parseRunnerCli(argc, argv.data());
    };
    EXPECT_EXIT(parse({"prog", "--jobs"}),
                testing::ExitedWithCode(2), "--jobs needs a value");
    EXPECT_EXIT(parse({"prog", "--jobs", "abc"}),
                testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parse({"prog", "--jobs="}),
                testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parse({"prog", "--json"}),
                testing::ExitedWithCode(2), "--json needs a value");
    // The removed list-Mattson construction is an unknown kind.
    for (const char *kind : {"list-mattson", "list"})
        EXPECT_EXIT(parse({"prog", "--profiler", kind}),
                    testing::ExitedWithCode(2),
                    "error: --profiler: unknown profiler kind .*"
                    "expected tree-mattson or aet");
}

namespace
{

/**
 * The StudyConfig a parsed RunnerCli describes, read through either
 * shape of RunnerCli: one that carries a whole core::StudyConfig
 * (`study`), or one that carries the axis fields one by one. The
 * characterization tests below go through this so they pin the same
 * flag semantics across both shapes.
 */
template <typename Cli>
StudyConfig
cliStudy(const Cli &cli)
{
    if constexpr (requires { cli.study; }) {
        return cli.study;
    } else {
        StudyConfig sc;
        sc.sampling = cli.sampling;
        sc.profiler = cli.profiler;
        sc.analyzeRaces = cli.analyzeRaces;
        sc.timeoutSeconds = cli.timeoutSeconds;
        sc.protocol = cli.protocol;
        sc.hierarchy = cli.hierarchy;
        sc.scheduler = cli.scheduler;
        return sc;
    }
}

/** parseRunnerCli over "prog" + @p args; all of them must be consumed. */
StudyConfig
parseStudyFlags(const std::vector<std::string> &args)
{
    std::vector<std::string> storage{"prog"};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &s : storage)
        argv.push_back(s.data());
    int argc = static_cast<int>(argv.size());
    RunnerCli cli = parseRunnerCli(argc, argv.data());
    EXPECT_EQ(argc, 1) << "every axis flag must be consumed";
    return cliStudy(cli);
}

void
expectSameStudyAxes(const StudyConfig &got, const StudyConfig &want,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(got.sampling.mode, want.sampling.mode);
    EXPECT_EQ(got.sampling.rate, want.sampling.rate);
    EXPECT_EQ(got.sampling.maxLines, want.sampling.maxLines);
    EXPECT_EQ(got.sampling.hashSalt, want.sampling.hashSalt);
    EXPECT_EQ(got.profiler, want.profiler);
    EXPECT_EQ(got.protocol, want.protocol);
    EXPECT_EQ(got.hierarchy.kind, want.hierarchy.kind);
    EXPECT_EQ(got.hierarchy.l1Bytes, want.hierarchy.l1Bytes);
    EXPECT_EQ(got.hierarchy.l2Bytes, want.hierarchy.l2Bytes);
    EXPECT_EQ(got.scheduler.kind, want.scheduler.kind);
    EXPECT_EQ(got.scheduler.stealRate, want.scheduler.stealRate);
    EXPECT_EQ(got.scheduler.stealSeed, want.scheduler.stealSeed);
    EXPECT_EQ(got.analyzeRaces, want.analyzeRaces);
    EXPECT_EQ(got.timeoutSeconds, want.timeoutSeconds);
}

} // namespace

TEST(StudyRunner, CliAxisFlagsMapToStudyConfig)
{
    struct FlagCase
    {
        const char *flag;
        const char *value;
        std::function<void(StudyConfig &)> expect;
    };
    const std::vector<FlagCase> cases = {
        {"--profiler", "aet",
         [](StudyConfig &c) { c.profiler = memsys::ProfilerKind::Aet; }},
        {"--profiler", "tree", [](StudyConfig &) {}},
        {"--profiler", "tree-mattson", [](StudyConfig &) {}},
        {"--sample-rate", "0.25",
         [](StudyConfig &c) {
             c.sampling.mode = approx::SamplingMode::FixedRate;
             c.sampling.rate = 0.25;
         }},
        {"--sample-size", "2048",
         [](StudyConfig &c) {
             c.sampling.mode = approx::SamplingMode::FixedSize;
             c.sampling.maxLines = 2048;
         }},
        {"--protocol", "mesi",
         [](StudyConfig &c) { c.protocol = sim::CoherenceProtocol::Mesi; }},
        {"--protocol", "msi",
         [](StudyConfig &c) { c.protocol = sim::CoherenceProtocol::Msi; }},
        {"--protocol", "mi",
         [](StudyConfig &c) { c.protocol = sim::CoherenceProtocol::Mi; }},
        {"--protocol", "wu",
         [](StudyConfig &c) {
             c.protocol = sim::CoherenceProtocol::WriteUpdate;
         }},
        {"--protocol", "wi", [](StudyConfig &) {}},
        {"--hierarchy", "incl:4096:65536",
         [](StudyConfig &c) {
             c.hierarchy.kind = memsys::HierarchyKind::TwoLevelInclusive;
             c.hierarchy.l1Bytes = 4096;
             c.hierarchy.l2Bytes = 65536;
         }},
        {"--hierarchy", "excl:1024:8192",
         [](StudyConfig &c) {
             c.hierarchy.kind = memsys::HierarchyKind::TwoLevelExclusive;
             c.hierarchy.l1Bytes = 1024;
             c.hierarchy.l2Bytes = 8192;
         }},
        {"--hierarchy", "single", [](StudyConfig &) {}},
        {"--scheduler", "rr",
         [](StudyConfig &c) {
             c.scheduler.kind = replay::SchedulerKind::RoundRobin;
         }},
        {"--scheduler", "steal:r0.25:s1",
         [](StudyConfig &c) {
             c.scheduler.kind = replay::SchedulerKind::WorkStealing;
             c.scheduler.stealRate = 0.25;
             c.scheduler.stealSeed = 1;
         }},
        {"--scheduler", "ws",
         [](StudyConfig &c) {
             c.scheduler.kind = replay::SchedulerKind::WorkStealing;
         }},
        {"--scheduler", "static", [](StudyConfig &) {}},
        {"--steal-rate", "0.5",
         [](StudyConfig &c) { c.scheduler.stealRate = 0.5; }},
        {"--steal-seed", "7",
         [](StudyConfig &c) { c.scheduler.stealSeed = 7; }},
        {"--timeout", "30",
         [](StudyConfig &c) { c.timeoutSeconds = 30.0; }},
    };
    for (const FlagCase &fc : cases) {
        StudyConfig want;
        fc.expect(want);
        std::string spelled = std::string(fc.flag) + " " + fc.value;
        expectSameStudyAxes(parseStudyFlags({fc.flag, fc.value}), want,
                            spelled);
        expectSameStudyAxes(
            parseStudyFlags({std::string(fc.flag) + "=" + fc.value}),
            want, std::string(fc.flag) + "=" + fc.value);
    }

    StudyConfig races;
    races.analyzeRaces = true;
    expectSameStudyAxes(parseStudyFlags({"--analyze-races"}), races,
                        "--analyze-races");

    // --steal-rate / --steal-seed override --scheduler in either order.
    StudyConfig stealing;
    stealing.scheduler.kind = replay::SchedulerKind::WorkStealing;
    stealing.scheduler.stealRate = 0.5;
    stealing.scheduler.stealSeed = 9;
    expectSameStudyAxes(
        parseStudyFlags({"--steal-rate", "0.5", "--steal-seed=9",
                         "--scheduler", "steal"}),
        stealing, "modifiers before --scheduler");
    expectSameStudyAxes(
        parseStudyFlags({"--scheduler=steal:r0.1:s3", "--steal-rate",
                         "0.5", "--steal-seed", "9"}),
        stealing, "modifiers after --scheduler");

    // Every axis at once, mixed with the other runner flags.
    StudyConfig all;
    all.sampling.mode = approx::SamplingMode::FixedSize;
    all.sampling.maxLines = 4096;
    all.protocol = sim::CoherenceProtocol::Msi;
    all.hierarchy.kind = memsys::HierarchyKind::TwoLevelInclusive;
    all.hierarchy.l1Bytes = 4096;
    all.hierarchy.l2Bytes = 65536;
    all.scheduler.kind = replay::SchedulerKind::RoundRobin;
    all.analyzeRaces = true;
    all.timeoutSeconds = 5.0;
    expectSameStudyAxes(
        parseStudyFlags({"--jobs", "2", "--sample-size", "4096",
                         "--protocol=msi", "--hierarchy",
                         "incl:4096:65536", "--scheduler", "rr",
                         "--analyze-races", "--timeout=5",
                         "--profiler", "tree"}),
        all, "every axis");
}

TEST(StudyRunner, CliRejectsBadAxisValuesAndCombinations)
{
    auto parse = [](std::vector<const char *> raw) {
        std::vector<char *> argv{const_cast<char *>("prog")};
        for (const char *a : raw)
            argv.push_back(const_cast<char *>(a));
        int argc = static_cast<int>(argv.size());
        parseRunnerCli(argc, argv.data());
    };
    const char *aet = "error: --profiler aet does not compose with "
                      "sampling";
    EXPECT_EXIT(parse({"--profiler", "aet", "--sample-rate", "0.1"}),
                testing::ExitedWithCode(2), aet);
    EXPECT_EXIT(parse({"--sample-rate", "0.1", "--profiler", "aet"}),
                testing::ExitedWithCode(2), aet);
    EXPECT_EXIT(parse({"--profiler=aet", "--sample-size=64"}),
                testing::ExitedWithCode(2), aet);
    EXPECT_EXIT(parse({"--sample-size", "64", "--profiler", "aet"}),
                testing::ExitedWithCode(2), aet);

    const char *both = "error: --sample-rate and --sample-size are "
                       "mutually exclusive";
    EXPECT_EXIT(parse({"--sample-rate", "0.1", "--sample-size", "64"}),
                testing::ExitedWithCode(2), both);
    EXPECT_EXIT(parse({"--sample-size", "64", "--sample-rate", "0.1"}),
                testing::ExitedWithCode(2), both);

    EXPECT_EXIT(parse({"--steal-rate", "1.5"}),
                testing::ExitedWithCode(2),
                "error: --steal-rate needs a rate in \\[0, 1\\], got "
                "'1.5'");
    EXPECT_EXIT(parse({"--steal-seed", "x"}),
                testing::ExitedWithCode(2),
                "error: --steal-seed needs a non-negative integer, got "
                "'x'");
    EXPECT_EXIT(parse({"--protocol", "moesi"}),
                testing::ExitedWithCode(2),
                "error: --protocol: unknown coherence protocol 'moesi'");
    EXPECT_EXIT(parse({"--hierarchy", "incl:65536:4096"}),
                testing::ExitedWithCode(2),
                "error: --hierarchy: hierarchy 'incl:65536:4096': L2 "
                "must be larger than L1");
    EXPECT_EXIT(parse({"--hierarchy=incl:4096"}),
                testing::ExitedWithCode(2),
                "error: --hierarchy: hierarchy 'incl:4096' needs two "
                "sizes");
    EXPECT_EXIT(parse({"--scheduler", "bogus"}),
                testing::ExitedWithCode(2),
                "error: --scheduler: unknown scheduler 'bogus'");
    EXPECT_EXIT(parse({"--sample-rate", "0"}),
                testing::ExitedWithCode(2),
                "error: --sample-rate needs a rate in \\(0, 1\\], got "
                "'0'");
    EXPECT_EXIT(parse({"--sample-size=0"}), testing::ExitedWithCode(2),
                "error: --sample-size needs a positive line count, got "
                "'0'");
    EXPECT_EXIT(parse({"--timeout", "0"}), testing::ExitedWithCode(2),
                "error: --timeout needs a positive number of seconds, "
                "got '0'");
    EXPECT_EXIT(parse({"--profiler"}), testing::ExitedWithCode(2),
                "error: --profiler needs a value");
    EXPECT_EXIT(parse({"--sample-size"}), testing::ExitedWithCode(2),
                "error: --sample-size needs a value");
}
