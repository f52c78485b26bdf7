/**
 * @file
 * The study runner's correctness gate: parallel execution must be
 * BYTE-IDENTICAL to serial execution — curves, knees, and aggregate
 * ProcStats — at 2, 4, and 8 workers. Also covers report ordering,
 * progress events, error isolation, and JSON emission determinism.
 */

#include <cstring>
#include <mutex>
#include <set>

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
