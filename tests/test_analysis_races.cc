/**
 * @file
 * Tests for the happens-before race detector and its two delivery
 * paths: live (StudyConfig::analyzeRaces teeing the reference stream)
 * and offline (analysis::analyzeTraceFile over a recorded .wsgtrace).
 *
 * The contract under test, in order: injected unordered conflicting
 * pairs are flagged with correct array attribution, annotated ordering
 * (barriers, lock chains) suppresses exactly those reports, all nine
 * golden application studies are race-free, and the report is
 * byte-identical at any StudyRunner worker count.
 */

#include <cstdio>
#include <sstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/race_detector.hh"
#include "analysis/trace_analysis.hh"
#include "core/presets.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "trace/address_space.hh"
#include "trace/sinks.hh"
#include "trace/trace_file.hh"

using namespace wsg;
using analysis::RaceConfig;
using analysis::RaceDetector;

namespace
{

RaceDetector
makeDetector(std::uint32_t num_procs)
{
    RaceConfig config;
    config.numProcs = num_procs;
    return RaceDetector(config);
}

} // namespace

// ---------------------------------------------------------------------
// Injected races: the detector must flag them and name the array.
// ---------------------------------------------------------------------

TEST(RaceDetector, FlagsUnorderedWriteWriteWithArrayAttribution)
{
    trace::SharedAddressSpace space;
    trace::Addr base = space.allocate("lu.matrix", 4096);
    RaceDetector det = makeDetector(4);
    det.attachAddressSpace(&space);

    det.write(0, base + 64, 8);
    det.write(1, base + 64, 8); // no sync between: a race

    analysis::RaceCheckResult r = det.result();
    EXPECT_FALSE(r.clean());
    ASSERT_EQ(r.findings.size(), 1u);
    const analysis::RaceFinding &f = r.findings[0];
    EXPECT_EQ(f.array, "lu.matrix");
    EXPECT_EQ(f.wordAddr, base + 64);
    EXPECT_EQ(f.prior.pid, 0u);
    EXPECT_TRUE(f.prior.isWrite);
    EXPECT_EQ(f.current.pid, 1u);
    EXPECT_TRUE(f.current.isWrite);
    EXPECT_EQ(r.raceOccurrences, 1u);
}

TEST(RaceDetector, FlagsUnorderedWriteReadBothDirections)
{
    trace::SharedAddressSpace space;
    trace::Addr base = space.allocate("cg.x", 1024);
    RaceDetector det = makeDetector(2);
    det.attachAddressSpace(&space);

    det.write(0, base, 8); // write then unordered read
    det.read(1, base, 8);
    det.read(1, base + 512, 8); // read then unordered write
    det.write(0, base + 512, 8);

    analysis::RaceCheckResult r = det.result();
    ASSERT_EQ(r.findings.size(), 2u);
    EXPECT_EQ(r.findings[0].array, "cg.x");
    EXPECT_TRUE(r.findings[0].prior.isWrite);
    EXPECT_FALSE(r.findings[0].current.isWrite);
    EXPECT_FALSE(r.findings[1].prior.isWrite);
    EXPECT_TRUE(r.findings[1].current.isWrite);
}

TEST(RaceDetector, AttributesUnmappedAddresses)
{
    trace::SharedAddressSpace space;
    space.allocate("a", 64);
    RaceDetector det = makeDetector(2);
    det.attachAddressSpace(&space);

    det.write(0, 1 << 20, 8); // outside every segment
    det.write(1, 1 << 20, 8);
    analysis::RaceCheckResult r = det.result();
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].array, "(unmapped)");
}

TEST(RaceDetector, BarrierOrdersConflictingAccesses)
{
    RaceDetector det = makeDetector(4);
    det.write(0, 0x100, 8);
    det.barrier();
    det.write(1, 0x100, 8); // ordered by the barrier
    det.read(2, 0x100, 8);  // unordered with p1's write: a race
    analysis::RaceCheckResult r = det.result();
    EXPECT_EQ(r.barriers, 1u);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].prior.pid, 1u);
    EXPECT_EQ(r.findings[0].prior.phase, 1u);
    EXPECT_EQ(r.findings[0].current.pid, 2u);
    EXPECT_EQ(r.findings[0].current.phase, 1u);
}

TEST(RaceDetector, LockChainOrdersHandoff)
{
    constexpr std::uint64_t kLock = 0xAB;
    RaceDetector det = makeDetector(2);
    det.write(0, 0x40, 8);
    det.lockRelease(0, kLock);
    det.lockAcquire(1, kLock);
    det.write(1, 0x40, 8); // ordered through the lock
    EXPECT_TRUE(det.result().clean());
    EXPECT_EQ(det.result().lockOps, 2u);
}

TEST(RaceDetector, DifferentLockDoesNotOrder)
{
    RaceDetector det = makeDetector(2);
    det.write(0, 0x40, 8);
    det.lockRelease(0, 1);
    det.lockAcquire(1, 2); // a *different* lock: no ordering
    det.write(1, 0x40, 8);
    EXPECT_FALSE(det.result().clean());
}

TEST(RaceDetector, ConcurrentReadsAreNotRaces)
{
    RaceDetector det = makeDetector(4);
    for (trace::ProcId p = 0; p < 4; ++p)
        det.read(p, 0x80, 8);
    EXPECT_TRUE(det.result().clean());

    // ...but a later unordered write races every one of those reads.
    det.write(0, 0x80, 8);
    EXPECT_EQ(det.result().findings.size(), 3u); // vs p1, p2, p3
}

TEST(RaceDetector, ConflictGranularityIsTheConfiguredWord)
{
    RaceDetector det = makeDetector(2); // wordBytes = 8
    det.write(0, 0x00, 8);
    det.write(1, 0x08, 8); // adjacent word: no conflict
    EXPECT_TRUE(det.result().clean());

    det.write(0, 0x10, 16); // spans words 0x10 and 0x18
    det.write(1, 0x18, 8);  // overlaps the second word only
    analysis::RaceCheckResult r = det.result();
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].wordAddr, 0x18u);
}

TEST(RaceDetector, DeduplicatesRepeatedPairsAndCountsOccurrences)
{
    RaceDetector det = makeDetector(2);
    for (int i = 0; i < 5; ++i) {
        det.write(0, 0x40, 8);
        det.write(1, 0x40, 8);
    }
    analysis::RaceCheckResult r = det.result();
    ASSERT_EQ(r.findings.size(), 2u); // (p0 vs p1) and (p1 vs p0)
    EXPECT_EQ(r.raceOccurrences, 9u);
    EXPECT_EQ(r.findings[0].count + r.findings[1].count, 9u);
}

TEST(RaceDetector, CapsFindingsButKeepsCounting)
{
    RaceConfig config;
    config.numProcs = 2;
    config.maxFindings = 1;
    RaceDetector det(config);
    det.write(0, 0x00, 8);
    det.write(1, 0x00, 8);
    det.write(0, 0x40, 8);
    det.write(1, 0x40, 8);
    analysis::RaceCheckResult r = det.result();
    EXPECT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findingsDropped, 1u);
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.raceOccurrences, 2u);
}

TEST(RaceDetector, RejectsOutOfRangeProcessorIds)
{
    RaceDetector det = makeDetector(2);
    EXPECT_THROW(det.write(2, 0x40, 8), std::runtime_error);
    EXPECT_THROW(det.lockAcquire(7, 1), std::runtime_error);
    EXPECT_THROW(det.lockRelease(7, 1), std::runtime_error);
}

TEST(RaceDetector, DescribeNamesArrayProcessorsAndPhase)
{
    trace::SharedAddressSpace space;
    trace::Addr base = space.allocate("barnes.bodies", 512);
    RaceDetector det = makeDetector(4);
    det.attachAddressSpace(&space);
    det.barrier();
    det.write(2, base, 8);
    det.write(3, base, 8);

    std::string text = analysis::describeRaceCheck(det.result());
    EXPECT_NE(text.find("[barnes.bodies]"), std::string::npos) << text;
    EXPECT_NE(text.find("write by p2 in phase 1"), std::string::npos)
        << text;
    EXPECT_NE(text.find("write by p3 in phase 1"), std::string::npos)
        << text;

    std::string clean =
        analysis::describeRaceCheck(makeDetector(1).result());
    EXPECT_NE(clean.find("no data races detected"), std::string::npos);
}

// ---------------------------------------------------------------------
// Offline path: record a trace, analyze the file.
// ---------------------------------------------------------------------

namespace
{

class TraceAnalysisTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Keyed by test name AND pid: ctest runs each TEST_F as its
        // own process, possibly concurrently (see test_trace_file.cc).
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "wsg_races_" +
                std::string(info->name()) + "_" +
                std::to_string(::getpid()) + ".bin";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

} // namespace

TEST_F(TraceAnalysisTest, FlagsInjectedRaceInRecordedTrace)
{
    trace::SharedAddressSpace space;
    trace::Addr base = space.allocate("demo.data", 256);
    {
        trace::TraceWriter writer(path_, 2);
        writer.attachAddressSpace(&space);
        writer.write(0, base, 8);
        writer.barrier();
        writer.write(1, base, 8);  // ordered: fine
        writer.write(0, base + 64, 8);
        writer.write(1, base + 64, 8); // unordered: the injected race
    }

    analysis::TraceAnalysis a = analysis::analyzeTraceFile(path_);
    EXPECT_EQ(a.numProcs, 2u);
    EXPECT_EQ(a.records, 5u);
    EXPECT_EQ(a.segments, 1u);
    EXPECT_TRUE(a.finalized);
    ASSERT_EQ(a.races.findings.size(), 1u);
    EXPECT_EQ(a.races.findings[0].array, "demo.data");
    EXPECT_EQ(a.races.findings[0].wordAddr, base + 64);

    std::string text = analysis::describeTraceAnalysis(path_, a);
    EXPECT_NE(text.find("[demo.data]"), std::string::npos) << text;
}

TEST_F(TraceAnalysisTest, CleanAnnotatedTraceAnalyzesClean)
{
    {
        trace::TraceWriter writer(path_, 4);
        for (int round = 0; round < 3; ++round) {
            for (trace::ProcId p = 0; p < 4; ++p)
                writer.write(p, 0x1000 + 8 * ((p + round) % 4), 8);
            writer.barrier();
        }
    }
    analysis::TraceAnalysis a = analysis::analyzeTraceFile(path_);
    EXPECT_TRUE(a.races.clean());
    EXPECT_EQ(a.races.barriers, 3u);
    EXPECT_EQ(a.segments, 0u); // no table attached
}

TEST_F(TraceAnalysisTest, HonorsWordBytesAndTakesProcsFromHeader)
{
    {
        trace::TraceWriter writer(path_, 2);
        writer.write(0, 0x100, 4);
        writer.write(1, 0x104, 4); // same 8-byte word, distinct 4-byte
    }
    analysis::RaceConfig config;
    config.numProcs = 99; // must be ignored in favor of the header
    config.wordBytes = 4;
    analysis::TraceAnalysis a =
        analysis::analyzeTraceFile(path_, config);
    EXPECT_EQ(a.races.numProcs, 2u);
    EXPECT_EQ(a.races.wordBytes, 4u);
    EXPECT_TRUE(a.races.clean()); // 4-byte words: no overlap

    analysis::TraceAnalysis coarse = analysis::analyzeTraceFile(path_);
    EXPECT_FALSE(coarse.races.clean()); // 8-byte words: same word
}

TEST_F(TraceAnalysisTest, ThrowsOnMissingFile)
{
    EXPECT_THROW(analysis::analyzeTraceFile("/nonexistent/trace.bin"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// The nine golden application studies are race-free.
// ---------------------------------------------------------------------

namespace
{

core::StudyConfig
raceCheckedStudy()
{
    core::StudyConfig sc;
    sc.analyzeRaces = true;
    return sc;
}

void
expectClean(const core::StudyResult &result, const char *what)
{
    EXPECT_TRUE(result.races.enabled) << what;
    EXPECT_TRUE(result.races.clean())
        << what << ":\n"
        << analysis::describeRaceCheck(result.races);
    EXPECT_GT(result.races.refsChecked, 0u) << what;
    EXPECT_GT(result.races.barriers, 0u) << what;
}

} // namespace

TEST(GoldenStudiesRaceFree, BlockedLu)
{
    expectClean(core::runLuStudy(core::presets::simLu(),
                                 raceCheckedStudy()),
                "lu");
}

TEST(GoldenStudiesRaceFree, BlockedCholesky)
{
    expectClean(core::runCholeskyStudy(core::presets::simCholesky(),
                                       raceCheckedStudy()),
                "cholesky");
}

TEST(GoldenStudiesRaceFree, GridCg)
{
    expectClean(core::runCgStudy(core::presets::simCg2d(), 2, 1,
                                 raceCheckedStudy()),
                "cg");
}

TEST(GoldenStudiesRaceFree, UnstructuredCg)
{
    expectClean(core::runUnstructuredStudy(
                    core::presets::simUnstructured(), 2, 1,
                    raceCheckedStudy()),
                "ucg");
}

TEST(GoldenStudiesRaceFree, ParallelFft)
{
    expectClean(core::runFftStudy(core::presets::simFft(), 1, 1,
                                  raceCheckedStudy()),
                "fft");
}

TEST(GoldenStudiesRaceFree, Fft2d)
{
    expectClean(core::runFft2dStudy(core::presets::simFft2d(), 1, 1,
                                    raceCheckedStudy()),
                "fft2d");
}

TEST(GoldenStudiesRaceFree, Fft3d)
{
    expectClean(core::runFft3dStudy(core::presets::simFft3d(), 1, 1,
                                    raceCheckedStudy()),
                "fft3d");
}

TEST(GoldenStudiesRaceFree, BarnesHut)
{
    core::StudyResult result = core::runBarnesStudy(
        core::presets::simBarnesFig6(), 1, 1, raceCheckedStudy());
    expectClean(result, "barnes");
    // Barnes-Hut is the lock-using application: the moment pass
    // annotates per-cell locks, so its stream must carry lock ops.
    EXPECT_GT(result.races.lockOps, 0u);
}

TEST(GoldenStudiesRaceFree, Volrend)
{
    expectClean(core::runVolrendStudy(core::presets::simVolrendDims(),
                                      core::presets::simVolrendRender(),
                                      1, 1, raceCheckedStudy()),
                "volrend");
}

TEST(GoldenStudiesRaceFree, DisabledByDefault)
{
    apps::lu::LuConfig cfg;
    cfg.n = 32;
    cfg.blockSize = 8;
    cfg.procRows = 2;
    cfg.procCols = 2;
    core::StudyResult result = core::runLuStudy(cfg);
    EXPECT_FALSE(result.races.enabled);
    EXPECT_EQ(result.races.refsChecked, 0u);
}

// ---------------------------------------------------------------------
// Determinism: the race report is byte-identical at any worker count.
// ---------------------------------------------------------------------

namespace
{

/** A small four-application batch with the race check on. */
std::vector<core::StudyJob>
raceCheckedBatch()
{
    core::StudyConfig sc = raceCheckedStudy();

    apps::lu::LuConfig lu;
    lu.n = 64;
    lu.blockSize = 8;
    lu.procRows = 2;
    lu.procCols = 2;

    apps::cg::CgConfig cg;
    cg.n = 32;
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

    std::vector<core::StudyJob> jobs;
    jobs.push_back(core::luStudyJob(lu, sc));
    jobs.push_back(core::cgStudyJob(cg, 2, 1, sc));
    jobs.push_back(core::fftStudyJob(fft, 1, 1, sc));
    jobs.push_back(core::barnesStudyJob(barnes, 1, 1, sc));
    return jobs;
}

} // namespace

TEST(RaceReportDeterminism, ByteIdenticalAcrossWorkerCounts)
{
    std::string baseline;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        core::StudyRunner runner({workers, nullptr});
        std::vector<core::JobReport> reports =
            runner.run(raceCheckedBatch());
        for (const core::JobReport &report : reports)
            ASSERT_TRUE(report.ok) << report.name << ": "
                                   << report.error;

        std::ostringstream os;
        std::size_t racy = core::reportRaceChecks(os, reports);
        EXPECT_EQ(racy, 0u) << os.str();
        if (baseline.empty())
            baseline = os.str();
        else
            EXPECT_EQ(os.str(), baseline) << "workers=" << workers;
    }
    // The report covered every study in the batch, by name.
    EXPECT_NE(baseline.find("no data races detected"),
              std::string::npos);
}

TEST(RaceReportDeterminism, ReportsRacyStudyCount)
{
    // A synthetic job whose stream races must flip the gate.
    core::StudyJob bad;
    bad.name = "injected";
    bad.body = []() {
        trace::SharedAddressSpace space;
        sim::Multiprocessor mp({2, 8});
        analysis::RaceConfig config;
        config.numProcs = 2;
        analysis::RaceDetector det(config);
        det.attachAddressSpace(&space);
        trace::Addr base = space.allocate("bad.array", 64);
        trace::TeeSink tee(mp, det);
        tee.write(0, base, 8);
        tee.write(1, base, 8);
        core::StudyConfig sc;
        sc.minCacheBytes = 16;
        core::StudyResult result = core::analyzeWorkingSets(
            mp, sc, core::Metric::ReadMissRate, 0, "injected");
        result.races = det.result();
        return result;
    };

    core::StudyRunner runner({1, nullptr});
    std::vector<core::JobReport> reports = runner.run({bad});
    std::ostringstream os;
    EXPECT_EQ(core::reportRaceChecks(os, reports), 1u);
    EXPECT_NE(os.str().find("bad.array"), std::string::npos)
        << os.str();
}

TEST(RaceReportDeterminism, NoOpWhenNoStudyRanTheCheck)
{
    apps::lu::LuConfig lu;
    lu.n = 32;
    lu.blockSize = 8;
    lu.procRows = 2;
    lu.procCols = 2;
    core::StudyRunner runner({1, nullptr});
    std::vector<core::JobReport> reports =
        runner.run({core::luStudyJob(lu)});
    std::ostringstream os;
    EXPECT_EQ(core::reportRaceChecks(os, reports), 0u);
    EXPECT_TRUE(os.str().empty()) << os.str();
}
