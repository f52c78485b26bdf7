/**
 * @file
 * The tentpole's correctness gate for the profiler bake-off: the
 * tree-Mattson profiler must be BYTE-IDENTICAL to the legacy
 * list-Mattson profiler — every sample classification, every distance,
 * every derived curve — on synthetic reference streams (random, looped,
 * invalidation-heavy, eviction-heavy, and a renumbering-triggering long
 * stream) and on all nine application studies at 1, 2, 4 and 8 runner
 * workers. Also the batched-ingestion property: accessBatch must equal
 * one-at-a-time ingestion for every construction at any batch size, and
 * BatchingSink must forward a sink stream unchanged.
 */

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/profiler_factory.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "memsys/profiler.hh"
#include "memsys/stack_distance.hh"
#include "memsys/tree_stack_distance.hh"
#include "trace/sinks.hh"

using namespace wsg;
using namespace wsg::core;
using memsys::Addr;
using memsys::DistanceSample;
using memsys::ProfilerKind;
using memsys::RefClass;

namespace
{

/** One profiler operation of a synthetic stream. */
struct Op
{
    enum Kind
    {
        Access,
        Invalidate,
        Evict,
    } kind = Access;
    Addr line = 0;
};

/** Seeded stream generator; invalidate_pct / evict_pct in [0, 100). */
std::vector<Op>
makeStream(std::uint64_t seed, std::size_t n, std::uint64_t num_lines,
           bool looped, int invalidate_pct, int evict_pct)
{
    std::mt19937_64 rng(seed);
    std::vector<Op> ops;
    ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Op op;
        int dice = static_cast<int>(rng() % 100);
        if (dice < invalidate_pct)
            op.kind = Op::Invalidate;
        else if (dice < invalidate_pct + evict_pct)
            op.kind = Op::Evict;
        op.line = looped ? i % num_lines : rng() % num_lines;
        ops.push_back(op);
    }
    return ops;
}

/** Apply @p ops to two Profiler implementations in lockstep, requiring
 *  identical classifications, distances, return values and state. */
void
expectLockstepIdentical(const std::vector<Op> &ops,
                        memsys::Profiler &a, memsys::Profiler &b)
{
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        switch (op.kind) {
          case Op::Access: {
            DistanceSample sa = a.access(op.line);
            DistanceSample sb = b.access(op.line);
            ASSERT_EQ(sa.kind, sb.kind) << "op " << i;
            if (sa.kind == RefClass::Finite) {
                ASSERT_EQ(sa.distance, sb.distance) << "op " << i;
            }
            break;
          }
          case Op::Invalidate:
            ASSERT_EQ(a.invalidate(op.line), b.invalidate(op.line))
                << "op " << i;
            break;
          case Op::Evict:
            ASSERT_EQ(a.evict(op.line), b.evict(op.line)) << "op " << i;
            break;
        }
        ASSERT_EQ(a.tracks(op.line), b.tracks(op.line)) << "op " << i;
    }
    EXPECT_EQ(a.liveLines(), b.liveLines());
    EXPECT_EQ(a.touchedLines(), b.touchedLines());
}

void
expectTreeMatchesListOn(const std::vector<Op> &ops)
{
    memsys::StackDistanceProfiler list;
    memsys::TreeStackDistanceProfiler tree;
    expectLockstepIdentical(ops, list, tree);
}

void
expectCurvesByteIdentical(const stats::Curve &a, const stats::Curve &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::memcmp(&a[i].x, &b[i].x, sizeof(double)), 0)
            << "x differs at point " << i;
        ASSERT_EQ(std::memcmp(&a[i].y, &b[i].y, sizeof(double)), 0)
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
expectResultsIdentical(const StudyResult &a, const StudyResult &b)
{
    expectCurvesByteIdentical(a.curve, b.curve);
    ASSERT_EQ(a.workingSets.size(), b.workingSets.size());
    for (std::size_t k = 0; k < a.workingSets.size(); ++k) {
        ASSERT_EQ(std::memcmp(&a.workingSets[k].sizeBytes,
                              &b.workingSets[k].sizeBytes,
                              sizeof(double)), 0);
        ASSERT_EQ(std::memcmp(&a.workingSets[k].missRateAfter,
                              &b.workingSets[k].missRateAfter,
                              sizeof(double)), 0);
    }
    EXPECT_EQ(a.aggregate.reads, b.aggregate.reads);
    EXPECT_EQ(a.aggregate.writes, b.aggregate.writes);
    EXPECT_EQ(a.aggregate.readCold, b.aggregate.readCold);
    EXPECT_EQ(a.aggregate.readCoherence, b.aggregate.readCoherence);
    EXPECT_EQ(a.aggregate.writeCold, b.aggregate.writeCold);
    EXPECT_EQ(a.aggregate.writeCoherence, b.aggregate.writeCoherence);
    expectHistogramsEqual(a.aggregate.readDistances,
                          b.aggregate.readDistances);
    expectHistogramsEqual(a.aggregate.writeDistances,
                          b.aggregate.writeDistances);
    EXPECT_EQ(a.maxFootprintBytes, b.maxFootprintBytes);
    EXPECT_EQ(std::memcmp(&a.floorRate, &b.floorRate, sizeof(double)),
              0);
    ASSERT_EQ(a.missClasses.points.size(), b.missClasses.points.size());
    for (std::size_t i = 0; i < a.missClasses.points.size(); ++i) {
        const auto &pa = a.missClasses.points[i];
        const auto &pb = b.missClasses.points[i];
        ASSERT_EQ(std::memcmp(&pa.cold, &pb.cold, sizeof(double)), 0);
        ASSERT_EQ(std::memcmp(&pa.capacity, &pb.capacity,
                              sizeof(double)), 0);
        ASSERT_EQ(std::memcmp(&pa.trueSharing, &pb.trueSharing,
                              sizeof(double)), 0);
        ASSERT_EQ(std::memcmp(&pa.falseSharing, &pb.falseSharing,
                              sizeof(double)), 0);
    }
}

/** The nine application studies, sized for the test tier. */
std::vector<StudyJob>
nineStudies(const StudyConfig &sc)
{
    apps::lu::LuConfig lu;
    lu.n = 64;
    lu.blockSize = 8;
    lu.procRows = 2;
    lu.procCols = 2;

    apps::lu::LuConfig chol = lu;

    apps::cg::CgConfig cg;
    cg.n = 48;
    cg.dims = 2;
    cg.procX = 2;
    cg.procY = 2;

    apps::cg::UnstructuredConfig ucg;
    ucg.numVertices = 512;
    ucg.numProcs = 4;

    apps::fft::FftConfig fft;
    fft.logN = 10;
    fft.numProcs = 4;
    fft.internalRadix = 8;

    apps::fft::Fft2dConfig fft2d;
    fft2d.logRows = 5;
    fft2d.logCols = 5;
    fft2d.numProcs = 4;

    apps::fft::Fft3dConfig fft3d;
    fft3d.log0 = 4;
    fft3d.log1 = 4;
    fft3d.log2 = 4;
    fft3d.numProcs = 4;

    apps::barnes::BarnesConfig barnes;
    barnes.numBodies = 256;
    barnes.numProcs = 4;

    apps::volrend::VolumeDims dims{32, 32, 32};
    apps::volrend::RenderConfig render;
    render.imageWidth = 32;
    render.imageHeight = 32;
    render.numProcs = 4;

    return {luStudyJob(lu, sc),
            choleskyStudyJob(chol, sc),
            cgStudyJob(cg, 2, 1, sc),
            unstructuredStudyJob(ucg, 2, 1, sc),
            fftStudyJob(fft, 1, 1, sc),
            fft2dStudyJob(fft2d, 1, 1, sc),
            fft3dStudyJob(fft3d, 1, 1, sc),
            barnesStudyJob(barnes, 2, 1, sc),
            volrendStudyJob(dims, render, 2, 1, sc)};
}

} // namespace

TEST(ProfilerDifferential, RandomStream)
{
    for (std::uint64_t seed : {1u, 2u, 3u})
        expectTreeMatchesListOn(
            makeStream(seed, 10000, 700, false, 0, 0));
}

TEST(ProfilerDifferential, LoopedStream)
{
    // Uniform loops are the Mattson worst case: every access sits at
    // the same (maximal) depth.
    expectTreeMatchesListOn(makeStream(4, 10000, 333, true, 0, 0));
    expectTreeMatchesListOn(makeStream(5, 10000, 1000, true, 0, 0));
}

TEST(ProfilerDifferential, InvalidationStream)
{
    for (std::uint64_t seed : {6u, 7u})
        expectTreeMatchesListOn(
            makeStream(seed, 10000, 400, false, 25, 0));
}

TEST(ProfilerDifferential, EvictionStream)
{
    for (std::uint64_t seed : {8u, 9u})
        expectTreeMatchesListOn(
            makeStream(seed, 10000, 400, false, 0, 25));
}

TEST(ProfilerDifferential, MixedStreamCrossesRenumbering)
{
    // 300k accesses over 900 lines: the tree profiler's stamp span
    // outgrows 4x the live count far past kMinRenumberSpan (64k), so
    // this stream crosses many renumbering points; distances must be
    // unaffected. Nor may the tree profiler's modelled memory move:
    // memoryBytes() is every report's profiler_bytes, so it is pinned
    // every 25k operations (less sizeof, which is the standard
    // library's, not the model's).
    const std::uint64_t kModelBytes[] = {
        46040, 51544, 61352, 61400, 61208, 62504,
        62072, 61160, 61640, 61352, 61592, 61352,
    };
    constexpr std::size_t kChunk = 25000;
    auto ops = makeStream(10, 12 * kChunk, 900, false, 5, 5);
    memsys::StackDistanceProfiler list;
    memsys::TreeStackDistanceProfiler tree;
    for (std::size_t c = 0; c < 12; ++c) {
        std::vector<Op> chunk(ops.begin() + c * kChunk,
                              ops.begin() + (c + 1) * kChunk);
        expectLockstepIdentical(chunk, list, tree);
        EXPECT_EQ(tree.memoryBytes() - sizeof(tree), kModelBytes[c])
            << "after " << (c + 1) * kChunk << " operations";
    }
}

TEST(ProfilerDifferential, NaiveOracleAgreesWithBoth)
{
    // The O(n)-per-access explicit-stack oracle closes the loop: list
    // and tree agreeing is not enough if both shared a bug.
    auto ops = makeStream(11, 2000, 150, false, 10, 10);
    memsys::StackDistanceProfiler list;
    memsys::TreeStackDistanceProfiler tree;
    memsys::NaiveStackProfiler naive;
    for (const Op &op : ops) {
        switch (op.kind) {
          case Op::Access: {
            DistanceSample sl = list.access(op.line);
            DistanceSample st = tree.access(op.line);
            DistanceSample sn = naive.access(op.line);
            ASSERT_EQ(sn.kind, sl.kind);
            ASSERT_EQ(sn.kind, st.kind);
            if (sn.kind == RefClass::Finite) {
                ASSERT_EQ(sn.distance, sl.distance);
                ASSERT_EQ(sn.distance, st.distance);
            }
            break;
          }
          case Op::Invalidate: {
            bool rn = naive.invalidate(op.line);
            ASSERT_EQ(rn, list.invalidate(op.line));
            ASSERT_EQ(rn, tree.invalidate(op.line));
            break;
          }
          case Op::Evict: {
            bool rn = naive.evict(op.line);
            ASSERT_EQ(rn, list.evict(op.line));
            ASSERT_EQ(rn, tree.evict(op.line));
            break;
          }
        }
        ASSERT_EQ(naive.liveLines(), list.liveLines());
        ASSERT_EQ(naive.liveLines(), tree.liveLines());
    }
}

/**
 * Regression for the audited evict/retouch bug class: a line evicted
 * from the profiler (spatial-sampling eviction, not coherence) must
 * leave the remaining stack intact — the next touch of the evicted
 * line is Cold, and every other line's distance counts only the lines
 * still live, identically in all exact profilers.
 */
TEST(ProfilerDifferential, EvictThenRetouchKeepsDistancesAligned)
{
    memsys::StackDistanceProfiler list;
    memsys::TreeStackDistanceProfiler tree;
    memsys::NaiveStackProfiler naive;

    auto step = [&](Addr line) -> DistanceSample {
        DistanceSample sl = list.access(line);
        DistanceSample st = tree.access(line);
        DistanceSample sn = naive.access(line);
        EXPECT_EQ(sl.kind, sn.kind);
        EXPECT_EQ(st.kind, sn.kind);
        EXPECT_EQ(sl.distance, sn.distance);
        EXPECT_EQ(st.distance, sn.distance);
        return sn;
    };

    step(1); // stack: 1
    step(2); // stack: 2 1
    step(3); // stack: 3 2 1

    EXPECT_TRUE(list.evict(2));
    EXPECT_TRUE(tree.evict(2));
    EXPECT_TRUE(naive.evict(2));

    // 2 is gone from stack AND history: 1's depth skips it.
    DistanceSample s1 = step(1); // stack was: 3 1
    EXPECT_EQ(s1.kind, RefClass::Finite);
    EXPECT_EQ(s1.distance, 1u);

    // The retouched evicted line is Cold, not Coherence.
    DistanceSample s2 = step(2);
    EXPECT_EQ(s2.kind, RefClass::Cold);

    // ...and rejoins the stack normally.
    DistanceSample s2b = step(2);
    EXPECT_EQ(s2b.kind, RefClass::Finite);
    EXPECT_EQ(s2b.distance, 0u);

    DistanceSample s3 = step(3);
    EXPECT_EQ(s3.kind, RefClass::Finite);
    EXPECT_EQ(s3.distance, 2u); // 2 and 1 touched since
}

TEST(ProfilerBatching, BatchEqualsSingleForEveryConstruction)
{
    auto ops = makeStream(12, 5000, 300, false, 0, 0);
    std::vector<Addr> lines;
    lines.reserve(ops.size());
    for (const Op &op : ops)
        lines.push_back(op.line);

    for (ProfilerKind kind :
         {ProfilerKind::ListMattson, ProfilerKind::TreeMattson,
          ProfilerKind::Aet}) {
        auto single = approx::makeProfiler(kind);
        std::vector<DistanceSample> expect;
        expect.reserve(lines.size());
        for (Addr line : lines)
            expect.push_back(single->access(line));

        for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{64},
                                  std::size_t{256}, std::size_t{1024}}) {
            auto batched = approx::makeProfiler(kind);
            std::vector<DistanceSample> got(lines.size());
            std::size_t i = 0;
            while (i < lines.size()) {
                std::size_t n = std::min(batch, lines.size() - i);
                batched->accessBatch(lines.data() + i, n, got.data() + i);
                i += n;
            }
            for (std::size_t k = 0; k < lines.size(); ++k) {
                ASSERT_EQ(got[k].kind, expect[k].kind)
                    << memsys::profilerKindName(kind) << " batch "
                    << batch << " ref " << k;
                ASSERT_EQ(got[k].distance, expect[k].distance)
                    << memsys::profilerKindName(kind) << " batch "
                    << batch << " ref " << k;
            }
            EXPECT_EQ(batched->liveLines(), single->liveLines());
            EXPECT_EQ(batched->touchedLines(), single->touchedLines());
        }
    }
}

TEST(ProfilerBatching, BatchingSinkPreservesTheStream)
{
    // Refs and syncs through a BatchingSink must reach the inner sink
    // in exactly the original order, at every buffer fill level.
    std::mt19937_64 rng(13);
    trace::RecordingSink direct;
    trace::RecordingSink buffered_inner;
    trace::BatchingSink buffered(buffered_inner);

    for (int i = 0; i < 3000; ++i) {
        if (rng() % 50 == 0) {
            trace::SyncEvent ev{trace::SyncKind::Barrier, 0,
                                static_cast<std::uint64_t>(i)};
            direct.sync(ev);
            buffered.sync(ev);
        } else {
            trace::MemRef ref;
            ref.addr = rng() % 4096;
            ref.bytes = 8;
            ref.pid = static_cast<trace::ProcId>(rng() % 4);
            ref.type = rng() % 3 ? trace::RefType::Read
                                 : trace::RefType::Write;
            direct.access(ref);
            buffered.access(ref);
        }
    }
    buffered.flush();

    ASSERT_EQ(direct.refs().size(), buffered_inner.refs().size());
    for (std::size_t i = 0; i < direct.refs().size(); ++i) {
        const auto &a = direct.refs()[i];
        const auto &b = buffered_inner.refs()[i];
        ASSERT_EQ(a.addr, b.addr) << "ref " << i;
        ASSERT_EQ(a.pid, b.pid) << "ref " << i;
        ASSERT_EQ(a.type, b.type) << "ref " << i;
    }
    ASSERT_EQ(direct.syncs().size(), buffered_inner.syncs().size());
    for (std::size_t i = 0; i < direct.syncs().size(); ++i)
        ASSERT_EQ(direct.syncs()[i].object,
                  buffered_inner.syncs()[i].object);
}

/**
 * The acceptance gate: tree-Mattson must be byte-identical to the
 * legacy list-Mattson on all nine application studies.
 */
TEST(ProfilerDifferential, NineAppStudiesTreeEqualsList)
{
    StudyConfig sc_tree;
    sc_tree.profiler = ProfilerKind::TreeMattson;
    StudyConfig sc_list;
    sc_list.profiler = ProfilerKind::ListMattson;

    std::vector<StudyJob> tree_jobs = nineStudies(sc_tree);
    std::vector<StudyJob> list_jobs = nineStudies(sc_list);

    RunnerConfig rc;
    rc.jobs = 4;
    StudyRunner runner(rc);
    auto tree_reports = runner.run(tree_jobs);
    auto list_reports = runner.run(list_jobs);

    ASSERT_EQ(tree_reports.size(), 9u);
    ASSERT_EQ(list_reports.size(), 9u);
    for (std::size_t i = 0; i < 9; ++i) {
        ASSERT_TRUE(tree_reports[i].ok) << tree_reports[i].error;
        ASSERT_TRUE(list_reports[i].ok) << list_reports[i].error;
        SCOPED_TRACE(tree_reports[i].name);
        expectResultsIdentical(tree_reports[i].result,
                               list_reports[i].result);
        EXPECT_EQ(tree_reports[i].result.sampling.profiler,
                  ProfilerKind::TreeMattson);
        EXPECT_EQ(list_reports[i].result.sampling.profiler,
                  ProfilerKind::ListMattson);
    }
}

/**
 * Worker-count determinism for the new default profiler: the nine-study
 * JSON artifact must serialize to the same bytes at 1, 2, 4 and 8
 * workers.
 */
TEST(ProfilerDifferential, NineAppStudiesDeterministicAcrossWorkers)
{
    StudyConfig sc; // TreeMattson default
    RunnerConfig serial_rc;
    serial_rc.jobs = 1;
    StudyRunner serial(serial_rc);
    std::string baseline = jsonReport(serial.run(nineStudies(sc)));
    EXPECT_NE(baseline.find("\"profiler\": \"tree-mattson\""),
              std::string::npos);

    for (unsigned workers : {2u, 4u, 8u}) {
        RunnerConfig rc;
        rc.jobs = workers;
        StudyRunner runner(rc);
        EXPECT_EQ(baseline, jsonReport(runner.run(nineStudies(sc))))
            << workers << " workers";
    }
}
