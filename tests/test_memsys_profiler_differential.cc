/**
 * @file
 * The exact profiler's correctness gate: tree-Mattson must agree with
 * the explicit-stack oracle (tests/naive_stack_profiler.hh) on every
 * sample classification and every distance, on synthetic reference
 * streams (random, looped, invalidation-heavy, eviction-heavy, and a
 * renumbering-triggering long stream), and the nine application
 * studies must serialize identically at 1, 2, 4 and 8 runner workers.
 * Also the batched-ingestion property: accessBatch must equal
 * one-at-a-time ingestion for every construction at any batch size, and
 * BatchingSink must forward a sink stream unchanged.
 */

#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/profiler_factory.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "memsys/profiler.hh"
#include "memsys/tree_stack_distance.hh"
#include "naive_stack_profiler.hh"
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
expectTreeMatchesNaiveOn(const std::vector<Op> &ops)
{
    test::NaiveStackProfiler naive;
    memsys::TreeStackDistanceProfiler tree;
    expectLockstepIdentical(ops, naive, tree);
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
        expectTreeMatchesNaiveOn(
            makeStream(seed, 10000, 700, false, 0, 0));
}

TEST(ProfilerDifferential, LoopedStream)
{
    // Uniform loops are the Mattson worst case: every access sits at
    // the same (maximal) depth.
    expectTreeMatchesNaiveOn(makeStream(4, 10000, 333, true, 0, 0));
    expectTreeMatchesNaiveOn(makeStream(5, 10000, 1000, true, 0, 0));
}

TEST(ProfilerDifferential, InvalidationStream)
{
    for (std::uint64_t seed : {6u, 7u})
        expectTreeMatchesNaiveOn(
            makeStream(seed, 10000, 400, false, 25, 0));
}

TEST(ProfilerDifferential, EvictionStream)
{
    for (std::uint64_t seed : {8u, 9u})
        expectTreeMatchesNaiveOn(
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
    test::NaiveStackProfiler naive;
    memsys::TreeStackDistanceProfiler tree;
    for (std::size_t c = 0; c < 12; ++c) {
        std::vector<Op> chunk(ops.begin() + c * kChunk,
                              ops.begin() + (c + 1) * kChunk);
        expectLockstepIdentical(chunk, naive, tree);
        EXPECT_EQ(tree.memoryBytes() - sizeof(tree), kModelBytes[c])
            << "after " << (c + 1) * kChunk << " operations";
    }
}

TEST(ProfilerDifferential, NaiveOracleAgreesWithBoth)
{
    // Both ingestion paths of the tree profiler against the oracle:
    // one access() per reference, and accessBatch() over each run of
    // accesses between invalidations and evictions.
    auto ops = makeStream(11, 2000, 150, false, 10, 10);
    memsys::TreeStackDistanceProfiler single;
    memsys::TreeStackDistanceProfiler batched;
    test::NaiveStackProfiler naive;
    std::vector<Addr> run;
    std::vector<DistanceSample> expect;
    auto flush = [&] {
        std::vector<DistanceSample> got(run.size());
        batched.accessBatch(run.data(), run.size(), got.data());
        for (std::size_t i = 0; i < run.size(); ++i) {
            ASSERT_EQ(got[i].kind, expect[i].kind);
            if (got[i].kind == RefClass::Finite) {
                ASSERT_EQ(got[i].distance, expect[i].distance);
            }
        }
        run.clear();
        expect.clear();
    };
    for (const Op &op : ops) {
        if (op.kind == Op::Access) {
            DistanceSample sn = naive.access(op.line);
            DistanceSample ss = single.access(op.line);
            ASSERT_EQ(ss.kind, sn.kind);
            if (sn.kind == RefClass::Finite) {
                ASSERT_EQ(ss.distance, sn.distance);
            }
            run.push_back(op.line);
            expect.push_back(sn);
            continue;
        }
        flush();
        bool invalidate = op.kind == Op::Invalidate;
        bool rn = invalidate ? naive.invalidate(op.line)
                             : naive.evict(op.line);
        ASSERT_EQ(rn, invalidate ? single.invalidate(op.line)
                                 : single.evict(op.line));
        ASSERT_EQ(rn, invalidate ? batched.invalidate(op.line)
                                 : batched.evict(op.line));
        ASSERT_EQ(naive.liveLines(), single.liveLines());
        ASSERT_EQ(naive.liveLines(), batched.liveLines());
    }
    flush();
}

/**
 * Regression for the audited evict/retouch bug class: a line evicted
 * from the profiler (spatial-sampling eviction, not coherence) must
 * leave the remaining stack intact — the next touch of the evicted
 * line is Cold, and every other line's distance counts only the lines
 * still live, identically in the tree profiler and the oracle.
 */
TEST(ProfilerDifferential, EvictThenRetouchKeepsDistancesAligned)
{
    memsys::TreeStackDistanceProfiler tree;
    test::NaiveStackProfiler naive;

    auto step = [&](Addr line) -> DistanceSample {
        DistanceSample st = tree.access(line);
        DistanceSample sn = naive.access(line);
        EXPECT_EQ(st.kind, sn.kind);
        EXPECT_EQ(st.distance, sn.distance);
        return sn;
    };

    step(1); // stack: 1
    step(2); // stack: 2 1
    step(3); // stack: 3 2 1

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

    for (ProfilerKind kind : {ProfilerKind::TreeMattson, ProfilerKind::Aet}) {
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
 * Worker-count determinism for the default profiler: the nine-study
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
