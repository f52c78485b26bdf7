/**
 * @file
 * Tests for the miss-classification and attribution subsystem: the
 * Dubois true/false-sharing split of coherence misses, the four-way
 * cold / capacity / true-sharing / false-sharing breakdown
 * (readMissClassCurves), and the per-processor / per-array attribution
 * (attachAddressSpace, arraySummaries). Includes the study-level
 * invariants: the four categories sum to the total misses at every
 * swept cache size, single-processor runs report zero sharing misses,
 * and 8-byte lines report zero false sharing on double-word streams.
 */

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "core/runners.hh"
#include "mattson_misses.hh"
#include "sim/multiprocessor.hh"
#include "trace/address_space.hh"
#include "trace/traced_array.hh"

using namespace wsg;
using namespace wsg::sim;

// ---------------------------------------------------------------------
// Dubois split mechanics (scripted scenarios).
// ---------------------------------------------------------------------

TEST(MissClasses, FirstTouchOfRemoteLineSplitsByWordOverlap)
{
    Multiprocessor mp({2, 64});
    mp.write(0, 0, 8); // P0 produces word 0 of the line.

    // P1's first touch reads word 1 — it fetches the line only because
    // word 0 shares it: false sharing.
    mp.read(1, 8, 8);
    EXPECT_EQ(mp.procStats(1).readCoherence, 1u);
    EXPECT_EQ(mp.procStats(1).readFalseSharing, 1u);
    EXPECT_EQ(mp.procStats(1).readTrueSharing, 0u);

    // A second processor-pair on a fresh line, overlapping words this
    // time: the first touch consumes the produced value — true sharing.
    mp.write(0, 1024, 8);
    mp.read(1, 1024, 8);
    EXPECT_EQ(mp.procStats(1).readCoherence, 2u);
    EXPECT_EQ(mp.procStats(1).readTrueSharing, 1u);
    EXPECT_EQ(mp.procStats(1).readFalseSharing, 1u);
}

TEST(MissClasses, InvalidationMissSplitsByWordsWrittenWhileAway)
{
    Multiprocessor mp({2, 64});
    mp.read(0, 0, 8);  // P0 caches the line (cold).
    mp.read(1, 0, 8);  // P1 shares it.
    mp.write(0, 0, 8); // P0 writes word 0: P1 invalidated.

    // P1 returns to word 1 — untouched while it was away: the miss is
    // pure line-grain artifact, false sharing.
    mp.read(1, 8, 8);
    EXPECT_EQ(mp.procStats(1).readCoherence, 1u);
    EXPECT_EQ(mp.procStats(1).readFalseSharing, 1u);

    // Invalidate P1 again; now it returns to the written word itself:
    // true sharing.
    mp.write(0, 0, 8);
    mp.read(1, 0, 8);
    EXPECT_EQ(mp.procStats(1).readCoherence, 2u);
    EXPECT_EQ(mp.procStats(1).readTrueSharing, 1u);
    EXPECT_EQ(mp.procStats(1).readFalseSharing, 1u);
}

TEST(MissClasses, WritesAccumulateWhileInvalidated)
{
    Multiprocessor mp({2, 64});
    mp.read(1, 0, 8);   // P1 caches the line.
    mp.write(0, 0, 8);  // invalidates P1; pending words = {0}
    mp.write(0, 16, 8); // still away; pending words = {0, 2}

    // P1 returns to word 2 — written by the *second* write while it
    // was away. Only an accumulated pending mask catches this as true
    // sharing; remembering just the invalidating write would misfile
    // it as false.
    mp.read(1, 16, 8);
    EXPECT_EQ(mp.procStats(1).readCoherence, 1u);
    EXPECT_EQ(mp.procStats(1).readTrueSharing, 1u);
    EXPECT_EQ(mp.procStats(1).readFalseSharing, 0u);
}

TEST(MissClasses, PendingStateClearsOnReturn)
{
    Multiprocessor mp({2, 64});
    mp.read(1, 0, 8);
    mp.write(0, 0, 8); // invalidates P1
    mp.read(1, 8, 8);  // P1 returns off-word: false sharing
    EXPECT_EQ(mp.procStats(1).readFalseSharing, 1u);

    // P1 now holds the line again; a *fresh* invalidation starts a
    // fresh pending mask — the old word-0 write must not leak into the
    // next interval's classification.
    mp.write(0, 16, 8); // invalidates P1; pending = {2} only
    mp.read(1, 0, 8);   // returns to word 0: not written this interval
    EXPECT_EQ(mp.procStats(1).readCoherence, 2u);
    EXPECT_EQ(mp.procStats(1).readFalseSharing, 2u);
    EXPECT_EQ(mp.procStats(1).readTrueSharing, 0u);
}

TEST(MissClasses, WideAccessTouchingAWrittenWordIsTrueSharing)
{
    Multiprocessor mp({2, 64});
    mp.read(1, 0, 8);
    mp.write(0, 24, 8); // invalidates P1; pending = {word 3}
    // P1 reads words 0..3 in one 32-byte access: overlap at word 3.
    mp.read(1, 0, 32);
    EXPECT_EQ(mp.procStats(1).readTrueSharing, 1u);
    EXPECT_EQ(mp.procStats(1).readFalseSharing, 0u);
}

TEST(MissClasses, SharingCountersSplitTheCoherenceCounter)
{
    // Random two-processor workload over a few shared lines: whatever
    // the interleaving, every coherence miss lands in exactly one of
    // the two sharing buckets, for reads and writes alike.
    Multiprocessor mp({2, 32});
    std::mt19937_64 rng(99);
    for (int i = 0; i < 20000; ++i) {
        auto pid = static_cast<ProcId>(rng() % 2);
        trace::Addr addr = (rng() % 64) * 8;
        if (rng() % 2)
            mp.write(pid, addr, 8);
        else
            mp.read(pid, addr, 8);
    }
    ProcStats agg = mp.aggregateStats();
    EXPECT_GT(agg.readCoherence, 0u);
    EXPECT_GT(agg.writeCoherence, 0u);
    EXPECT_EQ(agg.readTrueSharing + agg.readFalseSharing,
              agg.readCoherence);
    EXPECT_EQ(agg.writeTrueSharing + agg.writeFalseSharing,
              agg.writeCoherence);
    // 32-byte lines over an 8-byte-strided mix must see both kinds.
    EXPECT_GT(agg.readTrueSharing, 0u);
    EXPECT_GT(agg.readFalseSharing, 0u);
}

TEST(MissClasses, EightByteLinesNeverFalseShare)
{
    // With one word per line the accessed and produced words always
    // coincide: false sharing is structurally impossible on the
    // paper's double-word accounting.
    Multiprocessor mp({4, 8});
    std::mt19937_64 rng(7);
    for (int i = 0; i < 20000; ++i) {
        auto pid = static_cast<ProcId>(rng() % 4);
        trace::Addr addr = (rng() % 128) * 8;
        if (rng() % 3 == 0)
            mp.write(pid, addr, 8);
        else
            mp.read(pid, addr, 8);
    }
    ProcStats agg = mp.aggregateStats();
    EXPECT_GT(agg.readCoherence + agg.writeCoherence, 0u);
    EXPECT_EQ(agg.readFalseSharing, 0u);
    EXPECT_EQ(agg.writeFalseSharing, 0u);
    EXPECT_EQ(agg.readTrueSharing, agg.readCoherence);
    EXPECT_EQ(agg.writeTrueSharing, agg.writeCoherence);
}

TEST(MissClasses, SingleProcessorHasZeroSharingMisses)
{
    Multiprocessor mp({1, 64});
    std::mt19937_64 rng(13);
    for (int i = 0; i < 10000; ++i) {
        trace::Addr addr = (rng() % 512) * 8;
        if (rng() % 2)
            mp.write(0, addr, 8);
        else
            mp.read(0, addr, 8);
    }
    ProcStats agg = mp.aggregateStats();
    EXPECT_EQ(agg.readCoherence, 0u);
    EXPECT_EQ(agg.writeCoherence, 0u);
    EXPECT_EQ(agg.readTrueSharing + agg.readFalseSharing +
                  agg.writeTrueSharing + agg.writeFalseSharing,
              0u);
}

TEST(MissClasses, WarmupReferencesAreNotClassified)
{
    // Sharing during warm-up updates directory state but no counters;
    // the pending word masks must still carry across the measurement
    // boundary so post-warm-up misses classify correctly.
    Multiprocessor mp({2, 64});
    mp.setMeasuring(false);
    mp.read(1, 0, 8);
    mp.write(0, 0, 8); // P1 invalidated during warm-up
    mp.setMeasuring(true);
    EXPECT_EQ(mp.aggregateStats().writes, 0u);
    mp.read(1, 0, 8); // measured return to the written word
    EXPECT_EQ(mp.procStats(1).readCoherence, 1u);
    EXPECT_EQ(mp.procStats(1).readTrueSharing, 1u);
}

// ---------------------------------------------------------------------
// Four-way breakdown: cold + capacity + true + false == total.
// ---------------------------------------------------------------------

TEST(MissClasses, BreakdownSumsToTotalMissesAtEverySize)
{
    Multiprocessor mp({2, 32});
    std::mt19937_64 rng(4242);
    for (int i = 0; i < 30000; ++i) {
        auto pid = static_cast<ProcId>(rng() % 2);
        trace::Addr addr = (rng() % 2048) * 8;
        if (rng() % 4 == 0)
            mp.write(pid, addr, 8);
        else
            mp.read(pid, addr, 8);
    }
    CurveSpec spec;
    spec.cacheSizesBytes = sweepSizes(32, 1 << 20, 4, 32);
    MissClassCurves mc = mp.readMissClassCurves(spec);
    ASSERT_EQ(mc.points.size(), spec.cacheSizesBytes.size());
    ProcStats agg = mp.aggregateStats();
    for (std::size_t i = 0; i < mc.points.size(); ++i) {
        std::uint64_t lines = spec.cacheSizesBytes[i] / 32;
        auto total = static_cast<double>(
            test::mattsonReadMisses(agg, lines, /*include_cold=*/true));
        // Exact mode: integer-valued doubles, so equality is exact.
        EXPECT_EQ(mc.points[i].total(), total)
            << "at cache size " << spec.cacheSizesBytes[i];
        EXPECT_EQ(mc.points[i].cold,
                  static_cast<double>(agg.readCold));
        EXPECT_EQ(mc.points[i].sharing(),
                  static_cast<double>(agg.readCoherence));
    }
    // Capacity is the only size-dependent category and must vanish
    // once the cache holds the whole footprint.
    EXPECT_GT(mc.points.front().capacity, 0.0);
    EXPECT_EQ(mc.points.back().capacity, 0.0);
}

// ---------------------------------------------------------------------
// Study-level invariants across the real applications.
// ---------------------------------------------------------------------

namespace
{

struct NamedStudy
{
    std::string name;
    core::StudyResult result;
    std::uint32_t lineBytes;
};

std::vector<NamedStudy>
smallStudies()
{
    core::StudyConfig sc;
    sc.minCacheBytes = 16;

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

    std::vector<NamedStudy> studies;
    studies.push_back({"lu", core::runLuStudy(lu, sc), 8});
    studies.push_back({"cg", core::runCgStudy(cg, 2, 1, sc), 8});
    studies.push_back({"fft", core::runFftStudy(fft, 1, 1, sc), 8});
    studies.push_back(
        {"barnes", core::runBarnesStudy(barnes, 1, 1, sc, 32), 32});
    return studies;
}

} // namespace

TEST(MissClassesStudies, InvariantsHoldOnEveryApplication)
{
    for (const NamedStudy &s : smallStudies()) {
        SCOPED_TRACE(s.name);
        const core::StudyResult &r = s.result;
        const sim::ProcStats &agg = r.aggregate;

        // The split partitions the coherence counters.
        EXPECT_EQ(agg.readTrueSharing + agg.readFalseSharing,
                  agg.readCoherence);
        EXPECT_EQ(agg.writeTrueSharing + agg.writeFalseSharing,
                  agg.writeCoherence);

        // Four categories sum to total misses at every swept size.
        ASSERT_EQ(r.missClasses.points.size(),
                  r.missClasses.cacheSizesBytes.size());
        ASSERT_FALSE(r.missClasses.empty());
        for (std::size_t i = 0; i < r.missClasses.points.size(); ++i) {
            std::uint64_t lines =
                std::max<std::uint64_t>(1, r.missClasses.cacheSizesBytes[i] /
                                               s.lineBytes);
            EXPECT_EQ(r.missClasses.points[i].total(),
                      static_cast<double>(test::mattsonReadMisses(
                          agg, lines, /*include_cold=*/true)))
                << "at cache size " << r.missClasses.cacheSizesBytes[i];
        }

        // 8-byte (double-word) lines: zero false sharing, structurally.
        if (s.lineBytes == 8) {
            EXPECT_EQ(agg.readFalseSharing, 0u);
            EXPECT_EQ(agg.writeFalseSharing, 0u);
        }

        // Per-processor summaries partition the aggregate.
        std::uint64_t proc_reads = 0, proc_true = 0, proc_false = 0;
        for (const SharingSummary &p : r.perProc) {
            proc_reads += p.reads;
            proc_true += p.readTrueSharing + p.writeTrueSharing;
            proc_false += p.readFalseSharing + p.writeFalseSharing;
        }
        EXPECT_EQ(proc_reads, agg.reads);
        EXPECT_EQ(proc_true,
                  agg.readTrueSharing + agg.writeTrueSharing);
        EXPECT_EQ(proc_false,
                  agg.readFalseSharing + agg.writeFalseSharing);

        // Per-array attribution covers every measured reference.
        ASSERT_FALSE(r.perArray.empty());
        std::uint64_t arr_refs = 0, arr_sharing = 0, arr_cold = 0;
        for (const SharingSummary &a : r.perArray) {
            EXPECT_FALSE(a.name.empty());
            arr_refs += a.reads + a.writes;
            arr_sharing += a.sharingMisses();
            arr_cold += a.readCold + a.writeCold;
        }
        EXPECT_EQ(arr_refs, agg.reads + agg.writes);
        EXPECT_EQ(arr_sharing,
                  agg.readTrueSharing + agg.readFalseSharing +
                      agg.writeTrueSharing + agg.writeFalseSharing);
        EXPECT_EQ(arr_cold, agg.readCold + agg.writeCold);
    }
}

TEST(MissClassesStudies, SingleProcessorStudyHasZeroSharingMisses)
{
    apps::cg::CgConfig cg;
    cg.n = 48;
    cg.dims = 2;
    cg.procX = 1;
    cg.procY = 1;
    core::StudyConfig sc;
    sc.minCacheBytes = 16;
    core::StudyResult r = core::runCgStudy(cg, 2, 1, sc);
    EXPECT_EQ(r.aggregate.readCoherence, 0u);
    EXPECT_EQ(r.aggregate.writeCoherence, 0u);
    for (const sim::MissClassPoint &p : r.missClasses.points)
        EXPECT_EQ(p.sharing(), 0.0);
}

// ---------------------------------------------------------------------
// Per-array attribution mechanics.
// ---------------------------------------------------------------------

TEST(MissClassAttribution, ReferencesLandInTheirArrays)
{
    trace::SharedAddressSpace space;
    Multiprocessor mp({2, 64});
    mp.attachAddressSpace(&space);
    trace::TracedArray<double> a(space, "alpha", 64, &mp);
    trace::TracedArray<double> b(space, "beta", 64, &mp);
    EXPECT_EQ(a.name(), "alpha");

    for (std::size_t i = 0; i < 64; ++i)
        a.write(0, i, 1.0);
    for (std::size_t i = 0; i < 64; ++i)
        b.read(1, i);
    // Cross-array sharing: P1 reads what P0 produced in "alpha".
    for (std::size_t i = 0; i < 8; ++i)
        a.read(1, i * 8); // one read per 64-byte line, on-word

    std::vector<SharingSummary> arrays = mp.arraySummaries();
    ASSERT_EQ(arrays.size(), 2u);
    EXPECT_EQ(arrays[0].name, "alpha");
    EXPECT_EQ(arrays[1].name, "beta");
    EXPECT_EQ(arrays[0].writes, 64u);
    EXPECT_EQ(arrays[0].reads, 8u);
    EXPECT_EQ(arrays[1].reads, 64u);
    EXPECT_EQ(arrays[1].writes, 0u);
    // All sharing lives in "alpha" (true: P1 reads words P0 wrote);
    // "beta" was written by nobody.
    EXPECT_EQ(arrays[0].readTrueSharing, 8u);
    EXPECT_EQ(arrays[0].readFalseSharing, 0u);
    EXPECT_EQ(arrays[1].sharingMisses(), 0u);
}

TEST(MissClassAttribution, UnmappedReferencesGetTheirOwnBucket)
{
    trace::SharedAddressSpace space;
    Multiprocessor mp({1, 8});
    mp.attachAddressSpace(&space);
    trace::TracedArray<double> a(space, "alpha", 8, &mp);
    a.read(0, 0);
    mp.read(0, 1 << 20, 8); // far outside any segment
    std::vector<SharingSummary> arrays = mp.arraySummaries();
    ASSERT_EQ(arrays.size(), 2u);
    EXPECT_EQ(arrays[1].name, "(unmapped)");
    EXPECT_EQ(arrays[1].reads, 1u);
}

TEST(MissClassAttribution, SegmentCacheMatchesAPerReferenceSearch)
{
    // References interleave two segments and the alignment padding
    // between and after them; a third segment is allocated partway
    // through over addresses already referenced while unmapped. The
    // simulator's last-segment cache must attribute exactly as a fresh
    // findSegmentIndex per reference does.
    trace::SharedAddressSpace space(64);
    Multiprocessor mp({2, 8});
    mp.attachAddressSpace(&space);
    trace::Addr a = space.allocate("alpha", 100); // padded to 128
    trace::Addr b = space.allocate("beta", 40);   // padded to 64
    trace::Addr span_end = b + 64 + 256;         // future "gamma" too

    std::vector<std::uint64_t> reads(4, 0), writes(4, 0);
    auto bucket = [&](trace::Addr addr) {
        std::ptrdiff_t idx = space.findSegmentIndex(addr);
        return idx < 0 ? std::size_t{3} : static_cast<std::size_t>(idx);
    };
    std::mt19937_64 rng(77);
    for (int step = 0; step < 4000; ++step) {
        if (step == 1500)
            space.allocate("gamma", 200);
        trace::Addr addr = a + rng() % (span_end - a);
        auto pid = static_cast<ProcId>(rng() % 2);
        std::size_t slot = bucket(addr);
        if (rng() % 3 == 0) {
            mp.write(pid, addr, 1);
            ++writes[slot];
        } else {
            mp.read(pid, addr, 1);
            ++reads[slot];
        }
    }

    std::vector<SharingSummary> arrays = mp.arraySummaries();
    ASSERT_EQ(arrays.size(), 4u);
    EXPECT_EQ(arrays[2].name, "gamma");
    EXPECT_EQ(arrays[3].name, "(unmapped)");
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(arrays[i].reads, reads[i]) << arrays[i].name;
        EXPECT_EQ(arrays[i].writes, writes[i]) << arrays[i].name;
    }
    EXPECT_GT(reads[2], 0u);
    EXPECT_GT(reads[3], 0u);
}

TEST(MissClassAttribution, NoAttachedSpaceMeansNoSummaries)
{
    Multiprocessor mp({1, 8});
    mp.read(0, 0, 8);
    EXPECT_TRUE(mp.arraySummaries().empty());
}

TEST(MissClassAttribution, AttributionDoesNotPerturbCurves)
{
    // Byte-determinism guard: the same trace with and without an
    // attached space must produce identical stats and curves.
    auto drive = [](Multiprocessor &mp) {
        std::mt19937_64 rng(5150);
        for (int i = 0; i < 5000; ++i) {
            auto pid = static_cast<ProcId>(rng() % 2);
            trace::Addr addr = 64 + (rng() % 256) * 8;
            if (rng() % 2)
                mp.write(pid, addr, 8);
            else
                mp.read(pid, addr, 8);
        }
    };
    trace::SharedAddressSpace space;
    space.allocate("blob", 4096);
    Multiprocessor with({2, 32});
    with.attachAddressSpace(&space);
    Multiprocessor without({2, 32});
    drive(with);
    drive(without);
    ProcStats a = with.aggregateStats();
    ProcStats b = without.aggregateStats();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.readCoherence, b.readCoherence);
    EXPECT_EQ(a.readTrueSharing, b.readTrueSharing);
    EXPECT_EQ(a.readFalseSharing, b.readFalseSharing);
    CurveSpec spec;
    spec.cacheSizesBytes = sweepSizes(32, 16384, 4, 32);
    auto ca = with.readMissRateCurve(spec, "x");
    auto cb = without.readMissRateCurve(spec, "x");
    ASSERT_EQ(ca.points().size(), cb.points().size());
    for (std::size_t i = 0; i < ca.points().size(); ++i)
        EXPECT_EQ(ca.points()[i].y, cb.points()[i].y);
}

// ---------------------------------------------------------------------
// Composition with sampling.
// ---------------------------------------------------------------------

TEST(MissClassSampling, ClassificationRestrictedToAdmittedLines)
{
    approx::SamplingConfig sampling;
    sampling.mode = approx::SamplingMode::FixedRate;
    sampling.rate = 0.5;
    Multiprocessor mp({2, 8, CoherenceProtocol::WriteInvalidate,
                       sampling});
    std::mt19937_64 rng(3);
    for (int i = 0; i < 10000; ++i) {
        auto pid = static_cast<ProcId>(rng() % 2);
        trace::Addr addr = (rng() % 64) * 8;
        if (rng() % 2)
            mp.write(pid, addr, 8);
        else
            mp.read(pid, addr, 8);
    }
    ProcStats agg = mp.aggregateStats();
    // The split still partitions the (admitted) coherence counter.
    EXPECT_EQ(agg.readTrueSharing + agg.readFalseSharing,
              agg.readCoherence);
    // Raw classified counts cannot exceed admitted references.
    EXPECT_LE(agg.readCoherence + agg.readCold +
                  agg.readDistances.totalSamples(),
              agg.sampledReads);
    // Scaled categories still sum to the scaled total.
    MissClassPoint p = mp.readMissClassesAt(64);
    CurveSpec spec;
    spec.cacheSizesBytes = {64 * 8};
    spec.includeCold = true;
    spec.sampling = sampling;
    double scaled_total =
        mp.readMissRateCurve(spec, "x")[0].y *
        static_cast<double>(agg.reads);
    EXPECT_NEAR(p.total(), scaled_total, 1e-9 * scaled_total + 1e-9);
}

TEST(MissClassSampling, SampledSplitEstimatesConvergeOnExact)
{
    // Same deterministic workload, exact vs 25% sampled: the estimated
    // sharing split must land within a loose statistical tolerance of
    // the exact one (tight accuracy is quantified in
    // test_approx_accuracy at study scale).
    auto drive = [](Multiprocessor &mp) {
        std::mt19937_64 rng(77);
        for (int i = 0; i < 200000; ++i) {
            auto pid = static_cast<ProcId>(rng() % 4);
            trace::Addr addr = (rng() % 4096) * 8;
            if (rng() % 3 == 0)
                mp.write(pid, addr, 8);
            else
                mp.read(pid, addr, 8);
        }
    };
    Multiprocessor exact({4, 32});
    drive(exact);
    approx::SamplingConfig sampling;
    sampling.mode = approx::SamplingMode::FixedRate;
    sampling.rate = 0.25;
    Multiprocessor sampled({4, 32, CoherenceProtocol::WriteInvalidate,
                            sampling});
    drive(sampled);

    MissClassPoint e = exact.readMissClassesAt(256);
    MissClassPoint s = sampled.readMissClassesAt(256);
    ASSERT_GT(e.trueSharing, 0.0);
    ASSERT_GT(e.falseSharing, 0.0);
    EXPECT_NEAR(s.trueSharing, e.trueSharing, 0.15 * e.trueSharing);
    EXPECT_NEAR(s.falseSharing, e.falseSharing, 0.15 * e.falseSharing);
    EXPECT_NEAR(s.capacity, e.capacity, 0.15 * e.capacity);
}

// ---------------------------------------------------------------------
// The protocol x hierarchy x sampling matrix.
// ---------------------------------------------------------------------

/**
 * The invariant harness's core claim: the four-way breakdown closes at
 * every swept size under EVERY protocol, EVERY node hierarchy, exact
 * or sampled. The hierarchy attaches concrete caches only — profiled
 * curves must not move — and the protocols only reshuffle which
 * category a miss lands in, never whether the categories sum.
 */
TEST(MissClassesMatrix, SumIdentityUnderEveryProtocolHierarchyAndSampling)
{
    const CoherenceProtocol kProtocols[] = {
        CoherenceProtocol::WriteInvalidate,
        CoherenceProtocol::WriteUpdate, CoherenceProtocol::Mi,
        CoherenceProtocol::Msi, CoherenceProtocol::Mesi};
    const char *kHierarchies[] = {"single", "incl:1024:16384",
                                  "excl:1024:16384"};

    for (CoherenceProtocol protocol : kProtocols) {
        for (const char *hier : kHierarchies) {
            for (bool sampled : {false, true}) {
                SCOPED_TRACE(std::string(coherenceProtocolName(
                                 protocol)) +
                             " / " + hier +
                             (sampled ? " / sampled" : " / exact"));
                approx::SamplingConfig sampling;
                if (sampled) {
                    sampling.mode = approx::SamplingMode::FixedRate;
                    sampling.rate = 0.5;
                }
                SimConfig config{4, 32, protocol, sampling,
                                 memsys::ProfilerKind::TreeMattson,
                                 memsys::parseHierarchySpec(hier)};
                Multiprocessor mp(config);
                std::mt19937_64 rng(512);
                for (int i = 0; i < 20000; ++i) {
                    auto pid = static_cast<ProcId>(rng() % 4);
                    trace::Addr addr = (rng() % 1024) * 8;
                    if (rng() % 3 == 0)
                        mp.write(pid, addr, 8);
                    else
                        mp.read(pid, addr, 8);
                }
                ProcStats agg = mp.aggregateStats();

                // Dubois partition of the coherence counters.
                EXPECT_EQ(agg.readTrueSharing + agg.readFalseSharing,
                          agg.readCoherence);
                EXPECT_EQ(agg.writeTrueSharing +
                              agg.writeFalseSharing,
                          agg.writeCoherence);

                CurveSpec spec;
                spec.cacheSizesBytes = sweepSizes(32, 1 << 19, 4, 32);
                spec.includeCold = true;
                spec.sampling = sampling;
                MissClassCurves mc = mp.readMissClassCurves(spec);
                stats::Curve total =
                    mp.readMissRateCurve(spec, "total");
                ASSERT_EQ(mc.points.size(),
                          spec.cacheSizesBytes.size());
                for (std::size_t i = 0; i < mc.points.size(); ++i) {
                    double have = mc.points[i].total();
                    if (sampled) {
                        // Scaled categories close on the scaled total.
                        double want =
                            total[i].y * static_cast<double>(agg.reads);
                        EXPECT_NEAR(have, want,
                                    1e-9 * want + 1e-9)
                            << "at size "
                            << spec.cacheSizesBytes[i];
                    } else {
                        std::uint64_t lines =
                            spec.cacheSizesBytes[i] / 32;
                        EXPECT_EQ(have,
                                  static_cast<double>(
                                      test::mattsonReadMisses(
                                          agg, lines,
                                          /*include_cold=*/true)))
                            << "at size "
                            << spec.cacheSizesBytes[i];
                    }
                }

                // Two-level machine points report per-level counters.
                memsys::HierarchyStats hs = mp.hierarchyStats();
                if (config.hierarchy.twoLevel()) {
                    EXPECT_GT(hs.accesses, 0u);
                    EXPECT_LE(hs.l2Misses, hs.l1Misses);
                    EXPECT_LE(hs.l1Misses, hs.accesses);
                } else {
                    EXPECT_EQ(hs.accesses, 0u);
                }
            }
        }
    }
}

/**
 * Parallel study execution stays byte-deterministic when the machine
 * axes are off their defaults: the same MESI + inclusive-two-level
 * batch at 1/2/4/8 workers emits identical report bytes.
 */
TEST(MissClassesMatrix, ReportsByteIdenticalAcrossWorkersOffDefaultAxes)
{
    core::StudyConfig sc;
    sc.minCacheBytes = 16;
    sc.protocol = CoherenceProtocol::Mesi;
    sc.hierarchy = memsys::parseHierarchySpec("incl:1024:16384");

    apps::lu::LuConfig lu;
    lu.n = 48;
    lu.blockSize = 8;
    lu.procRows = 2;
    lu.procCols = 2;
    apps::cg::CgConfig cg;
    cg.n = 48;
    cg.dims = 2;
    cg.procX = 2;
    cg.procY = 2;

    std::vector<core::StudyJob> jobs;
    jobs.push_back(core::luStudyJob(lu, sc));
    jobs.push_back(core::cgStudyJob(cg, 2, 1, sc));

    std::string baseline;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        core::RunnerConfig config;
        config.jobs = workers;
        core::StudyRunner runner(config);
        auto reports = runner.run(jobs);
        for (const core::JobReport &r : reports)
            ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
        std::string json = core::jsonReport(reports);
        // Off-default axes must actually show up in the artifact...
        EXPECT_NE(json.find("\"protocol\": \"mesi\""),
                  std::string::npos);
        EXPECT_NE(json.find("\"node_hierarchy\""), std::string::npos);
        // ...and the bytes must not depend on the worker count.
        if (baseline.empty())
            baseline = json;
        else
            EXPECT_EQ(json, baseline);
    }
}
