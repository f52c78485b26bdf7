/**
 * @file
 * Unit and property tests for the multiprocessor simulator: line
 * splitting, coherence classification, warm-up handling, curve
 * construction, cross-validation against concrete caches, references at
 * the top of the address space, and invariance of every result under
 * where lines fall on the directory's pages.
 */

#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mattson_misses.hh"
#include "memsys/fully_assoc_lru.hh"
#include "memsys/set_assoc.hh"
#include "sim/multiprocessor.hh"

using namespace wsg::sim;
using wsg::memsys::FullyAssocLru;

TEST(Multiprocessor, ConfigValidation)
{
    EXPECT_THROW(Multiprocessor({0, 8}), std::invalid_argument);
    EXPECT_THROW(Multiprocessor({65, 8}), std::invalid_argument);
    EXPECT_THROW(Multiprocessor({4, 0}), std::invalid_argument);
    EXPECT_THROW(Multiprocessor({4, 24}), std::invalid_argument);
    Multiprocessor ok({64, 32});
    EXPECT_EQ(ok.config().numProcs, 64u);
}

TEST(Multiprocessor, NumProcsAbove64RejectedNotCorrupted)
{
    // DirEntry.sharers is a u64 bitmask: a 65th processor would shift
    // past the top bit and silently alias sharer sets. The constructor
    // must refuse rather than corrupt.
    for (std::uint32_t procs : {65u, 128u, 1024u}) {
        EXPECT_THROW(Multiprocessor({procs, 8}), std::invalid_argument)
            << procs << " processors";
    }
    // The highest legal pid (63) must drive the full-width mask
    // correctly: a write by pid 63 invalidates pid 0's copy.
    Multiprocessor mp({64, 8});
    mp.read(0, 0, 8);
    mp.read(63, 0, 8);
    mp.write(63, 0, 8);
    mp.read(0, 0, 8);
    EXPECT_EQ(mp.procStats(0).readCoherence, 1u);
}

TEST(Multiprocessor, WideAccessSplitsIntoLines)
{
    Multiprocessor mp({1, 8});
    // 24-byte read spanning three 8-byte lines.
    mp.read(0, 8, 24);
    EXPECT_EQ(mp.procStats(0).reads, 3u);
    // Unaligned 8-byte read spanning two lines.
    mp.read(0, 4, 8);
    EXPECT_EQ(mp.procStats(0).reads, 5u);
    // Zero-byte access still touches its line.
    mp.read(0, 64, 0);
    EXPECT_EQ(mp.procStats(0).reads, 6u);
}

TEST(Multiprocessor, ColdThenFiniteClassification)
{
    Multiprocessor mp({1, 8});
    mp.read(0, 0, 8);
    mp.read(0, 0, 8);
    const ProcStats &st = mp.procStats(0);
    EXPECT_EQ(st.readCold, 1u);
    EXPECT_EQ(st.readDistances.totalSamples(), 1u);
    EXPECT_EQ(st.readDistances.count(0), 1u);
}

TEST(Multiprocessor, WriteInvalidatesOtherSharers)
{
    Multiprocessor mp({2, 8});
    mp.read(0, 0, 8);  // P0 caches the line
    mp.read(1, 0, 8);  // P1 caches it too
    mp.write(1, 0, 8); // P1 writes: P0's copy dies
    mp.read(0, 0, 8);  // P0 re-reads: coherence miss
    EXPECT_EQ(mp.procStats(0).readCoherence, 1u);
    // P1 still hits (it wrote last): one finite read at distance 0
    // (its first read was cold).
    mp.read(1, 0, 8);
    EXPECT_EQ(mp.procStats(1).readCoherence, 0u);
    EXPECT_EQ(mp.procStats(1).readCold, 1u);
    EXPECT_EQ(mp.procStats(1).readDistances.count(0), 1u);
}

TEST(Multiprocessor, WriterDoesNotInvalidateItself)
{
    Multiprocessor mp({2, 8});
    mp.read(0, 0, 8);
    mp.write(0, 0, 8);
    mp.read(0, 0, 8);
    EXPECT_EQ(mp.procStats(0).readCoherence, 0u);
    EXPECT_EQ(mp.procStats(0).writeCoherence, 0u);
}

TEST(Multiprocessor, CoherenceMissesPersistAtEveryCacheSize)
{
    Multiprocessor mp({2, 8});
    for (int rep = 0; rep < 10; ++rep) {
        mp.write(0, 0, 8);
        mp.read(1, 0, 8);
    }
    CurveSpec spec;
    spec.cacheSizesBytes = {8, 1024, 1 << 20};
    auto curve = mp.readMissRateCurve(spec, "coh");
    // Every P1 read misses regardless of cache size: 9 invalidation
    // misses plus the first read, which fetched data P0 produced
    // (inherent communication, not cold).
    for (const auto &pt : curve.points())
        EXPECT_NEAR(pt.y, 1.0, 1e-12);
}

TEST(Multiprocessor, FirstReadOfRemotelyProducedDataIsCommunication)
{
    Multiprocessor mp({2, 8});
    mp.write(0, 0, 8);  // P0 produces the line
    mp.read(1, 0, 8);   // P1 has never cached it: still communication
    EXPECT_EQ(mp.procStats(1).readCoherence, 1u);
    EXPECT_EQ(mp.procStats(1).readCold, 0u);
    // Untouched-by-writers data stays cold.
    mp.read(1, 64, 8);
    EXPECT_EQ(mp.procStats(1).readCold, 1u);
    // The producer's own first read of its data is cold, not comm.
    mp.write(0, 128, 8);
    mp.read(0, 128, 8);
    EXPECT_EQ(mp.procStats(0).readCoherence, 0u);
}

TEST(Multiprocessor, WarmupUpdatesStateButNotStats)
{
    Multiprocessor mp({1, 8});
    mp.setMeasuring(false);
    mp.read(0, 0, 8); // cold miss happens here, unrecorded
    mp.setMeasuring(true);
    mp.read(0, 0, 8); // now a hit at distance 0
    const ProcStats &st = mp.procStats(0);
    EXPECT_EQ(st.reads, 1u);
    EXPECT_EQ(st.readCold, 0u);
    EXPECT_EQ(st.readDistances.count(0), 1u);
}

TEST(Multiprocessor, FootprintTracksDistinctLines)
{
    Multiprocessor mp({2, 16});
    mp.read(0, 0, 16);
    mp.read(0, 16, 16);
    mp.read(0, 0, 16); // repeat: no new line
    mp.read(1, 256, 16);
    EXPECT_EQ(mp.footprintBytes(0), 32u);
    EXPECT_EQ(mp.footprintBytes(1), 16u);
    EXPECT_EQ(mp.maxFootprintBytes(), 32u);
}

TEST(Multiprocessor, MissRateCurveIsNonIncreasing)
{
    Multiprocessor mp({2, 8});
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<wsg::trace::Addr> addr(0, 4096);
    for (int i = 0; i < 20000; ++i) {
        wsg::trace::ProcId p = rng() % 2;
        if (rng() % 4 == 0)
            mp.write(p, addr(rng) * 8, 8);
        else
            mp.read(p, addr(rng) * 8, 8);
    }
    CurveSpec spec;
    spec.cacheSizesBytes = sweepSizes(8, 1 << 16, 4, 8);
    auto curve = mp.readMissRateCurve(spec, "rand");
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_LE(curve[i].y, curve[i - 1].y + 1e-12);
    EXPECT_GT(curve.maxY(), 0.0);
}

TEST(Multiprocessor, MissesPerFlopUsesDoubleWordUnits)
{
    Multiprocessor mp({1, 32}); // 4 double words per line
    mp.read(0, 0, 8); // one cold miss
    mp.read(0, 0, 8); // hit
    CurveSpec spec;
    spec.cacheSizesBytes = {32};
    spec.includeCold = true;
    auto curve = mp.missesPerFlopCurve(spec, 100, "flops");
    // 1 line miss * 4 words / 100 flops.
    EXPECT_NEAR(curve[0].y, 0.04, 1e-12);
}

TEST(Multiprocessor, AggregateSumsProcessors)
{
    Multiprocessor mp({2, 8});
    mp.read(0, 0, 8);
    mp.read(1, 8, 8);
    mp.write(1, 8, 8);
    ProcStats agg = mp.aggregateStats();
    EXPECT_EQ(agg.reads, 2u);
    EXPECT_EQ(agg.writes, 1u);
    EXPECT_EQ(agg.readCold, 2u);
}

/**
 * Cross-validation property: an attached concrete fully associative LRU
 * cache of capacity C lines reproduces exactly the miss count the
 * stack-distance profile predicts for size C on a read-only workload,
 * and bounds it from above once coherence invalidations are in play
 * (see LruStackBound in test_memsys_lru.cc for why).
 */
class ConcreteCacheCrossCheck : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ConcreteCacheCrossCheck, FullyAssocMatchesStackPrediction)
{
    unsigned capacity_lines = GetParam();
    Multiprocessor mp({2, 8});
    mp.attachCaches(
        [&] { return std::make_unique<FullyAssocLru>(capacity_lines); });

    std::mt19937_64 rng(17);
    std::uniform_int_distribution<wsg::trace::Addr> addr(0, 600);
    for (int i = 0; i < 30000; ++i) {
        wsg::trace::ProcId p = rng() % 2;
        mp.read(p, addr(rng) * 8, 8);
    }

    ProcStats agg = mp.aggregateStats();
    std::uint64_t predicted =
        wsg::test::mattsonReadMisses(agg, capacity_lines,
                                     /*include_cold=*/true);
    EXPECT_EQ(agg.concreteReadMisses, predicted);
    EXPECT_GT(mp.concreteReadMissRate(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ConcreteCacheCrossCheck,
                         ::testing::Values(1u, 4u, 16u, 64u, 256u,
                                           1024u));

TEST(ConcreteCacheWithWrites, StackPredictionIsTightLowerBound)
{
    constexpr unsigned capacity_lines = 64;
    Multiprocessor mp({2, 8});
    mp.attachCaches(
        [&] { return std::make_unique<FullyAssocLru>(capacity_lines); });

    std::mt19937_64 rng(18);
    std::uniform_int_distribution<wsg::trace::Addr> addr(0, 600);
    for (int i = 0; i < 30000; ++i) {
        wsg::trace::ProcId p = rng() % 2;
        if (rng() % 5 == 0)
            mp.write(p, addr(rng) * 8, 8);
        else
            mp.read(p, addr(rng) * 8, 8);
    }

    ProcStats agg = mp.aggregateStats();
    std::uint64_t predicted =
        wsg::test::mattsonReadMisses(agg, capacity_lines,
                                     /*include_cold=*/true);
    EXPECT_LE(predicted, agg.concreteReadMisses);
    EXPECT_LT(static_cast<double>(agg.concreteReadMisses - predicted),
              0.02 * static_cast<double>(agg.reads));
}

TEST(SweepSizes, GeneratesMonotoneLineMultiples)
{
    auto sizes = sweepSizes(64, 1 << 20, 4, 8);
    ASSERT_GE(sizes.size(), 10u);
    EXPECT_EQ(sizes.front(), 64u);
    EXPECT_EQ(sizes.back(), std::uint64_t{1} << 20);
    for (std::size_t i = 1; i < sizes.size(); ++i) {
        EXPECT_GT(sizes[i], sizes[i - 1]);
        EXPECT_EQ(sizes[i] % 8, 0u);
    }
}

TEST(SweepSizes, ClampsMinToLineSize)
{
    auto sizes = sweepSizes(1, 64, 2, 16);
    EXPECT_EQ(sizes.front(), 16u);
    for (auto s : sizes)
        EXPECT_EQ(s % 16, 0u);
}

TEST(Multiprocessor, RejectsOutOfRangeProcessorIds)
{
    Multiprocessor mp({2, 8});
    EXPECT_THROW(mp.read(2, 0, 8), std::out_of_range);
    EXPECT_THROW(mp.write(63, 0, 8), std::out_of_range);
}

TEST(Multiprocessor, WriteMissesAtMirrorsReadAccounting)
{
    Multiprocessor mp({2, 8});
    mp.write(0, 0, 8);  // cold write
    mp.write(0, 0, 8);  // distance-0 write
    mp.read(1, 0, 8);   // communication read
    mp.write(1, 0, 8);  // write upgrade (finite for P1, invalidates P0)
    mp.write(0, 0, 8);  // coherence write for P0
    ProcStats agg = mp.aggregateStats();
    EXPECT_EQ(agg.writeCold, 1u);
    EXPECT_EQ(agg.writeCoherence, 1u);
    // With a 1-line cache everything finite at distance 0 still hits.
    EXPECT_EQ(wsg::test::mattsonWriteMisses(agg, 1, true), 2u);
    EXPECT_EQ(wsg::test::mattsonWriteMisses(agg, 1, false), 1u);
}

TEST(Multiprocessor, TrafficCurveCountsFillsAndWritebacks)
{
    Multiprocessor mp({1, 32});
    mp.read(0, 0, 8);   // 1 read fill
    mp.write(0, 64, 8); // 1 write fill + eventual writeback
    CurveSpec spec;
    spec.cacheSizesBytes = {32};
    spec.includeCold = true;
    auto curve = mp.trafficPerFlopCurve(spec, 100, "traffic");
    // (1 + 2*1) * 32 bytes / 100 flops.
    EXPECT_NEAR(curve[0].y, 0.96, 1e-12);
}

TEST(Multiprocessor, TrafficCurveIsNonIncreasing)
{
    Multiprocessor mp({2, 8});
    std::mt19937_64 rng(23);
    for (int i = 0; i < 30000; ++i) {
        wsg::trace::ProcId p = rng() % 2;
        if (rng() % 3 == 0)
            mp.write(p, (rng() % 2048) * 8, 8);
        else
            mp.read(p, (rng() % 2048) * 8, 8);
    }
    CurveSpec spec;
    spec.cacheSizesBytes = sweepSizes(8, 1 << 15, 4, 8);
    auto curve = mp.trafficPerFlopCurve(spec, 1000000, "t");
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_LE(curve[i].y, curve[i - 1].y + 1e-12);
}

TEST(WriteUpdate, SharersKeepTheirCopies)
{
    Multiprocessor mp({2, 8, CoherenceProtocol::WriteUpdate});
    mp.read(0, 0, 8);
    mp.read(1, 0, 8);
    mp.write(0, 0, 8); // updates P1 instead of invalidating
    mp.read(1, 0, 8);  // still a hit
    EXPECT_EQ(mp.procStats(1).readCoherence, 0u);
    EXPECT_EQ(mp.procStats(1).readDistances.count(0), 1u);
    EXPECT_EQ(mp.procStats(0).updatesSent, 1u);
}

TEST(WriteUpdate, UpdateMessagesCountOtherSharersOnly)
{
    Multiprocessor mp({4, 8, CoherenceProtocol::WriteUpdate});
    for (wsg::trace::ProcId p = 0; p < 4; ++p)
        mp.read(p, 0, 8);
    mp.write(3, 0, 8); // three other sharers
    EXPECT_EQ(mp.procStats(3).updatesSent, 3u);
    mp.write(3, 0, 8); // sharers unchanged: three again
    EXPECT_EQ(mp.procStats(3).updatesSent, 6u);
    // A private line costs nothing.
    mp.write(2, 512, 8);
    EXPECT_EQ(mp.procStats(2).updatesSent, 0u);
}

TEST(WriteUpdate, WarmupSuppressesUpdateCounting)
{
    Multiprocessor mp({2, 8, CoherenceProtocol::WriteUpdate});
    mp.read(1, 0, 8);
    mp.setMeasuring(false);
    mp.write(0, 0, 8);
    EXPECT_EQ(mp.procStats(0).updatesSent, 0u);
    mp.setMeasuring(true);
    mp.write(0, 0, 8);
    EXPECT_EQ(mp.procStats(0).updatesSent, 1u);
}

TEST(WriteUpdate, EliminatesPingPongMisses)
{
    // Producer-consumer ping-pong: invalidate pays a miss per exchange,
    // update pays a message per exchange but no misses.
    Multiprocessor wi({2, 8, CoherenceProtocol::WriteInvalidate});
    Multiprocessor wu({2, 8, CoherenceProtocol::WriteUpdate});
    for (auto *mp : {&wi, &wu}) {
        for (int i = 0; i < 100; ++i) {
            mp->write(0, 0, 8);
            mp->read(1, 0, 8);
        }
    }
    EXPECT_GE(wi.aggregateStats().readCoherence, 99u);
    EXPECT_EQ(wu.aggregateStats().readCoherence, 1u); // first fetch only
    EXPECT_EQ(wu.aggregateStats().updatesSent, 99u);
    EXPECT_EQ(wi.aggregateStats().updatesSent, 0u);
}

TEST(WriteUpdate, DefaultProtocolIsInvalidate)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.protocol, CoherenceProtocol::WriteInvalidate);
}

TEST(Multiprocessor, PerProcessorCurvesSumToAggregate)
{
    Multiprocessor mp({4, 8});
    std::mt19937_64 rng(31);
    for (int i = 0; i < 20000; ++i) {
        wsg::trace::ProcId p = rng() % 4;
        mp.read(p, ((rng() % 512) + 600 * p) * 8, 8);
    }
    CurveSpec spec;
    spec.cacheSizesBytes = {64, 1024, 16384};

    auto agg = mp.readMissRateCurve(spec, "agg");
    for (std::size_t k = 0; k < spec.cacheSizesBytes.size(); ++k) {
        double weighted = 0.0;
        std::uint64_t reads = 0;
        for (wsg::trace::ProcId p = 0; p < 4; ++p) {
            auto c = mp.procReadMissRateCurve(p, spec, "p");
            weighted += c[k].y *
                        static_cast<double>(mp.procStats(p).reads);
            reads += mp.procStats(p).reads;
        }
        EXPECT_NEAR(agg[k].y, weighted / static_cast<double>(reads),
                    1e-12);
    }
}

TEST(Multiprocessor, SymmetricWorkloadGivesSimilarPerProcCurves)
{
    // Disjoint but identically-shaped per-PE access patterns must give
    // near-identical per-processor curves.
    Multiprocessor mp({2, 8});
    for (int rep = 0; rep < 3; ++rep)
        for (wsg::trace::Addr a = 0; a < 256; ++a)
            for (wsg::trace::ProcId p = 0; p < 2; ++p)
                mp.read(p, (a + 4096 * p) * 8, 8);
    CurveSpec spec;
    spec.cacheSizesBytes = sweepSizes(8, 4096, 2, 8);
    auto c0 = mp.procReadMissRateCurve(0, spec, "p0");
    auto c1 = mp.procReadMissRateCurve(1, spec, "p1");
    ASSERT_EQ(c0.size(), c1.size());
    for (std::size_t i = 0; i < c0.size(); ++i)
        EXPECT_NEAR(c0[i].y, c1[i].y, 1e-12);
}

// ---- Address-space edges and the paged directory ----

namespace
{

constexpr wsg::trace::Addr kTopAddr = ~wsg::trace::Addr{0};

void
expectSameHistogram(const wsg::stats::Histogram &a,
                    const wsg::stats::Histogram &b)
{
    ASSERT_EQ(a.totalSamples(), b.totalSamples());
    ASSERT_EQ(a.infiniteSamples(), b.infiniteSamples());
    ASSERT_EQ(a.maxValue(), b.maxValue());
    for (std::uint64_t v = 0; v <= a.maxValue(); ++v)
        ASSERT_EQ(a.count(v), b.count(v)) << "bucket " << v;
}

void
expectSameStats(const ProcStats &a, const ProcStats &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.sampledReads, b.sampledReads);
    EXPECT_EQ(a.sampledWrites, b.sampledWrites);
    EXPECT_EQ(a.readCold, b.readCold);
    EXPECT_EQ(a.readCoherence, b.readCoherence);
    EXPECT_EQ(a.writeCold, b.writeCold);
    EXPECT_EQ(a.writeCoherence, b.writeCoherence);
    EXPECT_EQ(a.readTrueSharing, b.readTrueSharing);
    EXPECT_EQ(a.readFalseSharing, b.readFalseSharing);
    EXPECT_EQ(a.writeTrueSharing, b.writeTrueSharing);
    EXPECT_EQ(a.writeFalseSharing, b.writeFalseSharing);
    EXPECT_EQ(a.updatesSent, b.updatesSent);
    EXPECT_EQ(a.invalidationsSent, b.invalidationsSent);
    EXPECT_EQ(a.upgradesSent, b.upgradesSent);
    expectSameHistogram(a.readDistances, b.readDistances);
    expectSameHistogram(a.writeDistances, b.writeDistances);
}

void
expectSameSummaries(const std::vector<SharingSummary> &a,
                    const std::vector<SharingSummary> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].reads, b[i].reads) << a[i].name;
        EXPECT_EQ(a[i].writes, b[i].writes) << a[i].name;
        EXPECT_EQ(a[i].readCold, b[i].readCold) << a[i].name;
        EXPECT_EQ(a[i].writeCold, b[i].writeCold) << a[i].name;
        EXPECT_EQ(a[i].readTrueSharing, b[i].readTrueSharing) << a[i].name;
        EXPECT_EQ(a[i].readFalseSharing, b[i].readFalseSharing)
            << a[i].name;
        EXPECT_EQ(a[i].writeTrueSharing, b[i].writeTrueSharing)
            << a[i].name;
        EXPECT_EQ(a[i].writeFalseSharing, b[i].writeFalseSharing)
            << a[i].name;
    }
}

} // namespace

TEST(Multiprocessor, TopLineOfAddressSpaceTerminates)
{
    // The last line of the 64-bit space: stepping a byte address past
    // it wraps to 0, which must not restart the line walk. (This test
    // carries a ctest TIMEOUT because the failure mode is a hang.)
    Multiprocessor mp({1, 8});
    mp.read(0, kTopAddr - 7, 8);
    mp.write(0, kTopAddr - 7, 8);
    EXPECT_EQ(mp.procStats(0).reads, 1u);
    EXPECT_EQ(mp.procStats(0).writes, 1u);
    EXPECT_EQ(mp.procStats(0).readCold, 1u);
    EXPECT_EQ(mp.procStats(0).writeDistances.count(0), 1u);

    // The very last byte alone, and a reference spanning the last two
    // lines.
    mp.read(0, kTopAddr, 1);
    EXPECT_EQ(mp.procStats(0).reads, 2u);
    Multiprocessor wide({1, 64});
    wide.read(0, kTopAddr - 127, 128);
    EXPECT_EQ(wide.procStats(0).reads, 2u);
}

TEST(Multiprocessor, ReferenceWrappingPastTopThrows)
{
    // A reference whose last byte lies past 2^64 - 1 is malformed
    // input; it must be rejected, not dropped uncounted.
    Multiprocessor mp({1, 8});
    EXPECT_THROW(mp.read(0, kTopAddr - 3, 8), std::out_of_range);
    EXPECT_THROW(mp.write(0, kTopAddr, 2), std::out_of_range);
    EXPECT_EQ(mp.procStats(0).reads, 0u);
    EXPECT_EQ(mp.procStats(0).writes, 0u);
}

TEST(Multiprocessor, PendingWordsOfLinesFarApartStayApart)
{
    // Pending-word entries of lines 2^58 apart must stay distinct: a
    // key of line * 64 + pid aliases them, and the second claim then
    // finds no entry.
    Multiprocessor mp({2, 8});
    const wsg::trace::Addr lines[] = {5, 5 + (wsg::trace::Addr{1} << 58)};
    for (wsg::trace::Addr line : lines)
        mp.read(1, line * 8, 8);
    for (wsg::trace::Addr line : lines)
        mp.write(0, line * 8, 8);
    for (wsg::trace::Addr line : lines)
        mp.read(1, line * 8, 8);
    const ProcStats &st = mp.procStats(1);
    EXPECT_EQ(st.readCoherence, 2u);
    EXPECT_EQ(st.readTrueSharing, 2u);
    EXPECT_EQ(st.readFalseSharing, 0u);
    EXPECT_EQ(mp.procStats(0).invalidationsSent, 2u);
}

TEST(Multiprocessor, DirectoryPagePlacementDoesNotChangeResults)
{
    // The directory pages its entries 64 lines at a time. Where a
    // region of lines lands relative to those pages must not matter:
    // run one seeded 4-processor stream twice, the second time with
    // every 64-line region moved 2^32 bytes from its neighbours and
    // shifted by 37 lines, so each region straddles two pages and
    // multi-line references cross page boundaries.
    constexpr std::uint32_t kLine = 16;
    constexpr wsg::trace::Addr kRegion = 64 * kLine;
    constexpr wsg::trace::Addr kStride = wsg::trace::Addr{1} << 32;
    constexpr wsg::trace::Addr kShift = 37 * kLine;
    const std::uint64_t kSegmentRegions[] = {4, 3, 5};

    wsg::trace::SharedAddressSpace dense(kRegion);
    wsg::trace::SharedAddressSpace scattered(kStride);
    for (std::size_t k = 0; k < 3; ++k) {
        std::string name = "array" + std::to_string(k);
        dense.allocate(name, kSegmentRegions[k] * kRegion);
        scattered.allocate(name, kSegmentRegions[k] * kStride);
    }
    const wsg::trace::Addr dense_base = dense.segments()[0].base;
    const wsg::trace::Addr scattered_base = scattered.segments()[0].base;
    auto scatter = [&](wsg::trace::Addr addr) {
        wsg::trace::Addr off = addr - dense_base;
        return scattered_base + (off / kRegion) * kStride + kShift +
               off % kRegion;
    };

    Multiprocessor a({4, kLine});
    Multiprocessor b({4, kLine});
    a.attachAddressSpace(&dense);
    b.attachAddressSpace(&scattered);
    // 12 mapped regions plus 2 past the last segment (unmapped).
    constexpr std::uint64_t kRegions = 14;
    std::mt19937_64 rng(41);
    for (int i = 0; i < 60000; ++i) {
        if (i == 6000) {
            a.setMeasuring(false);
            b.setMeasuring(false);
        } else if (i == 12000) {
            a.setMeasuring(true);
            b.setMeasuring(true);
        }
        auto pid = static_cast<wsg::trace::ProcId>(rng() % 4);
        // Each processor favours its own quarter of the regions, with
        // a quarter of its references going anywhere.
        std::uint64_t region = rng() % 4 == 0
                                   ? rng() % kRegions
                                   : (pid * 4 + rng() % 4) % kRegions;
        // 1..40 bytes at any byte offset that keeps the reference
        // inside its region.
        auto bytes = static_cast<std::uint32_t>(1 + rng() % 40);
        wsg::trace::Addr off = rng() % (kRegion - bytes + 1);
        wsg::trace::Addr addr = dense_base + region * kRegion + off;
        if (rng() % 3 == 0) {
            a.write(pid, addr, bytes);
            b.write(pid, scatter(addr), bytes);
        } else {
            a.read(pid, addr, bytes);
            b.read(pid, scatter(addr), bytes);
        }
    }

    for (wsg::trace::ProcId p = 0; p < 4; ++p)
        expectSameStats(a.procStats(p), b.procStats(p));
    ASSERT_GT(a.aggregateStats().readFalseSharing, 0u);
    ASSERT_GT(a.aggregateStats().writeTrueSharing, 0u);
    expectSameSummaries(a.procSummaries(), b.procSummaries());
    auto arrays = a.arraySummaries();
    ASSERT_EQ(arrays.size(), 4u);
    EXPECT_EQ(arrays.back().name, "(unmapped)");
    expectSameSummaries(arrays, b.arraySummaries());
    CurveSpec spec;
    spec.cacheSizesBytes = sweepSizes(kLine, 64 * kRegion, 4, kLine);
    MissClassCurves ca = a.readMissClassCurves(spec);
    MissClassCurves cb = b.readMissClassCurves(spec);
    ASSERT_EQ(ca.points.size(), cb.points.size());
    for (std::size_t i = 0; i < ca.points.size(); ++i) {
        EXPECT_EQ(ca.points[i].cold, cb.points[i].cold) << i;
        EXPECT_EQ(ca.points[i].capacity, cb.points[i].capacity) << i;
        EXPECT_EQ(ca.points[i].trueSharing, cb.points[i].trueSharing)
            << i;
        EXPECT_EQ(ca.points[i].falseSharing, cb.points[i].falseSharing)
            << i;
    }
}
