/**
 * @file
 * Unit and property tests for the exact stack-distance profiler
 * (tree-Mattson), checked against the explicit-stack oracle.
 */

#include <random>

#include <gtest/gtest.h>

#include "memsys/tree_stack_distance.hh"
#include "naive_stack_profiler.hh"

using namespace wsg::memsys;
using wsg::test::NaiveStackProfiler;

TEST(StackDistance, FirstAccessIsCold)
{
    TreeStackDistanceProfiler prof;
    DistanceSample s = prof.access(42);
    EXPECT_EQ(s.kind, RefClass::Cold);
    EXPECT_EQ(prof.liveLines(), 1u);
    EXPECT_EQ(prof.touchedLines(), 1u);
}

TEST(StackDistance, ImmediateReuseHasDistanceZero)
{
    TreeStackDistanceProfiler prof;
    prof.access(1);
    DistanceSample s = prof.access(1);
    EXPECT_EQ(s.kind, RefClass::Finite);
    EXPECT_EQ(s.distance, 0u);
}

TEST(StackDistance, DistanceCountsDistinctInterveningLines)
{
    TreeStackDistanceProfiler prof;
    prof.access(1);
    prof.access(2);
    prof.access(3);
    prof.access(2); // touching 2 again doesn't add a distinct line
    DistanceSample s = prof.access(1);
    EXPECT_EQ(s.kind, RefClass::Finite);
    EXPECT_EQ(s.distance, 2u); // {2, 3}
}

TEST(StackDistance, InvalidationMakesNextAccessCoherence)
{
    TreeStackDistanceProfiler prof;
    prof.access(5);
    EXPECT_TRUE(prof.invalidate(5));
    EXPECT_EQ(prof.liveLines(), 0u);
    DistanceSample s = prof.access(5);
    EXPECT_EQ(s.kind, RefClass::Coherence);
    // And once re-fetched it is finite again.
    EXPECT_EQ(prof.access(5).kind, RefClass::Finite);
}

TEST(StackDistance, InvalidateUnknownOrTombstonedLine)
{
    TreeStackDistanceProfiler prof;
    EXPECT_FALSE(prof.invalidate(9));
    prof.access(9);
    EXPECT_TRUE(prof.invalidate(9));
    EXPECT_FALSE(prof.invalidate(9));
}

TEST(StackDistance, InvalidatedLinesLeaveTheStack)
{
    TreeStackDistanceProfiler prof;
    prof.access(1);
    prof.access(2);
    prof.access(3);
    prof.invalidate(2);
    // Distance to 1 should now skip the dead line 2.
    DistanceSample s = prof.access(1);
    EXPECT_EQ(s.distance, 1u); // only {3}
}

TEST(StackDistance, ClearForgetsHistory)
{
    TreeStackDistanceProfiler prof;
    prof.access(1);
    prof.clear();
    EXPECT_EQ(prof.access(1).kind, RefClass::Cold);
    EXPECT_EQ(prof.liveLines(), 1u);
}

TEST(StackDistance, CompactionPreservesBehaviour)
{
    // Drive the stamp span well past the 2^16 renumbering floor to
    // force renumberings (the tree's compaction) and verify distances
    // stay correct against the naive model.
    TreeStackDistanceProfiler fast;
    NaiveStackProfiler slow;
    std::mt19937_64 rng(11);
    std::uniform_int_distribution<Addr> addr(0, 63);
    for (int i = 0; i < 300000; ++i) {
        Addr a = addr(rng);
        DistanceSample f = fast.access(a);
        DistanceSample s = slow.access(a);
        ASSERT_EQ(static_cast<int>(f.kind), static_cast<int>(s.kind))
            << "step " << i;
        if (f.kind == RefClass::Finite) {
            ASSERT_EQ(f.distance, s.distance) << "step " << i;
        }
    }
}

/**
 * Property: the tree profiler agrees with the naive O(n) stack on
 * random traces mixing accesses and invalidations.
 */
class StackDistanceRandom : public ::testing::TestWithParam<unsigned>
{};

TEST_P(StackDistanceRandom, MatchesNaiveReference)
{
    std::mt19937_64 rng(GetParam());
    std::uniform_int_distribution<Addr> addr(0, 255);
    TreeStackDistanceProfiler fast;
    NaiveStackProfiler slow;

    for (int i = 0; i < 30000; ++i) {
        Addr a = addr(rng);
        if (rng() % 11 == 0) {
            EXPECT_EQ(fast.invalidate(a), slow.invalidate(a));
            EXPECT_EQ(fast.liveLines(), slow.liveLines());
            continue;
        }
        DistanceSample f = fast.access(a);
        DistanceSample s = slow.access(a);
        ASSERT_EQ(static_cast<int>(f.kind), static_cast<int>(s.kind))
            << "step " << i << " addr " << a;
        if (f.kind == RefClass::Finite) {
            ASSERT_EQ(f.distance, s.distance) << "step " << i;
        }
        ASSERT_EQ(fast.liveLines(), slow.liveLines());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackDistanceRandom,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

/**
 * Property: on long random traces whose *interleaved invalidations*
 * create tombstones that survive timestamp renumbering, the tree
 * profiler still agrees with the naive stack on the Cold / Coherence /
 * Finite classification of EVERY reference, on every distance, and on
 * the live-line count. The trace length (160k references per seed) is
 * well past the 2^16 renumbering floor, so each run crosses multiple
 * renumberings *with tombstones present* — the case the plain
 * CompactionPreservesBehaviour test (no invalidations) never reaches.
 */
class StackDistanceCompaction : public ::testing::TestWithParam<unsigned>
{};

TEST_P(StackDistanceCompaction, InvalidationsSurviveCompaction)
{
    constexpr int kRefs = 160000; // > 2 renumberings at a 2^16 span
    std::mt19937_64 rng(GetParam());
    std::uniform_int_distribution<Addr> addr(0, 319);
    TreeStackDistanceProfiler fast;
    NaiveStackProfiler slow;

    int seen_cold = 0, seen_coherence = 0, seen_finite = 0;
    int invalidations = 0;
    for (int i = 0; i < kRefs; ++i) {
        Addr a = addr(rng);
        if (rng() % 7 == 0) {
            ASSERT_EQ(fast.invalidate(a), slow.invalidate(a))
                << "step " << i << " addr " << a;
            ASSERT_EQ(fast.liveLines(), slow.liveLines())
                << "step " << i;
            ++invalidations;
            continue;
        }
        DistanceSample f = fast.access(a);
        DistanceSample s = slow.access(a);
        ASSERT_EQ(static_cast<int>(f.kind), static_cast<int>(s.kind))
            << "step " << i << " addr " << a;
        switch (f.kind) {
          case RefClass::Cold: ++seen_cold; break;
          case RefClass::Coherence: ++seen_coherence; break;
          case RefClass::Finite:
            ++seen_finite;
            ASSERT_EQ(f.distance, s.distance)
                << "step " << i << " addr " << a;
            break;
        }
        ASSERT_EQ(fast.liveLines(), slow.liveLines()) << "step " << i;
    }
    // The trace must actually have exercised all three classes and the
    // invalidation path, or this property test proves nothing.
    EXPECT_EQ(seen_cold, 320);
    EXPECT_GT(seen_coherence, 1000);
    EXPECT_GT(seen_finite, 100000);
    EXPECT_GT(invalidations, 10000);
    // And the footprint must count every line ever touched, not just
    // the live ones.
    EXPECT_EQ(fast.touchedLines(), 320u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackDistanceCompaction,
                         ::testing::Values(1u, 42u, 20260805u));

TEST(StackDistance, SequentialScanDistances)
{
    // Scanning K distinct lines repeatedly: after warm-up, every access
    // has distance K-1.
    constexpr Addr K = 100;
    TreeStackDistanceProfiler prof;
    for (Addr a = 0; a < K; ++a)
        prof.access(a);
    for (int rep = 0; rep < 3; ++rep) {
        for (Addr a = 0; a < K; ++a) {
            DistanceSample s = prof.access(a);
            ASSERT_EQ(s.kind, RefClass::Finite);
            ASSERT_EQ(s.distance, K - 1);
        }
    }
}
