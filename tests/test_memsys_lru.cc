/**
 * @file
 * Unit tests for the fully associative LRU cache, including the
 * equivalence property against the stack-distance profiler.
 */

#include <random>

#include <gtest/gtest.h>

#include "memsys/fully_assoc_lru.hh"
#include "memsys/tree_stack_distance.hh"

using namespace wsg::memsys;

TEST(FullyAssocLru, HitsAndMisses)
{
    FullyAssocLru cache(2);
    EXPECT_EQ(cache.access(1), AccessOutcome::Miss);
    EXPECT_EQ(cache.access(2), AccessOutcome::Miss);
    EXPECT_EQ(cache.access(1), AccessOutcome::Hit);
    EXPECT_EQ(cache.residentLines(), 2u);
    EXPECT_EQ(cache.capacityLines(), 2u);
}

TEST(FullyAssocLru, EvictsLeastRecentlyUsed)
{
    FullyAssocLru cache(2);
    cache.access(1);
    cache.access(2);
    cache.access(1);            // 1 is now MRU
    cache.access(3);            // evicts 2
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
}

TEST(FullyAssocLru, InvalidateRemovesLine)
{
    FullyAssocLru cache(4);
    cache.access(7);
    EXPECT_TRUE(cache.invalidate(7));
    EXPECT_FALSE(cache.contains(7));
    EXPECT_FALSE(cache.invalidate(7)); // second time: not present
    EXPECT_EQ(cache.access(7), AccessOutcome::Miss);
}

TEST(FullyAssocLru, ClearEmptiesCache)
{
    FullyAssocLru cache(4);
    cache.access(1);
    cache.access(2);
    cache.clear();
    EXPECT_EQ(cache.residentLines(), 0u);
    EXPECT_EQ(cache.access(1), AccessOutcome::Miss);
}

TEST(FullyAssocLru, ZeroCapacityRejected)
{
    EXPECT_THROW(FullyAssocLru(0), std::invalid_argument);
}

TEST(FullyAssocLru, CapacityOneThrashes)
{
    FullyAssocLru cache(1);
    cache.access(1);
    cache.access(2);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_EQ(cache.access(1), AccessOutcome::Miss);
}

/**
 * Property (Mattson inclusion): without invalidations, an LRU cache of
 * capacity C misses exactly on the references whose stack distance is
 * >= C (or Cold).
 */
class LruStackEquivalence
    : public ::testing::TestWithParam<std::pair<unsigned, std::uint64_t>>
{};

TEST_P(LruStackEquivalence, MissIffDistanceAtLeastCapacity)
{
    auto [seed, capacity] = GetParam();
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<Addr> addr(0, 96);

    FullyAssocLru cache(capacity);
    TreeStackDistanceProfiler prof;

    for (int i = 0; i < 20000; ++i) {
        Addr a = addr(rng);
        bool cache_miss = cache.access(a) == AccessOutcome::Miss;
        DistanceSample s = prof.access(a);
        bool predicted_miss = s.kind != RefClass::Finite ||
                              s.distance >= capacity;
        ASSERT_EQ(cache_miss, predicted_miss)
            << "step " << i << " addr " << a;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCapacities, LruStackEquivalence,
    ::testing::Values(std::pair{1u, std::uint64_t{1}},
                      std::pair{2u, std::uint64_t{2}},
                      std::pair{3u, std::uint64_t{8}},
                      std::pair{4u, std::uint64_t{32}},
                      std::pair{5u, std::uint64_t{64}},
                      std::pair{6u, std::uint64_t{97}}));

/**
 * With invalidations the stack prediction becomes a LOWER bound on the
 * concrete miss count (an invalidation can promote lines in the stack
 * that a real cache already evicted), and capacity-1 caches stay exact
 * (distance 0 is achievable only by back-to-back accesses).
 */
TEST(LruStackBound, InvalidationsMakePredictionOptimistic)
{
    std::mt19937_64 rng(12);
    std::uniform_int_distribution<Addr> addr(0, 96);
    constexpr std::uint64_t capacity = 16;

    FullyAssocLru cache(capacity);
    TreeStackDistanceProfiler prof;
    std::uint64_t concrete = 0, predicted = 0, total = 0;

    for (int i = 0; i < 50000; ++i) {
        Addr a = addr(rng);
        if (rng() % 9 == 0) {
            // The cache may have evicted the line the stack still holds,
            // so the cache can only invalidate a subset.
            bool in_cache = cache.invalidate(a);
            bool in_stack = prof.invalidate(a);
            EXPECT_LE(in_cache, in_stack);
            continue;
        }
        ++total;
        concrete += cache.access(a) == AccessOutcome::Miss;
        DistanceSample s = prof.access(a);
        predicted +=
            s.kind != RefClass::Finite || s.distance >= capacity;
    }
    EXPECT_LE(predicted, concrete);
    // ... but the over-optimism is marginal on realistic traces.
    EXPECT_LT(static_cast<double>(concrete - predicted),
              0.02 * static_cast<double>(total));
}
