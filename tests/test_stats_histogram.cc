/**
 * @file
 * Unit tests for stats::Histogram.
 */

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "stats/histogram.hh"

using wsg::stats::Histogram;

TEST(Histogram, EmptyHistogram)
{
    Histogram h;
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_EQ(h.infiniteSamples(), 0u);
    EXPECT_EQ(h.count(5), 0u);
    EXPECT_EQ(h.countAtLeast(0), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
}

TEST(Histogram, CountsAndCountAtLeast)
{
    Histogram h;
    h.addSample(0);
    h.addSample(3);
    h.addSample(3);
    h.addSample(7);
    h.addInfiniteSample();

    EXPECT_EQ(h.totalSamples(), 5u);
    EXPECT_EQ(h.infiniteSamples(), 1u);
    EXPECT_EQ(h.count(3), 2u);
    EXPECT_EQ(h.count(100), 0u);
    EXPECT_EQ(h.maxValue(), 7u);

    // countAtLeast includes the infinite bucket.
    EXPECT_EQ(h.countAtLeast(0), 5u);
    EXPECT_EQ(h.countAtLeast(1), 4u);
    EXPECT_EQ(h.countAtLeast(4), 2u);
    EXPECT_EQ(h.countAtLeast(8), 1u);
    EXPECT_EQ(h.countAtLeast(1000), 1u);
}

TEST(Histogram, MergeAddsEverything)
{
    Histogram a, b;
    a.addSample(1);
    a.addInfiniteSample();
    b.addSample(1);
    b.addSample(9);
    a.merge(b);
    EXPECT_EQ(a.totalSamples(), 4u);
    EXPECT_EQ(a.count(1), 2u);
    EXPECT_EQ(a.count(9), 1u);
    EXPECT_EQ(a.infiniteSamples(), 1u);
    EXPECT_EQ(a.maxValue(), 9u);
}

TEST(Histogram, ClearResets)
{
    Histogram h;
    h.addSample(4);
    h.addInfiniteSample();
    h.clear();
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_EQ(h.countAtLeast(0), 0u);
}

/**
 * Property: countAtLeast agrees with a brute-force recount, and
 * countsAtLeast agrees with countAtLeast at every value.
 */
class HistogramRandom : public ::testing::TestWithParam<unsigned>
{};

TEST_P(HistogramRandom, CountAtLeastMatchesBruteForce)
{
    std::mt19937_64 rng(GetParam());
    std::uniform_int_distribution<std::uint64_t> dist(0, 200);
    Histogram h;
    std::vector<std::uint64_t> samples;
    std::uint64_t infinite = 0;
    for (int i = 0; i < 2000; ++i) {
        if (rng() % 10 == 0) {
            h.addInfiniteSample();
            ++infinite;
        } else {
            std::uint64_t v = dist(rng);
            h.addSample(v);
            samples.push_back(v);
        }
    }
    for (std::uint64_t q : {0ull, 1ull, 17ull, 100ull, 199ull, 200ull,
                            201ull, 10000ull}) {
        std::uint64_t expect = infinite;
        for (auto s : samples) {
            if (s >= q)
                ++expect;
        }
        EXPECT_EQ(h.countAtLeast(q), expect) << "threshold " << q;
    }

    // countsAtLeast answers every value in [0, max + 2] in one pass,
    // shuffled and with repeats, exactly as countAtLeast does one at a
    // time; so it must on an empty and an infinite-only histogram too.
    Histogram empty;
    Histogram infinite_only;
    for (std::uint64_t i = 0; i < infinite; ++i)
        infinite_only.addInfiniteSample();
    for (const Histogram *hist : {&h, &empty, &infinite_only}) {
        std::vector<std::uint64_t> values;
        for (std::uint64_t v = 0; v <= hist->maxValue() + 2; ++v)
            values.push_back(v);
        values.push_back(0);
        values.push_back(hist->maxValue() + 1);
        std::shuffle(values.begin(), values.end(), rng);
        std::vector<std::uint64_t> counts = hist->countsAtLeast(values);
        ASSERT_EQ(counts.size(), values.size());
        for (std::size_t i = 0; i < values.size(); ++i) {
            EXPECT_EQ(counts[i], hist->countAtLeast(values[i]))
                << "value " << values[i];
        }
    }
    EXPECT_TRUE(h.countsAtLeast({}).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));
