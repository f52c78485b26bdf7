/**
 * @file
 * Unit tests for the knee detector / working-set extraction.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "stats/curve.hh"
#include "stats/knee.hh"

using wsg::stats::Curve;
using wsg::stats::detectWorkingSets;
using wsg::stats::KneeConfig;

namespace
{

/** Sampled step curve: rate drops to `after` at x >= kneeX. */
Curve
stepCurve(double before, double after, double knee_x)
{
    Curve c;
    for (double x = 8.0; x <= 65536.0; x *= 2.0)
        c.addPoint(x, x >= knee_x ? after : before);
    return c;
}

} // namespace

TEST(Knee, SingleStepDetected)
{
    auto sets = detectWorkingSets(stepCurve(1.0, 0.1, 1024.0));
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0].level, 1);
    EXPECT_DOUBLE_EQ(sets[0].sizeBytes, 1024.0);
    EXPECT_DOUBLE_EQ(sets[0].missRateBefore, 1.0);
    EXPECT_DOUBLE_EQ(sets[0].missRateAfter, 0.1);
    EXPECT_NEAR(sets[0].dropFactor(), 10.0, 1e-9);
}

TEST(Knee, FlatCurveHasNoKnees)
{
    auto sets = detectWorkingSets(stepCurve(0.5, 0.5, 1024.0));
    EXPECT_TRUE(sets.empty());
}

TEST(Knee, TinyDropIsIgnored)
{
    // 4% drop: below both the per-step and total thresholds.
    auto sets = detectWorkingSets(stepCurve(1.0, 0.96, 1024.0));
    EXPECT_TRUE(sets.empty());
}

TEST(Knee, TwoLevelHierarchy)
{
    Curve c;
    for (double x = 8.0; x <= 1 << 20; x *= 2.0) {
        double y = 1.0;
        if (x >= 256.0)
            y = 0.5;
        if (x >= 32768.0)
            y = 0.01;
        c.addPoint(x, y);
    }
    auto sets = detectWorkingSets(c);
    ASSERT_EQ(sets.size(), 2u);
    EXPECT_EQ(sets[0].level, 1);
    EXPECT_DOUBLE_EQ(sets[0].sizeBytes, 256.0);
    EXPECT_DOUBLE_EQ(sets[0].missRateAfter, 0.5);
    EXPECT_EQ(sets[1].level, 2);
    EXPECT_DOUBLE_EQ(sets[1].sizeBytes, 32768.0);
    EXPECT_DOUBLE_EQ(sets[1].missRateAfter, 0.01);
}

TEST(Knee, GradualDropMergesIntoOneKnee)
{
    // A knee spread over three octaves is still one working set.
    Curve c;
    c.addPoint(64.0, 1.0);
    c.addPoint(128.0, 0.7);
    c.addPoint(256.0, 0.4);
    c.addPoint(512.0, 0.2);
    c.addPoint(1024.0, 0.2);
    c.addPoint(2048.0, 0.2);
    auto sets = detectWorkingSets(c);
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_DOUBLE_EQ(sets[0].sizeBytes, 512.0);
    EXPECT_DOUBLE_EQ(sets[0].missRateBefore, 1.0);
    EXPECT_DOUBLE_EQ(sets[0].missRateAfter, 0.2);
}

TEST(Knee, RateFloorSuppressesDropsBelowIt)
{
    Curve c = stepCurve(0.002, 0.0001, 4096.0);
    KneeConfig cfg;
    cfg.rateFloor = 0.01; // everything is already at the comm floor
    EXPECT_TRUE(detectWorkingSets(c, cfg).empty());
}

TEST(Knee, DropToZeroGivesInfiniteFactorKnee)
{
    auto sets = detectWorkingSets(stepCurve(0.4, 0.0, 2048.0));
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_DOUBLE_EQ(sets[0].missRateAfter, 0.0);
    EXPECT_TRUE(std::isinf(sets[0].dropFactor()));
}

TEST(Knee, FewSamples)
{
    Curve c;
    EXPECT_TRUE(detectWorkingSets(c).empty());
    c.addPoint(8.0, 1.0);
    EXPECT_TRUE(detectWorkingSets(c).empty());
}

TEST(Knee, DescribeMentionsEveryLevel)
{
    Curve c;
    for (double x = 8.0; x <= 1 << 16; x *= 2.0) {
        double y = 1.0;
        if (x >= 128.0)
            y = 0.3;
        if (x >= 8192.0)
            y = 0.05;
        c.addPoint(x, y);
    }
    auto sets = detectWorkingSets(c);
    std::string text = wsg::stats::describeWorkingSets(sets);
    EXPECT_NE(text.find("lev1WS"), std::string::npos);
    EXPECT_NE(text.find("lev2WS"), std::string::npos);
    EXPECT_NE(wsg::stats::describeWorkingSets({}).find("no knees"),
              std::string::npos);
}

/**
 * Property sweep: a synthetic knee at size 2^k with drop factor f is
 * detected iff f exceeds the threshold.
 */
struct KneeCase
{
    double factor;
    bool detected;
    // gtest prints this struct's raw bytes into the test names, so the
    // tail after `detected` is an explicit zeroed member, not padding
    // whose bytes would differ from build to build.
    char zero[7] = {};
};
static_assert(sizeof(KneeCase) == 16, "KneeCase must have no padding");

class KneeFactor : public ::testing::TestWithParam<KneeCase>
{};

TEST_P(KneeFactor, DetectionThreshold)
{
    const KneeCase &c = GetParam();
    auto sets = detectWorkingSets(stepCurve(1.0, 1.0 / c.factor, 1024.0));
    EXPECT_EQ(!sets.empty(), c.detected) << "factor " << c.factor;
}

INSTANTIATE_TEST_SUITE_P(
    Factors, KneeFactor,
    ::testing::Values(KneeCase{1.05, false}, KneeCase{1.2, false},
                      KneeCase{1.5, true}, KneeCase{2.0, true},
                      KneeCase{10.0, true}, KneeCase{1000.0, true}));
