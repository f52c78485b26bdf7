/**
 * @file
 * Tests for the spatially-sampled profiling subsystem (src/approx):
 * admission determinism, distance scaling, the fixed-size budget, the
 * interaction between sampling and coherence, and the exact-mode
 * passthrough that keeps golden curves bit-identical.
 */

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "approx/approx_curve.hh"
#include "approx/sampled_stack_distance.hh"
#include "approx/sampling.hh"
#include "memsys/tree_stack_distance.hh"
#include "sim/multiprocessor.hh"

using namespace wsg;
using trace::Addr;
using trace::ProcId;
using approx::SampledStackDistanceProfiler;
using approx::SamplingConfig;
using approx::SamplingMode;

namespace
{

SamplingConfig
fixedRate(double rate)
{
    SamplingConfig config;
    config.mode = SamplingMode::FixedRate;
    config.rate = rate;
    return config;
}

SamplingConfig
fixedSize(std::uint64_t max_lines)
{
    SamplingConfig config;
    config.mode = SamplingMode::FixedSize;
    config.maxLines = max_lines;
    return config;
}

} // namespace

TEST(SamplingConfig, ValidatesParameters)
{
    EXPECT_NO_THROW(SamplingConfig{}.validate());
    EXPECT_NO_THROW(fixedRate(0.01).validate());
    EXPECT_NO_THROW(fixedRate(1.0).validate());
    EXPECT_THROW(fixedRate(0.0).validate(), std::invalid_argument);
    EXPECT_THROW(fixedRate(-0.5).validate(), std::invalid_argument);
    EXPECT_THROW(fixedRate(1.5).validate(), std::invalid_argument);
    EXPECT_THROW(fixedSize(0).validate(), std::invalid_argument);
    EXPECT_NO_THROW(fixedSize(1).validate());
}

TEST(SamplingConfig, ThresholdRateRoundTrip)
{
    EXPECT_EQ(approx::thresholdForRate(1.0), approx::kAdmitAll);
    EXPECT_EQ(approx::thresholdForRate(2.0), approx::kAdmitAll);
    EXPECT_EQ(approx::thresholdForRate(0.0), 0u);
    for (double rate : {0.5, 0.25, 0.1, 0.01, 1e-4}) {
        EXPECT_NEAR(
            approx::rateForThreshold(approx::thresholdForRate(rate)),
            rate, rate * 1e-9);
    }
}

TEST(SampledProfiler, NoneModeIsExactPassthrough)
{
    // In exact mode the wrapper must reproduce the exact profiler
    // sample for sample — this is what keeps golden curves identical.
    memsys::TreeStackDistanceProfiler exact;
    SampledStackDistanceProfiler wrapped; // default config: None
    std::mt19937_64 rng(17);
    for (int i = 0; i < 50000; ++i) {
        Addr line = rng() % 700;
        if (rng() % 16 == 0) {
            EXPECT_EQ(wrapped.invalidate(line), exact.invalidate(line));
            continue;
        }
        memsys::DistanceSample want = exact.access(line);
        approx::SampledSample got = wrapped.access(line);
        ASSERT_TRUE(got.admitted);
        ASSERT_EQ(static_cast<int>(got.sample.kind),
                  static_cast<int>(want.kind));
        if (want.kind == memsys::RefClass::Finite) {
            ASSERT_EQ(got.sample.distance, want.distance);
        }
    }
    EXPECT_EQ(wrapped.effectiveRate(), 1.0);
    EXPECT_EQ(wrapped.sampledRefs(), wrapped.totalRefs());
    EXPECT_EQ(wrapped.estimatedTouchedLines(), 700u);
}

TEST(SampledProfiler, FixedRateAdmitsHashFractionDeterministically)
{
    const double rate = 0.1;
    SampledStackDistanceProfiler a(fixedRate(rate));
    SampledStackDistanceProfiler b(fixedRate(rate));
    const int n = 50000;
    std::uint64_t admitted = 0;
    for (int i = 0; i < n; ++i) {
        approx::SampledSample sa = a.access(static_cast<Addr>(i));
        approx::SampledSample sb = b.access(static_cast<Addr>(i));
        // Admission is a pure function of the line address.
        ASSERT_EQ(sa.admitted, sb.admitted);
        ASSERT_EQ(sa.admitted,
                  a.wouldAdmit(static_cast<Addr>(i)));
        admitted += sa.admitted ? 1 : 0;
    }
    // Spatially-hashed admission concentrates tightly around the rate.
    EXPECT_NEAR(static_cast<double>(admitted) / n, rate, 0.01);
    EXPECT_EQ(a.sampledRefs(), admitted);
    EXPECT_EQ(a.totalRefs(), static_cast<std::uint64_t>(n));
}

TEST(SampledProfiler, FixedRateScalesDistancesToFullTraceUnits)
{
    const double rate = 0.1;
    const int n = 20000;
    SampledStackDistanceProfiler prof(fixedRate(rate));
    // Find a sampled line, then touch n distinct other lines: its next
    // access has exact stack distance n, and the sampled estimate (raw
    // distance among sampled lines / rate) must land near it.
    Addr probe = 0;
    while (!prof.wouldAdmit(probe))
        ++probe;
    prof.access(probe);
    for (Addr line = 1000000; line < 1000000 + n; ++line)
        prof.access(line);
    approx::SampledSample again = prof.access(probe);
    ASSERT_TRUE(again.admitted);
    ASSERT_EQ(static_cast<int>(again.sample.kind),
              static_cast<int>(memsys::RefClass::Finite));
    double estimate = static_cast<double>(again.sample.distance);
    EXPECT_NEAR(estimate, n, 0.15 * n);
}

TEST(SampledProfiler, FixedSizeRespectsBudgetAndLowersRate)
{
    const std::uint64_t budget = 1000;
    const std::uint64_t footprint = 100000;
    SampledStackDistanceProfiler prof(fixedSize(budget));
    for (Addr line = 0; line < footprint; ++line) {
        prof.access(line);
        ASSERT_LE(prof.trackedLines(), budget);
    }
    EXPECT_LT(prof.effectiveRate(), 1.0);
    EXPECT_GT(prof.effectiveRate(), 0.0);
    // The footprint estimate survives the eviction churn.
    double estimated =
        static_cast<double>(prof.estimatedTouchedLines());
    EXPECT_NEAR(estimated, static_cast<double>(footprint),
                0.15 * static_cast<double>(footprint));
    // Memory stays bounded by the budget, far below the exact cost.
    memsys::TreeStackDistanceProfiler exact;
    for (Addr line = 0; line < footprint; ++line)
        exact.access(line);
    EXPECT_LT(prof.memoryBytes(), exact.memoryBytes() / 10);
}

TEST(SampledProfiler, FixedSizeEvictedLinesComeBackCold)
{
    // After the threshold drops, a re-accessed evicted line must be
    // rejected (hash >= threshold), and lines the budget never covered
    // must never appear as Coherence.
    SampledStackDistanceProfiler prof(fixedSize(64));
    for (Addr line = 0; line < 10000; ++line)
        prof.access(line);
    std::uint64_t rejected = 0;
    for (Addr line = 0; line < 10000; ++line) {
        approx::SampledSample s = prof.access(line);
        ASSERT_EQ(s.admitted, prof.wouldAdmit(line));
        if (s.admitted) {
            ASSERT_NE(static_cast<int>(s.sample.kind),
                      static_cast<int>(memsys::RefClass::Coherence));
        } else {
            ++rejected;
        }
        ASSERT_LE(prof.trackedLines(), 64u);
    }
    EXPECT_GT(rejected, 9000u);
}

TEST(StackDistance, EvictForgetsUnlikeInvalidate)
{
    memsys::TreeStackDistanceProfiler prof;
    prof.access(1);
    prof.access(2);
    prof.access(3);

    // invalidate leaves a tombstone: next access is Coherence.
    EXPECT_TRUE(prof.invalidate(2));
    EXPECT_EQ(static_cast<int>(prof.access(2).kind),
              static_cast<int>(memsys::RefClass::Coherence));

    // evict forgets entirely: next access is Cold again.
    EXPECT_TRUE(prof.evict(3));
    EXPECT_FALSE(prof.tracks(3));
    EXPECT_EQ(static_cast<int>(prof.access(3).kind),
              static_cast<int>(memsys::RefClass::Cold));

    // evict also clears a tombstone.
    EXPECT_TRUE(prof.invalidate(1));
    EXPECT_TRUE(prof.evict(1));
    EXPECT_EQ(static_cast<int>(prof.access(1).kind),
              static_cast<int>(memsys::RefClass::Cold));

    EXPECT_FALSE(prof.evict(999));
}

TEST(SampledProfiler, UnsampledLineNeverGainsStackState)
{
    // The coherence path must respect the admission filter: an
    // invalidation of an unsampled line may not create profiler state,
    // and the line's later accesses stay unadmitted.
    SampledStackDistanceProfiler prof(fixedRate(0.1));
    int checked = 0;
    for (Addr line = 0; line < 2000 && checked < 500; ++line) {
        if (prof.wouldAdmit(line))
            continue;
        ++checked;
        EXPECT_FALSE(prof.invalidate(line));
        EXPECT_FALSE(prof.inner().tracks(line));
        approx::SampledSample s = prof.access(line);
        EXPECT_FALSE(s.admitted);
        EXPECT_FALSE(prof.inner().tracks(line));
    }
    EXPECT_EQ(checked, 500);
    EXPECT_EQ(prof.trackedLines(), 0u);
}

TEST(SampledSim, CoherenceMissEstimateConvergesOnExact)
{
    // Property: on a write-sharing workload the sampled coherence-miss
    // *rate* estimate converges on the exact rate — coherence misses
    // must survive sampling (they are the paper's inherent floor).
    auto run = [](const SamplingConfig &sampling) {
        sim::SimConfig config;
        config.numProcs = 4;
        config.lineBytes = 8;
        config.sampling = sampling;
        sim::Multiprocessor mp(config);
        std::mt19937_64 rng(23);
        for (int i = 0; i < 400000; ++i) {
            ProcId p = static_cast<ProcId>(rng() % 4);
            Addr a = (rng() % 4096) * 8;
            if (rng() % 4 == 0)
                mp.write(p, a, 8);
            else
                mp.read(p, a, 8);
        }
        return mp;
    };

    sim::Multiprocessor exact = run(SamplingConfig{});
    sim::Multiprocessor sampled = run(fixedRate(0.25));

    sim::ProcStats ea = exact.aggregateStats();
    sim::ProcStats sa = sampled.aggregateStats();
    double exact_rate = static_cast<double>(ea.readCoherence) /
                        static_cast<double>(ea.reads);
    double sampled_rate = static_cast<double>(sa.readCoherence) /
                          static_cast<double>(sa.sampledReads);
    ASSERT_GT(ea.readCoherence, 1000u);
    EXPECT_NEAR(sampled_rate, exact_rate, 0.1 * exact_rate);

    // And the curves: an estimated miss-rate curve on the same sweep
    // stays near the exact one everywhere.
    sim::CurveSpec exact_spec;
    exact_spec.cacheSizesBytes = sim::sweepSizes(64, 64 * 1024, 4, 8);
    sim::CurveSpec sampled_spec = exact_spec;
    sampled_spec.sampling = sampled.config().sampling;
    stats::Curve ec = exact.readMissRateCurve(exact_spec, "exact");
    stats::Curve sc = sampled.readMissRateCurve(sampled_spec, "sampled");
    approx::CurveComparison cmp = approx::compareCurves(ec, sc);
    EXPECT_LE(cmp.meanAbsError, 0.01);
    EXPECT_LE(cmp.maxAbsError, 0.05);
}

TEST(SampledSim, CurveSpecSamplingMismatchThrows)
{
    sim::SimConfig config;
    config.numProcs = 1;
    config.sampling = fixedRate(0.5);
    sim::Multiprocessor mp(config);
    mp.read(0, 0, 8);
    sim::CurveSpec spec;
    spec.cacheSizesBytes = {64, 128};
    // spec says exact, simulator sampled: refuse to mis-scale.
    EXPECT_THROW(mp.readMissRateCurve(spec, "x"), std::invalid_argument);
    spec.sampling = config.sampling;
    EXPECT_NO_THROW(mp.readMissRateCurve(spec, "x"));
}

TEST(SampledSim, InvalidSamplingConfigRejectedAtConstruction)
{
    sim::SimConfig config;
    config.numProcs = 1;
    config.sampling = fixedRate(0.0);
    EXPECT_THROW(sim::Multiprocessor mp(config), std::invalid_argument);
}

TEST(ApproxCurve, CompareStudiesMeasuresKneeDisplacement)
{
    stats::Curve exact("e");
    stats::Curve approx_curve("a");
    for (int i = 0; i < 8; ++i) {
        double x = 64.0 * std::pow(2.0, i);
        exact.addPoint(x, i < 4 ? 0.5 : 0.01);
        approx_curve.addPoint(x, i < 5 ? 0.5 : 0.01);
    }
    std::vector<stats::WorkingSet> exact_knees(1);
    exact_knees[0].level = 1;
    exact_knees[0].sizeBytes = 1024.0;
    std::vector<stats::WorkingSet> approx_knees(1);
    approx_knees[0].level = 1;
    approx_knees[0].sizeBytes = 2048.0;

    approx::CurveComparison cmp = approx::compareStudies(
        exact, exact_knees, approx_curve, approx_knees, 4);
    ASSERT_EQ(cmp.knees.size(), 1u);
    // One octave off at 4 points per octave = 4 sweep steps.
    EXPECT_NEAR(cmp.knees[0].displacementSteps, 4.0, 1e-9);
    EXPECT_NEAR(cmp.maxKneeDisplacementSteps(), 4.0, 1e-9);
    EXPECT_EQ(cmp.kneeCountDiff, 0u);
    // The shifted knee shows up as pointwise error too.
    EXPECT_GT(cmp.maxAbsError, 0.4);
}
