/**
 * @file
 * ApproxCurve — turning sampled miss counts into estimated full-trace
 * miss-rate curves, plus the exact-vs-sampled accuracy harness.
 *
 * Estimator (SHARDS): with spatial rate R, the sampled stream contains
 * an expected R-fraction of the references and the recorded distances
 * are already rescaled to full-trace units, so
 *
 *   miss_rate(C)  ~=  sampled_misses(C) / expected_sampled_refs
 *   miss_count(C) ~=  miss_rate(C) * total_refs
 *
 * where expected_sampled_refs is total_refs * rate — the *expected*
 * admitted count, not the actual one (see SampledCounts) — at the
 * final rate for fixed-size sampling (the SHARDS_adj correction: early
 * references admitted at higher-than-final rates would otherwise
 * inflate the denominator).
 *
 * ApproxCurve only scales. sampled_misses(C) is computed once, for
 * every profiler construction, by the simulator (sim::Multiprocessor):
 * each processor's histogram counted at that processor's
 * capacityToThreshold(C), summed, plus the cold/coherence floor.
 *
 * In SamplingMode::None every formula degenerates to the exact
 * arithmetic — the same expressions, bit for bit — so the simulator can
 * route both modes through one code path without perturbing the golden
 * exact curves.
 */

#ifndef WSG_APPROX_APPROX_CURVE_HH
#define WSG_APPROX_APPROX_CURVE_HH

#include <cstdint>
#include <vector>

#include "approx/sampling.hh"
#include "stats/curve.hh"
#include "stats/knee.hh"

namespace wsg::approx
{

/**
 * Aggregated sampled counters for one reference kind (reads or
 * writes): the inputs of the estimator.
 */
struct SampledCounts
{
    /** Admitted cold / coherence classifications. */
    std::uint64_t cold = 0;
    std::uint64_t coherence = 0;
    /** References the filter admitted (this kind). */
    std::uint64_t sampledRefs = 0;
    /** Exact count of measured references (this kind). */
    std::uint64_t totalRefs = 0;
    /**
     * Denominator of the rate estimate: the *expected* sampled
     * reference count, totalRefs * rate (per processor, at the final
     * rate for fixed-size), or totalRefs when exact. Sampled miss
     * counts scale with the fraction of lines admitted, so dividing by
     * the expectation — rather than the actual sampledRefs, whose
     * deviation is reference-weighted and correlated across the whole
     * curve — is the unbiased SHARDS_adj-style estimator.
     */
    double expectedSampledRefs = 0.0;
};

/**
 * The scaler: estimated miss counts/rates at any cache capacity, with
 * the run's sampling diagnostics attached for reporting.
 */
class ApproxCurve
{
  public:
    explicit ApproxCurve(const SamplingDiagnostics &diagnostics)
        : diagnostics_(diagnostics)
    {}

    const SamplingDiagnostics &diagnostics() const { return diagnostics_; }
    bool sampled() const { return diagnostics_.config.enabled(); }

    /**
     * Estimated full-trace miss rate from @p sampled_misses, the raw
     * (sampled-unit) miss count at one capacity: sampled misses over
     * expected sampled references. Exact mode divides the exact counts.
     * The simulator reads the count off its per-processor histograms
     * (sim::Multiprocessor) for every construction alike.
     * @return 0 when the run produced no (sampled) references.
     */
    double missRate(const SampledCounts &counts,
                    std::uint64_t sampled_misses) const;

    /** Estimated full-trace miss *count*: missRate * totalRefs. Exact
     *  mode returns @p sampled_misses unchanged. */
    double missCount(const SampledCounts &counts,
                     std::uint64_t sampled_misses) const;

    /**
     * Scale an arbitrary admitted-reference counter @p raw to a
     * full-trace estimate: raw * totalRefs / expectedSampledRefs — the
     * same SHARDS_adj denominator as missCount, so per-category counts
     * scaled this way still sum to the scaled total. Exact mode
     * multiplies by exactly 1.0, keeping integer counts integer. This
     * is how the miss-classification breakdown (cold / capacity /
     * true-sharing / false-sharing) composes with sampling.
     */
    double scaledCount(const SampledCounts &counts,
                       std::uint64_t raw) const;

  private:
    SamplingDiagnostics diagnostics_;
};

// ---------------------------------------------------------------------
// Accuracy harness: exact-vs-sampled curve comparison.
// ---------------------------------------------------------------------

/** How far a sampled knee sits from its exact counterpart. */
struct KneeMatch
{
    int level = 0;
    /**
     * Knee locations measured at the half-depth crossing of each
     * curve's drop — the x where the miss rate falls through
     * (before + after) / 2, log-interpolated. The detector's own
     * sizeBytes marks where a drop *ends*, which under sampling smear
     * shifts by whole grid steps while the transition midpoint barely
     * moves; the half-depth crossing (FWHM-style) is the robust
     * location of the transition itself.
     */
    double exactBytes = 0.0;
    double approxBytes = 0.0;
    /** |log2(approx/exact)| * pointsPerOctave — displacement measured
     *  in sweep points, the natural unit of the study resolution. */
    double displacementSteps = 0.0;
};

/** Outcome of comparing a sampled study against the exact one. */
struct CurveComparison
{
    /** Mean / max absolute y-error over the exact curve's x-grid. */
    double meanAbsError = 0.0;
    double maxAbsError = 0.0;
    /**
     * Mean / max absolute y-error over the grid points where the exact
     * curve is *flat*: off the detected knees' half-depth faces and off
     * any segment dropping faster than the 0.01 flatness tolerance
     * (undetected sub-knee steps smear under approximation exactly like
     * detected ones), all dilated by one sweep step. On a transition a
     * small horizontal displacement — already measured by
     * KneeMatch::displacementSteps — shows up as a huge vertical error,
     * so the full-grid MAE conflates the two axes; the plateau error is
     * the meaningful vertical-accuracy number. Equal to the full-grid
     * values when the study has no knees.
     */
    double plateauMeanAbsError = 0.0;
    double plateauMaxAbsError = 0.0;
    /** Per-level knee displacement (paired by level order). */
    std::vector<KneeMatch> knees;
    /** Knee-count disagreement (|#exact - #approx|). */
    std::size_t kneeCountDiff = 0;
    /** Largest displacement across matched knees (0 when none). */
    double maxKneeDisplacementSteps() const;
};

/**
 * Pointwise absolute error of @p approx against @p exact, evaluated at
 * the exact curve's x samples with step semantics (valueAtOrBelow —
 * the lookup rule of miss-rate curves).
 */
CurveComparison compareCurves(const stats::Curve &exact,
                              const stats::Curve &approx);

/**
 * Full comparison: pointwise error plus knee displacement, pairing
 * working sets in level order and expressing displacement in sweep
 * points at @p points_per_octave resolution.
 */
CurveComparison
compareStudies(const stats::Curve &exact_curve,
               const std::vector<stats::WorkingSet> &exact_knees,
               const stats::Curve &approx_curve,
               const std::vector<stats::WorkingSet> &approx_knees,
               int points_per_octave);

/**
 * Pointwise mean of curves sharing one x-grid — the variance-reduction
 * step for multi-draw sampling: run the same study under several
 * SamplingConfig::hashSalt values (independent deterministic draws)
 * and average the estimated curves. Single-draw level noise scales as
 * 1/sqrt(sampled lines), which on small studies dominates the error;
 * averaging K draws cuts it by sqrt(K) while each run keeps the
 * one-draw memory footprint.
 *
 * @throws std::invalid_argument when @p curves is empty or the x-grids
 *         disagree.
 */
stats::Curve averageCurves(const std::vector<stats::Curve> &curves,
                           const std::string &name = "mean");

} // namespace wsg::approx

#endif // WSG_APPROX_APPROX_CURVE_HH
