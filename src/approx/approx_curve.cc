#include "approx/approx_curve.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wsg::approx
{

namespace
{

/**
 * x where @p curve falls through @p level, log2-interpolated between
 * the straddling grid points. Noise can produce several crossings; the
 * one nearest @p anchor_bytes (in log distance) is the transition
 * being measured. Falls back to @p fallback_bytes when the curve never
 * straddles the level (degenerate flat knee).
 *
 * Displacement is a *horizontal* measure, so both curves must be cut
 * at the same level — the exact knee's half depth — and anchored at
 * the same location. Cutting each curve at its own detected knee's
 * half depth would fold the detectors' metadata quantization (the
 * before/after rates are read off adjacent grid points) into a metric
 * that is supposed to measure only where the drop sits.
 */
double
levelCrossing(const stats::Curve &curve, double level,
              double anchor_bytes, double fallback_bytes)
{
    const auto &pts = curve.points();
    double best = fallback_bytes;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 1; i < pts.size(); ++i) {
        double y1 = pts[i - 1].y;
        double y2 = pts[i].y;
        if (!(y1 >= level && level > y2))
            continue;
        double t = (y1 - level) / (y1 - y2);
        double lx = std::log2(pts[i - 1].x) +
                    t * (std::log2(pts[i].x) - std::log2(pts[i - 1].x));
        double x = std::exp2(lx);
        double dist = std::fabs(std::log2(x / anchor_bytes));
        if (dist < best_dist) {
            best_dist = dist;
            best = x;
        }
    }
    return best;
}

} // namespace

double
ApproxCurve::missRate(const SampledCounts &counts,
                      std::uint64_t sampled_misses) const
{
    if (counts.expectedSampledRefs <= 0.0)
        return 0.0;
    return static_cast<double>(sampled_misses) /
           counts.expectedSampledRefs;
}

double
ApproxCurve::missCount(const SampledCounts &counts,
                       std::uint64_t sampled_misses) const
{
    // Exact mode: return the exact count without touching the rate
    // arithmetic, so the golden curves stay bit-identical.
    if (!sampled())
        return static_cast<double>(sampled_misses);
    return missRate(counts, sampled_misses) *
           static_cast<double>(counts.totalRefs);
}

double
ApproxCurve::scaledCount(const SampledCounts &counts,
                         std::uint64_t raw) const
{
    // Exact mode: the counter is already the full-trace count.
    if (!sampled())
        return static_cast<double>(raw);
    if (counts.expectedSampledRefs <= 0.0)
        return 0.0;
    return static_cast<double>(raw) *
           (static_cast<double>(counts.totalRefs) /
            counts.expectedSampledRefs);
}

double
CurveComparison::maxKneeDisplacementSteps() const
{
    double worst = 0.0;
    for (const KneeMatch &k : knees)
        worst = std::max(worst, k.displacementSteps);
    return worst;
}

CurveComparison
compareCurves(const stats::Curve &exact, const stats::Curve &approx)
{
    CurveComparison cmp;
    if (exact.empty() || approx.empty())
        return cmp;
    double sum = 0.0;
    for (const stats::CurvePoint &p : exact.points()) {
        double err = std::fabs(approx.valueAtOrBelow(p.x) - p.y);
        sum += err;
        cmp.maxAbsError = std::max(cmp.maxAbsError, err);
    }
    cmp.meanAbsError = sum / static_cast<double>(exact.size());
    cmp.plateauMeanAbsError = cmp.meanAbsError;
    cmp.plateauMaxAbsError = cmp.maxAbsError;
    return cmp;
}

CurveComparison
compareStudies(const stats::Curve &exact_curve,
               const std::vector<stats::WorkingSet> &exact_knees,
               const stats::Curve &approx_curve,
               const std::vector<stats::WorkingSet> &approx_knees,
               int points_per_octave)
{
    CurveComparison cmp = compareCurves(exact_curve, approx_curve);
    std::size_t paired =
        std::min(exact_knees.size(), approx_knees.size());
    cmp.kneeCountDiff =
        std::max(exact_knees.size(), approx_knees.size()) - paired;
    for (std::size_t i = 0; i < paired; ++i) {
        KneeMatch match;
        match.level = exact_knees[i].level;
        double half = 0.5 * (exact_knees[i].missRateBefore +
                             exact_knees[i].missRateAfter);
        match.exactBytes =
            levelCrossing(exact_curve, half, exact_knees[i].sizeBytes,
                          exact_knees[i].sizeBytes);
        match.approxBytes =
            levelCrossing(approx_curve, half, exact_knees[i].sizeBytes,
                          approx_knees[i].sizeBytes);
        if (match.exactBytes > 0.0 && match.approxBytes > 0.0) {
            match.displacementSteps =
                std::fabs(std::log2(match.approxBytes /
                                    match.exactBytes)) *
                static_cast<double>(points_per_octave);
        }
        cmp.knees.push_back(match);
    }

    // Off-transition (plateau) error: drop the grid points where the
    // exact curve is in transition, widened by one step each way to
    // cover the approximation's smear tails. Transition means either a
    // detected knee's half-depth face or any segment dropping faster
    // than the flatness tolerance — an undetected sub-knee step (too
    // shallow for the detector) smears under approximation exactly
    // like a detected one, and a "plateau" metric that charges for it
    // measures the step's location, not the level accuracy it is
    // meant to bound.
    constexpr double kFlatTolerance = 0.01;
    const auto &pts = exact_curve.points();
    std::vector<bool> on_face(pts.size(), false);
    for (const stats::WorkingSet &knee : exact_knees) {
        double half = 0.5 * (knee.missRateBefore + knee.missRateAfter);
        for (std::size_t i = 1; i < pts.size(); ++i) {
            if (pts[i - 1].y >= half && half > pts[i].y) {
                on_face[i - 1] = true;
                on_face[i] = true;
            }
        }
    }
    for (std::size_t i = 1; i < pts.size(); ++i) {
        if (std::fabs(pts[i - 1].y - pts[i].y) > kFlatTolerance) {
            on_face[i - 1] = true;
            on_face[i] = true;
        }
    }
    std::vector<bool> banded = on_face;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (!on_face[i])
            continue;
        if (i > 0)
            banded[i - 1] = true;
        if (i + 1 < pts.size())
            banded[i + 1] = true;
    }
    double sum = 0.0;
    std::size_t kept = 0;
    double worst = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (banded[i])
            continue;
        double err =
            std::fabs(approx_curve.valueAtOrBelow(pts[i].x) - pts[i].y);
        sum += err;
        worst = std::max(worst, err);
        ++kept;
    }
    if (kept > 0) {
        cmp.plateauMeanAbsError = sum / static_cast<double>(kept);
        cmp.plateauMaxAbsError = worst;
    }
    return cmp;
}

stats::Curve
averageCurves(const std::vector<stats::Curve> &curves,
              const std::string &name)
{
    if (curves.empty())
        throw std::invalid_argument("averageCurves: no curves");
    stats::Curve mean(name);
    const auto &grid = curves.front().points();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        double sum = 0.0;
        for (const stats::Curve &c : curves) {
            if (c.size() != grid.size() ||
                c.points()[i].x != grid[i].x) {
                throw std::invalid_argument(
                    "averageCurves: curves sample different x-grids");
            }
            sum += c.points()[i].y;
        }
        mean.addPoint(grid[i].x,
                      sum / static_cast<double>(curves.size()));
    }
    return mean;
}

} // namespace wsg::approx
