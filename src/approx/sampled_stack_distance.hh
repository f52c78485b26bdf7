/**
 * @file
 * Spatially-sampled LRU stack-distance profiler (SHARDS-style).
 *
 * Wraps an exact Mattson profiler behind a hash admission filter:
 * a line is tracked iff mixAddr(line) < threshold. Spatial hashing keeps
 * *all* references to a sampled line, so reuse pairs survive intact and
 * a raw distance d measured among sampled lines estimates a full-trace
 * distance of d / rate; access() returns distances already rescaled to
 * full-trace line units.
 *
 * Two variants:
 *  - FixedRate: threshold = rate * 2^64, constant for the run.
 *  - FixedSize: threshold starts at "admit all" and is lowered whenever
 *    the distinct-line budget overflows; the line carrying the largest
 *    hash is evicted (fully forgotten, not tombstoned) and becomes the
 *    new exclusive threshold. Memory stays O(maxLines); distances are
 *    scaled by the rate in effect at admission time, and curve
 *    normalization uses the SHARDS_adj expected-sample correction
 *    (see ApproxCurve).
 *
 * Coherence: invalidate() is filtered by the same admission test, so a
 * sampled line sees exactly the invalidations it would see unsampled
 * (the estimate of coherence misses converges at rate 1/rate), while an
 * unsampled line can never acquire stack state through the coherence
 * path.
 *
 * Determinism: admission depends only on the line address and the
 * eviction history, which is itself a pure function of the reference
 * stream — no RNG, no clock, no pointer order. Identical traces produce
 * identical sampled profiles at any worker count.
 */

#ifndef WSG_APPROX_SAMPLED_STACK_DISTANCE_HH
#define WSG_APPROX_SAMPLED_STACK_DISTANCE_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "approx/sampling.hh"
#include "memsys/profiler.hh"

namespace wsg::approx
{

/** Result of profiling one reference through the admission filter. */
struct SampledSample
{
    /** False when the hash filter rejected the line; `sample` is then
     *  meaningless and the reference left no profiler state behind. */
    bool admitted = false;
    /** Classified distance, already scaled to full-trace line units. */
    memsys::DistanceSample sample;
};

/**
 * One processor's sampled profiler. API mirrors memsys::Profiler so
 * sim::Multiprocessor can drive any construction through one code path;
 * in SamplingMode::None it *is* the underlying profiler (every
 * reference admitted, distances unscaled, zero per-access overhead
 * beyond one branch).
 *
 * The underlying construction is chosen by ProfilerKind. The Mattson
 * kinds compose freely with sampling; AET does not (reuse times on a
 * sampled sub-trace do not rescale like stack distances), so AET plus
 * an enabled sampling mode is rejected at construction.
 */
class SampledStackDistanceProfiler
{
  public:
    explicit SampledStackDistanceProfiler(
        const SamplingConfig &config = {},
        memsys::ProfilerKind kind = memsys::ProfilerKind::TreeMattson);

    /** Profile a reference; rejected lines update nothing. */
    SampledSample access(Addr line);

    /**
     * Coherence invalidation, filtered: only admitted lines reach the
     * underlying stack. @return true when the line was live (implies it
     * was sampled).
     */
    bool invalidate(Addr line);

    /** Whether the admission filter currently lets @p line through. */
    bool
    wouldAdmit(Addr line) const
    {
        return config_.mode == SamplingMode::None ||
               lineHash(line) < threshold_;
    }

    /** Current admission rate (1 for exact; monotonically non-
     *  increasing over a fixed-size run). */
    double
    effectiveRate() const
    {
        return config_.mode == SamplingMode::None
                   ? 1.0
                   : rateForThreshold(threshold_);
    }

    /** References seen / admitted since construction or clear(). */
    std::uint64_t totalRefs() const { return totalRefs_; }
    std::uint64_t sampledRefs() const { return sampledRefs_; }

    /** Distinct lines currently tracked (sampled footprint). */
    std::uint64_t trackedLines() const { return inner_->touchedLines(); }

    /** Which construction is underneath. */
    memsys::ProfilerKind kind() const { return inner_->kind(); }

    /** Passthrough of the construction's capacity transform. */
    std::uint64_t
    capacityToThreshold(std::uint64_t capacity_lines) const
    {
        return inner_->capacityToThreshold(capacity_lines);
    }

    /**
     * Estimated full-trace footprint in lines: tracked lines divided by
     * the effective rate (exact mode: the exact count).
     */
    std::uint64_t estimatedTouchedLines() const;

    /** Approximate resident bytes (inner profiler + eviction heap). */
    std::uint64_t memoryBytes() const;

    const SamplingConfig &config() const { return config_; }
    const memsys::Profiler &inner() const { return *inner_; }

    /** Forget everything; the admission threshold resets too. */
    void clear();

  private:
    /** Admission hash: the config's salt picks the draw. */
    std::uint64_t
    lineHash(Addr line) const
    {
        return mixAddr(line ^ config_.hashSalt);
    }

    void shrinkToBudget();

    SamplingConfig config_;
    /** Admit iff lineHash(line) < threshold_. */
    std::uint64_t threshold_ = kAdmitAll;
    std::unique_ptr<memsys::Profiler> inner_;
    /**
     * FixedSize only: (hash, line) max-heap over distinct tracked
     * lines; the top is the next eviction victim when the budget
     * overflows. Each line is pushed exactly once (on first admission)
     * and popped exactly once (on eviction), so entries are never
     * stale.
     */
    std::priority_queue<std::pair<std::uint64_t, Addr>> victims_;
    std::uint64_t totalRefs_ = 0;
    std::uint64_t sampledRefs_ = 0;
};

} // namespace wsg::approx

#endif // WSG_APPROX_SAMPLED_STACK_DISTANCE_HH
