/**
 * @file
 * AET (average eviction time) approximate profiler (ProfilerKind::Aet).
 *
 * Where the Mattson profilers pay O(log n) per reference to measure the
 * *stack distance* (distinct lines since last touch), AET records only
 * the *reuse time* (total references since last touch) — one probe of
 * the flat line map (memsys::LineMap), O(1), no stack structure at
 * all. The miss-rate curve is then recovered from the reuse-time
 * distribution by the AET model (Hu et al., ATC'16): in an LRU cache
 * of C lines, a line sinks one stack position whenever a reference
 * arrives whose reuse time exceeds the line's current age, so the
 * expected eviction age t*(C) solves
 *
 *     integral_0^t* P(t) dt = C,    P(t) = Pr[reuse time > t]
 *
 * and a reference misses iff its own reuse time exceeds t*(C).
 *
 * Through the common Profiler contract this is just another
 * capacityToThreshold: samples carry quantized reuse-time codes instead
 * of stack distances, and capacityToThreshold(C) walks the recorded
 * distribution to the integral crossing and returns the first code that
 * counts as a miss. Consumers still evaluate
 * hist.countAtLeast(capacityToThreshold(C)) — nothing downstream knows
 * the construction changed.
 *
 * Quantization: reuse times below 4096 keep exact codes (code == t);
 * larger times get a 6-bit-mantissa floating-point code (64 buckets per
 * octave), bounding relative bucket width by 1/64 and the whole code
 * space by ~7.4k — the distribution stays a small dense array no matter
 * how long the trace runs.
 *
 * Classification (Cold / Coherence / Finite) reuses the exact
 * profilers' tombstone scheme verbatim, so the coherence and cold floors
 * of the curve — the paper's "inherent communication" — remain exact;
 * only the finite-distance part of the curve is approximated. Both
 * classes enter the model as infinite reuse times.
 *
 * The model is deterministic (counts only, no RNG, no clock) and
 * composes with the runner's byte-identical parallel == serial
 * guarantee. It does NOT compose with SHARDS spatial sampling: reuse
 * times measured on a sampled sub-trace are not rescalable the way
 * stack distances are, so SampledStackDistanceProfiler rejects the
 * combination.
 */

#ifndef WSG_APPROX_AET_HH
#define WSG_APPROX_AET_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "memsys/line_map.hh"
#include "memsys/profiler.hh"

namespace wsg::approx
{

/** O(1)-per-reference approximate profiler via reuse-time modeling. */
class AetProfiler : public memsys::Profiler
{
  public:
    /** Reuse times below this are coded exactly (code == time). */
    static constexpr std::uint64_t kExactLimit = 4096;
    /** log2(kExactLimit): first quantized octave. */
    static constexpr unsigned kExactBits = 12;
    /** Mantissa bits kept per quantized octave (64 buckets/octave). */
    static constexpr unsigned kMantBits = 6;
    /** Largest code: octave 63, full mantissa. */
    static constexpr std::uint64_t kMaxCode =
        kExactLimit + (63 - kExactBits) * (1ULL << kMantBits) +
        ((1ULL << kMantBits) - 1);

    /** Quantized code of reuse time @p t (>= 1). */
    static std::uint64_t
    codeFor(std::uint64_t t)
    {
        if (t < kExactLimit)
            return t;
        unsigned e = static_cast<unsigned>(std::bit_width(t)) - 1;
        std::uint64_t mant = (t >> (e - kMantBits)) &
                             ((1ULL << kMantBits) - 1);
        return kExactLimit + (e - kExactBits) * (1ULL << kMantBits) +
               mant;
    }

    /** Smallest reuse time carrying code @p code (its bucket floor). */
    static std::uint64_t
    bucketLo(std::uint64_t code)
    {
        if (code < kExactLimit)
            return code;
        std::uint64_t q = code - kExactLimit;
        unsigned e = kExactBits +
                     static_cast<unsigned>(q >> kMantBits);
        std::uint64_t mant = q & ((1ULL << kMantBits) - 1);
        return (1ULL << e) | (mant << (e - kMantBits));
    }

    AetProfiler() : finite_(kMaxCode + 1, 0) {}

    memsys::ProfilerKind
    kind() const override
    {
        return memsys::ProfilerKind::Aet;
    }

    memsys::DistanceSample access(memsys::Addr line) override;

    void accessBatch(const memsys::Addr *lines, std::size_t n,
                     memsys::DistanceSample *out) override;

    bool invalidate(memsys::Addr line) override;

    bool evict(memsys::Addr line) override;

    bool
    tracks(memsys::Addr line) const override
    {
        return last_.find(line) != nullptr;
    }

    std::uint64_t liveLines() const override { return live_; }

    std::uint64_t
    touchedLines() const override
    {
        return static_cast<std::uint64_t>(last_.size());
    }

    /**
     * The AET transform: the first reuse-time code classified as a miss
     * in a cache of @p capacity_lines, i.e. t*(C) + 1 at the integral
     * crossing, or kMaxCode + 1 when the crossing is never reached (no
     * finite reuse misses). The model integrates over *all* ingested
     * references, warm-up included — the survival function P(t) is a
     * property of the workload, not of the measurement window.
     */
    std::uint64_t
    capacityToThreshold(std::uint64_t capacity_lines) const override;

    void clear() override;

    std::uint64_t memoryBytes() const override;

  private:
    static constexpr std::int64_t kInvalidated = -1;

    memsys::DistanceSample accessOne(memsys::Addr line);

    /** addr -> timestamp of latest access, or kInvalidated tombstone. */
    memsys::LineMap last_;
    /** finite_[c]: ingested references with finite reuse code c. */
    std::vector<std::uint64_t> finite_;
    /** Ingested references with infinite reuse (Cold + Coherence). */
    std::uint64_t infinite_ = 0;
    /** Sum over finite_ — kept incrementally. */
    std::uint64_t finiteTotal_ = 0;
    /** References ingested (monotone; one per access()). */
    std::uint64_t now_ = 0;
    /** Lines currently live (non-tombstoned). */
    std::uint64_t live_ = 0;
    /** High-water mark of live_. A stack distance of d needs d deeper
     *  live lines at the moment of access, so no distance can reach
     *  peakLive_ — an exact bound the model is clamped with. */
    std::uint64_t peakLive_ = 0;
};

} // namespace wsg::approx

#endif // WSG_APPROX_AET_HH
