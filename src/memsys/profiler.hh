/**
 * @file
 * The common stack-distance profiler interface.
 *
 * Every miss-rate-curve construction in the tree — the exact
 * order-statistic-tree Mattson profiler and the approximate AET
 * profiler — ingests one classified reference at a time and accumulates
 * a distribution from which the whole miss-count-versus-cache-size
 * curve is read off. This interface is that contract: the simulator,
 * the study runner and the benches program against it, so constructions
 * can be swapped per run (SimConfig::profiler, --profiler) without
 * touching any consumer.
 *
 * The one construction-specific degree of freedom is how a cache
 * capacity maps onto the recorded distribution: exact Mattson records
 * stack distances, so the miss count at capacity C lines is
 * histogram.countAtLeast(C) — capacityToThreshold is the identity. AET
 * records quantized reuse times and maps C through its reuse-time model
 * (capacityToThreshold returns the reuse-time code t*(C)); the miss
 * count is then countAtLeast(t*(C)) against the same histogram type.
 * Consumers therefore evaluate every construction with one expression,
 * per processor (each processor's profiler models its own stream):
 *
 *   misses(C) = hist.countAtLeast(profiler.capacityToThreshold(C))
 *
 * sim::Multiprocessor::finiteMisses is the one place that evaluates it,
 * for all sweep sizes in one suffix pass (Histogram::countsAtLeast);
 * for Mattson it is bit-identical to indexing the histogram with C
 * directly.
 */

#ifndef WSG_MEMSYS_PROFILER_HH
#define WSG_MEMSYS_PROFILER_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "trace/memref.hh"

namespace wsg::memsys
{

using trace::Addr;

/** Classification of one profiled reference. */
enum class RefClass : std::uint8_t
{
    /** Line was in the LRU stack; `distance` is its 0-based depth. */
    Finite,
    /** First-ever reference to the line. */
    Cold,
    /** Line was invalidated by another processor since last touch. */
    Coherence,
};

/** Result of profiling one reference. */
struct DistanceSample
{
    RefClass kind = RefClass::Cold;
    /** Valid only when kind == Finite: the stack distance for
     *  Mattson, the quantized reuse-time code for AET. */
    std::uint64_t distance = 0;
};

/** Which miss-rate-curve construction a profiler implements. */
enum class ProfilerKind : std::uint8_t
{
    /** Exact Mattson: bitmap order-statistic tree over dense
     *  timestamps. */
    TreeMattson,
    /** AET (average eviction time): approximate construction from the
     *  reuse-time distribution; O(1) per reference, no stack state. */
    Aet,
};

/** Canonical kind name (also the JSON and --profiler spelling). */
inline const char *
profilerKindName(ProfilerKind kind)
{
    switch (kind) {
      case ProfilerKind::Aet: return "aet";
      case ProfilerKind::TreeMattson: break;
    }
    return "tree-mattson";
}

/**
 * Parse a kind name; accepts the canonical spellings plus the short
 * form "tree".
 * @throws std::invalid_argument on an unknown name.
 */
inline ProfilerKind
parseProfilerKind(const std::string &name)
{
    if (name == "tree" || name == "tree-mattson")
        return ProfilerKind::TreeMattson;
    if (name == "aet")
        return ProfilerKind::Aet;
    throw std::invalid_argument(
        "unknown profiler kind '" + name +
        "' (expected tree-mattson or aet)");
}

/**
 * Abstract single-processor reference profiler. See the file comment
 * for the capacity-to-threshold contract. invalidate() leaves a
 * tombstone (the next access is Coherence); evict() forgets the line
 * entirely (the next access is Cold).
 */
class Profiler
{
  public:
    virtual ~Profiler() = default;

    /** Which construction this is. */
    virtual ProfilerKind kind() const = 0;

    /** Profile one reference to @p line and update internal state. */
    virtual DistanceSample access(Addr line) = 0;

    /**
     * Profile a block of references in order; out[i] receives the
     * classified sample of lines[i]. The default loops over access();
     * implementations override with a devirtualized tight loop. Must
     * be exactly equivalent to n single calls — the batched-ingestion
     * property tests enforce this for every construction.
     */
    virtual void
    accessBatch(const Addr *lines, std::size_t n, DistanceSample *out)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = access(lines[i]);
    }

    /**
     * Coherence invalidation: remove @p line from the stack but keep a
     * tombstone so the next access classifies as Coherence.
     * @return true when the line was live.
     */
    virtual bool invalidate(Addr line) = 0;

    /**
     * Forget @p line entirely (stack and history); the next access is
     * Cold. The eviction primitive of fixed-size spatial sampling.
     * @return true when the line was known (live or tombstoned).
     */
    virtual bool evict(Addr line) = 0;

    /** Whether @p line has ever been accessed (incl. tombstones). */
    virtual bool tracks(Addr line) const = 0;

    /** Lines currently live in the stack (== footprint in lines). */
    virtual std::uint64_t liveLines() const = 0;

    /** Distinct lines ever touched (incl. tombstones). */
    virtual std::uint64_t touchedLines() const = 0;

    /**
     * Histogram threshold equivalent to a capacity of @p capacity_lines:
     * misses(C) == recorded-sample count >= capacityToThreshold(C).
     * Identity for exact Mattson; the reuse-time transform for AET.
     * Pure: it reads only the finished model.
     */
    virtual std::uint64_t
    capacityToThreshold(std::uint64_t capacity_lines) const
    {
        return capacity_lines;
    }

    /** Forget everything (stack, history, tombstones, models). */
    virtual void clear() = 0;

    /** Approximate resident bytes of the construction. */
    virtual std::uint64_t memoryBytes() const = 0;
};

} // namespace wsg::memsys

#endif // WSG_MEMSYS_PROFILER_HH
