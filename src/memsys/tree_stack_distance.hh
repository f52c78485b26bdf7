/**
 * @file
 * Mattson LRU stack-distance profiler (ProfilerKind::TreeMattson), the
 * tree's one exact construction.
 *
 * This is the paper's measuring instrument generalized to every cache
 * size at once: for a fully associative LRU cache, a reference hits in
 * a cache of capacity C lines iff its stack distance (number of
 * *distinct* lines referenced since the previous reference to the same
 * line) is < C. One profiling pass therefore yields the exact miss
 * count for all cache sizes simultaneously. Coherence is folded in
 * through invalidate(): an invalidated line leaves the stack, and its
 * next access is a Coherence miss (a miss at every cache size — the
 * paper's inherent-communication floor). First-ever accesses are Cold.
 *
 * Live timestamps sit in an OrderStatSet — a dense bitmap with an
 * implicit order-statistic tree over group counts — whose operations
 * are all search-free bit twiddles plus short Fenwick walks. Timestamps
 * are handed out consecutively so the set stays dense; when erased
 * stamps have blown the span past 4x the live count the profiler
 * renumbers them (an order-preserving O(live log live) walk, amortized
 * O(1) per access because at least 3x live accesses must pass between
 * renumberings). Renumbering preserves the relative order of live
 * stamps, so every reported distance is unaffected.
 * test_memsys_profiler_differential checks every distance against an
 * explicit O(n) LRU stack, across renumbering points.
 *
 * Each line's latest stamp (or invalidation tombstone) lives in a
 * LineMap, a flat group-hashed table probed once per reference; the
 * renumbering walk visits it in slot order.
 */

#ifndef WSG_MEMSYS_TREE_STACK_DISTANCE_HH
#define WSG_MEMSYS_TREE_STACK_DISTANCE_HH

#include <cstdint>
#include "memsys/line_map.hh"
#include "memsys/order_stat_set.hh"
#include "memsys/profiler.hh"

namespace wsg::memsys
{

/** Exact Mattson over an order-statistic set of live timestamps. */
class TreeStackDistanceProfiler : public Profiler
{
  public:
    ProfilerKind kind() const override { return ProfilerKind::TreeMattson; }

    DistanceSample access(Addr line) override;

    void accessBatch(const Addr *lines, std::size_t n,
                     DistanceSample *out) override;

    bool invalidate(Addr line) override;

    bool evict(Addr line) override;

    bool
    tracks(Addr line) const override
    {
        return last_.find(line) != nullptr;
    }

    std::uint64_t liveLines() const override { return live_.size(); }

    std::uint64_t
    touchedLines() const override
    {
        return static_cast<std::uint64_t>(last_.size());
    }

    void clear() override;

    std::uint64_t memoryBytes() const override;

  private:
    static constexpr std::int64_t kInvalidated = -1;
    /** Never renumber below this span: tiny footprints would otherwise
     *  renumber constantly for a few KB of bitmap. */
    static constexpr std::uint64_t kMinRenumberSpan = std::uint64_t{1}
                                                      << 16;

    /** The shared classification + stack update; the non-virtual core
     *  of both access() and accessBatch(). */
    DistanceSample accessOne(Addr line);

    /** Reassign live stamps to 1..live in the same relative order and
     *  rebuild the set densely; distances are invariant under this. */
    void renumber();

    /** addr -> timestamp of latest access, or kInvalidated tombstone. */
    LineMap last_;
    /** Timestamps of live (non-tombstoned) lines. */
    OrderStatSet live_;
    /** Last timestamp handed out; strictly increasing between
     *  renumberings. */
    std::uint64_t now_ = 0;
};

} // namespace wsg::memsys

#endif // WSG_MEMSYS_TREE_STACK_DISTANCE_HH
