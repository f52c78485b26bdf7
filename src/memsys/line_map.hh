/**
 * @file
 * Flat open-addressing map from line number to last-access stamp — the
 * per-reference line index of the tree-Mattson and AET profilers.
 *
 * Every simulated reference probes one of these, so the layout is
 * chosen for the host's caches rather than for generality:
 *
 *  - Slots are 16-byte {line, stamp} pairs in one power-of-two array,
 *    probed linearly and kept at most half full. A stamp of 0 marks an
 *    empty slot: the profilers' stamps are >= 1 and their tombstone is
 *    -1, so no key value has to be reserved (line numbers reach
 *    2^64 - 1 with 1-byte lines).
 *  - Lines hash in groups of 16: the home slot of a line is
 *    (mix(line >> 4) << 4 | (line & 15)) & mask, so the 16 lines of a
 *    group land in adjacent slots and a streaming sweep touches one
 *    host cache line per 4 simulated lines instead of one per line.
 *    Hashing lines one by one scatters those sweeps over the table,
 *    and a load above one half lets primary clustering lengthen the
 *    probes; both measured slower than the node-based map this
 *    replaces.
 *  - erase() uses backward-shift deletion, so no map-level tombstones
 *    accumulate under the fixed-size sampler's evictions.
 *
 * sizeof(LineMap) equals sizeof(std::unordered_map<Addr, std::int64_t>)
 * on purpose: the profilers report a modelled memory footprint that
 * includes their own object size, and that figure is pinned by reports
 * and tests (DESIGN.md §5).
 */

#ifndef WSG_MEMSYS_LINE_MAP_HH
#define WSG_MEMSYS_LINE_MAP_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "memsys/profiler.hh"

namespace wsg::memsys
{

/** Line -> non-zero int64 stamp, flat and group-hashed. */
class LineMap
{
  public:
    /** Lines per hash group (adjacent home slots). */
    static constexpr unsigned kGroupShift = 4;
    /** Slot count of the first allocation. */
    static constexpr std::size_t kMinSlots = 64;

    LineMap() = default;
    /** Moves leave the source empty and usable. */
    LineMap(LineMap &&other) noexcept { *this = std::move(other); }
    LineMap &
    operator=(LineMap &&other) noexcept
    {
        slots_ = std::exchange(other.slots_, {});
        mask_ = std::exchange(other.mask_, 0);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    /** Home slot of @p line in a table of @p mask + 1 slots. */
    static std::size_t
    homeSlot(Addr line, std::size_t mask)
    {
        Addr group = line >> kGroupShift;
        auto mixed = static_cast<std::size_t>(
            (group * 0x9E3779B97F4A7C15ull) >> 32);
        return ((mixed << kGroupShift) |
                static_cast<std::size_t>(line & ((1u << kGroupShift) - 1))) &
               mask;
    }

    /** The stamp of @p line, or nullptr when absent. */
    std::int64_t *
    find(Addr line)
    {
        std::size_t i = locate(line);
        return i == slots_.size() ? nullptr : &slots_[i].stamp;
    }

    const std::int64_t *
    find(Addr line) const
    {
        std::size_t i = locate(line);
        return i == slots_.size() ? nullptr : &slots_[i].stamp;
    }

    /**
     * The stamp of @p line, inserting it with stamp 0 when absent. The
     * caller must store a non-zero stamp through the reference before
     * the next call: 0 is the empty-slot marker.
     */
    std::int64_t &
    findOrInsert(Addr line)
    {
        if (!slots_.empty()) {
            std::size_t i = homeSlot(line, mask_);
            while (slots_[i].stamp != 0) {
                if (slots_[i].line == line)
                    return slots_[i].stamp;
                i = (i + 1) & mask_;
            }
            if (2 * (size_ + 1) <= slots_.size())
                return claim(i, line);
        }
        grow();
        std::size_t i = homeSlot(line, mask_);
        while (slots_[i].stamp != 0)
            i = (i + 1) & mask_;
        return claim(i, line);
    }

    /** Remove @p line; @return its stamp, or 0 when it was absent. */
    std::int64_t erase(Addr line);

    /** Remove every entry, keeping the table. */
    void clear();

    std::size_t size() const { return size_; }

    /** Table slots (0 before the first insert). */
    std::size_t capacity() const { return slots_.size(); }

    /** Call @p f(line, stamp&) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F f)
    {
        for (Slot &slot : slots_) {
            if (slot.stamp != 0)
                f(slot.line, slot.stamp);
        }
    }

  private:
    struct Slot
    {
        Addr line;
        /** 0 = empty. */
        std::int64_t stamp;
    };

    /** Slot index of @p line, or capacity() when absent. */
    std::size_t
    locate(Addr line) const
    {
        if (size_ == 0)
            return slots_.size();
        std::size_t i = homeSlot(line, mask_);
        while (slots_[i].stamp != 0) {
            if (slots_[i].line == line)
                return i;
            i = (i + 1) & mask_;
        }
        return slots_.size();
    }

    std::int64_t &
    claim(std::size_t i, Addr line)
    {
        slots_[i].line = line;
        ++size_;
        return slots_[i].stamp;
    }

    /** Double the table (or make the first one) and rehash. */
    void grow();

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    /** Unused: pads the map to the size of the node map it replaced,
     *  so the profilers' object sizes, and with them every reported
     *  profiler_bytes, stay what they were. */
    unsigned char reserved_[sizeof(std::unordered_map<Addr, std::int64_t>) -
                            sizeof(std::vector<Slot>) -
                            2 * sizeof(std::size_t)] = {};
};

static_assert(sizeof(LineMap) ==
                  sizeof(std::unordered_map<Addr, std::int64_t>),
              "LineMap must keep the node map's object size");

inline void
LineMap::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinSlots : 2 * old.size(), Slot{0, 0});
    mask_ = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.stamp == 0)
            continue;
        std::size_t i = homeSlot(slot.line, mask_);
        while (slots_[i].stamp != 0)
            i = (i + 1) & mask_;
        slots_[i] = slot;
    }
}

inline std::int64_t
LineMap::erase(Addr line)
{
    std::size_t hole = locate(line);
    if (hole == slots_.size())
        return 0;
    std::int64_t stamp = slots_[hole].stamp;
    // Backward shift: pull each later member of the cluster into the
    // hole unless that would move it before its home slot.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].stamp != 0;
         j = (j + 1) & mask_) {
        std::size_t home = homeSlot(slots_[j].line, mask_);
        if (((j - home) & mask_) >= ((j - hole) & mask_)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole].stamp = 0;
    --size_;
    return stamp;
}

inline void
LineMap::clear()
{
    for (Slot &slot : slots_)
        slot.stamp = 0;
    size_ = 0;
}

} // namespace wsg::memsys

#endif // WSG_MEMSYS_LINE_MAP_HH
