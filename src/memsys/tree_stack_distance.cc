#include "memsys/tree_stack_distance.hh"

namespace wsg::memsys
{

DistanceSample
TreeStackDistanceProfiler::accessOne(Addr line)
{
    DistanceSample sample;
    std::int64_t &stamp = last_.findOrInsert(line);
    if (stamp == 0) {
        sample.kind = RefClass::Cold;
    } else if (stamp == kInvalidated) {
        sample.kind = RefClass::Coherence;
    } else {
        sample.kind = RefClass::Finite;
        auto old = static_cast<std::uint64_t>(stamp);
        // Depth == number of live lines touched more recently.
        sample.distance = live_.countGreater(old);
        live_.erase(old);
    }

    ++now_;
    stamp = static_cast<std::int64_t>(now_);
    live_.insertMax(now_);
    if (live_.span() > kMinRenumberSpan &&
        live_.span() > 4 * live_.size())
        renumber();
    return sample;
}

void
TreeStackDistanceProfiler::renumber()
{
    // The live stamps are exactly the non-tombstone values of last_
    // (one per live line), so each one's rank among them — its
    // order-preserving new value — is read off the old set before the
    // set is rebuilt densely. Ranks do not depend on the visiting
    // order, so the walk goes in slot order.
    std::uint64_t n = live_.size();
    last_.forEach([&](Addr, std::int64_t &stamp) {
        if (stamp == kInvalidated)
            return;
        stamp = static_cast<std::int64_t>(
            n - live_.countGreater(static_cast<std::uint64_t>(stamp)));
    });
    live_.clear();
    for (std::uint64_t i = 0; i < n; ++i)
        live_.insertMax(i + 1);
    now_ = n;
}

DistanceSample
TreeStackDistanceProfiler::access(Addr line)
{
    return accessOne(line);
}

void
TreeStackDistanceProfiler::accessBatch(const Addr *lines, std::size_t n,
                                       DistanceSample *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = accessOne(lines[i]);
}

bool
TreeStackDistanceProfiler::invalidate(Addr line)
{
    std::int64_t *stamp = last_.find(line);
    if (!stamp || *stamp == kInvalidated)
        return false;
    live_.erase(static_cast<std::uint64_t>(*stamp));
    *stamp = kInvalidated;
    return true;
}

bool
TreeStackDistanceProfiler::evict(Addr line)
{
    std::int64_t stamp = last_.erase(line);
    if (stamp == 0)
        return false;
    if (stamp != kInvalidated)
        live_.erase(static_cast<std::uint64_t>(stamp));
    return true;
}

void
TreeStackDistanceProfiler::clear()
{
    last_.clear();
    live_.clear();
    now_ = 0;
}

std::uint64_t
TreeStackDistanceProfiler::memoryBytes() const
{
    // One modelled hash-map node per touched line, so the reported
    // bytes compare across constructions by their index structures.
    // The flat LineMap really holds 32-64 B per line; the node model
    // is kept so reported profiler_bytes stay comparable over time
    // (DESIGN.md §5).
    constexpr std::uint64_t kMapNodeBytes = 48;
    return static_cast<std::uint64_t>(last_.size()) * kMapNodeBytes +
           live_.memoryBytes() + sizeof(*this);
}

} // namespace wsg::memsys
