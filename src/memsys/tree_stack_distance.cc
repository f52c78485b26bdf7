#include "memsys/tree_stack_distance.hh"

namespace wsg::memsys
{

DistanceSample
TreeStackDistanceProfiler::accessOne(Addr line)
{
    DistanceSample sample;
    auto it = last_.find(line);
    if (it == last_.end()) {
        sample.kind = RefClass::Cold;
    } else if (it->second == kInvalidated) {
        sample.kind = RefClass::Coherence;
    } else {
        sample.kind = RefClass::Finite;
        auto stamp = static_cast<std::uint64_t>(it->second);
        // Depth == number of live lines touched more recently.
        sample.distance = live_.countGreater(stamp);
        live_.erase(stamp);
    }

    ++now_;
    if (it != last_.end())
        it->second = static_cast<std::int64_t>(now_);
    else
        last_.emplace(line, static_cast<std::int64_t>(now_));
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
    // set is rebuilt densely.
    std::uint64_t n = live_.size();
    for (auto &entry : last_) {
        if (entry.second == kInvalidated)
            continue;
        auto stamp = static_cast<std::uint64_t>(entry.second);
        entry.second =
            static_cast<std::int64_t>(n - live_.countGreater(stamp));
    }
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
    auto it = last_.find(line);
    if (it == last_.end() || it->second == kInvalidated)
        return false;
    live_.erase(static_cast<std::uint64_t>(it->second));
    it->second = kInvalidated;
    return true;
}

bool
TreeStackDistanceProfiler::evict(Addr line)
{
    auto it = last_.find(line);
    if (it == last_.end())
        return false;
    if (it->second != kInvalidated)
        live_.erase(static_cast<std::uint64_t>(it->second));
    last_.erase(it);
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
    constexpr std::uint64_t kMapNodeBytes = 48;
    return static_cast<std::uint64_t>(last_.size()) * kMapNodeBytes +
           live_.memoryBytes() + sizeof(*this);
}

} // namespace wsg::memsys
