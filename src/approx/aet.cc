#include "approx/aet.hh"

namespace wsg::approx
{

memsys::DistanceSample
AetProfiler::accessOne(memsys::Addr line)
{
    ++now_;
    memsys::DistanceSample sample;
    std::int64_t &stamp = last_.findOrInsert(line);
    if (stamp == 0 || stamp == kInvalidated) {
        sample.kind = stamp == 0 ? memsys::RefClass::Cold
                                 : memsys::RefClass::Coherence;
        ++infinite_;
        if (++live_ > peakLive_)
            peakLive_ = live_;
    } else {
        sample.kind = memsys::RefClass::Finite;
        std::uint64_t t = now_ - static_cast<std::uint64_t>(stamp);
        sample.distance = codeFor(t);
        ++finite_[sample.distance];
        ++finiteTotal_;
    }
    stamp = static_cast<std::int64_t>(now_);
    return sample;
}

memsys::DistanceSample
AetProfiler::access(memsys::Addr line)
{
    return accessOne(line);
}

void
AetProfiler::accessBatch(const memsys::Addr *lines, std::size_t n,
                         memsys::DistanceSample *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = accessOne(lines[i]);
}

bool
AetProfiler::invalidate(memsys::Addr line)
{
    std::int64_t *stamp = last_.find(line);
    if (!stamp || *stamp == kInvalidated)
        return false;
    *stamp = kInvalidated;
    --live_;
    return true;
}

bool
AetProfiler::evict(memsys::Addr line)
{
    std::int64_t stamp = last_.erase(line);
    if (stamp == 0)
        return false;
    if (stamp != kInvalidated)
        --live_;
    return true;
}

std::uint64_t
AetProfiler::capacityToThreshold(std::uint64_t capacity_lines) const
{
    // Threshold 0 counts every recorded sample: a zero-line cache
    // misses on everything.
    if (capacity_lines == 0)
        return 0;

    // Exact clamp: a reference at stack distance d had d more-recent
    // live lines above it, so every finite distance is < peakLive_.
    // Once the cache covers the peak footprint nothing finite misses,
    // however heavy the reuse-*time* tail is — this is where the pure
    // model overshoots (long absolute gaps with few distinct lines in
    // between, e.g. phase-structured FFT transposes).
    if (capacity_lines >= peakLive_)
        return kMaxCode + 1;

    std::uint64_t total = finiteTotal_ + infinite_;
    if (total == 0)
        return kMaxCode + 1;

    // Walk the reuse-time buckets accumulating integral P(t) dt until
    // it reaches the capacity. remaining == references with reuse time
    // beyond the current bucket (infinite reuses never decay), so
    // remaining / total is the survival function sampled at the bucket.
    //
    // The integral starts at t = 1, not t = 0: distances here follow
    // the exclusive Mattson convention (a re-reference with nothing in
    // between has distance 0 and hits in any non-empty cache), so the
    // slot the line itself occupies is not part of the capacity budget.
    // With that convention a uniform loop over W lines crosses at
    // exactly C == W - 1 (all miss) versus C == W (all hit), matching
    // exact LRU.
    const double n = static_cast<double>(total);
    const double cap = static_cast<double>(capacity_lines);
    std::uint64_t remaining = total;
    double integral = 0.0;
    for (std::uint64_t b = 1; b <= kMaxCode; ++b) {
        remaining -= finite_[b];
        double lo = static_cast<double>(bucketLo(b));
        double hi = b < kMaxCode
                        ? static_cast<double>(bucketLo(b + 1))
                        : 18446744073709551616.0; // 2^64
        integral += static_cast<double>(remaining) / n * (hi - lo);
        // Crossing inside bucket b: t* lands in [lo(b), lo(b+1)), and a
        // reference misses iff its reuse time exceeds t* — code > b.
        if (integral >= cap)
            return b + 1;
    }
    return kMaxCode + 1;
}

void
AetProfiler::clear()
{
    last_.clear();
    finite_.assign(kMaxCode + 1, 0);
    infinite_ = 0;
    finiteTotal_ = 0;
    now_ = 0;
    live_ = 0;
    peakLive_ = 0;
}

std::uint64_t
AetProfiler::memoryBytes() const
{
    // The same modelled 48 B node per touched line as tree-Mattson
    // (DESIGN.md §5), whatever the flat LineMap really holds.
    constexpr std::uint64_t kMapNodeBytes = 48;
    return static_cast<std::uint64_t>(last_.size()) * kMapNodeBytes +
           static_cast<std::uint64_t>(finite_.capacity()) *
               sizeof(finite_[0]) +
           sizeof(*this);
}

} // namespace wsg::approx
