#include "stats/histogram.hh"

#include <algorithm>
#include <numeric>

namespace wsg::stats
{

std::uint64_t
Histogram::countAtLeast(std::uint64_t v) const
{
    std::uint64_t total = infiniteSamples_;
    for (std::uint64_t i = v; i < buckets_.size(); ++i)
        total += buckets_[i];
    return total;
}

std::vector<std::uint64_t>
Histogram::countsAtLeast(const std::vector<std::uint64_t> &values) const
{
    // Visit the values from largest to smallest while a running suffix
    // sum walks the buckets down once.
    std::vector<std::size_t> order(values.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return values[a] > values[b];
              });
    std::vector<std::uint64_t> out(values.size());
    std::uint64_t total = infiniteSamples_;
    std::uint64_t next = buckets_.size();
    for (std::size_t i : order) {
        for (; next > values[i]; --next)
            total += buckets_[next - 1];
        out[i] = total;
    }
    return out;
}

std::uint64_t
Histogram::maxValue() const
{
    for (std::uint64_t i = buckets_.size(); i > 0; --i) {
        if (buckets_[i - 1] != 0)
            return i - 1;
    }
    return 0;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    infiniteSamples_ += other.infiniteSamples_;
    totalSamples_ += other.totalSamples_;
}

void
Histogram::clear()
{
    buckets_.clear();
    infiniteSamples_ = 0;
    totalSamples_ = 0;
}

} // namespace wsg::stats
