/**
 * @file
 * Histogram of stack distances (and other integer-valued samples).
 *
 * The Mattson profiler produces one stack-distance sample per reference;
 * this histogram accumulates them and converts the distribution into a
 * miss-count-versus-cache-size curve: an LRU cache of capacity C lines
 * misses exactly on the references whose stack distance is >= C (plus the
 * cold and coherence misses, which have infinite distance).
 */

#ifndef WSG_STATS_HISTOGRAM_HH
#define WSG_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace wsg::stats
{

/**
 * Dense histogram over non-negative integer sample values with an explicit
 * overflow ("infinite") bucket.
 */
class Histogram
{
  public:
    Histogram() = default;

    /** Record one sample of value @p v. */
    void
    addSample(std::uint64_t v)
    {
        if (v >= buckets_.size())
            buckets_.resize(v + 1, 0);
        ++buckets_[v];
        ++totalSamples_;
    }

    /** Record one sample with infinite value (cold/coherence miss). */
    void
    addInfiniteSample()
    {
        ++infiniteSamples_;
        ++totalSamples_;
    }

    /** @return number of samples with value exactly @p v. */
    std::uint64_t
    count(std::uint64_t v) const
    {
        return v < buckets_.size() ? buckets_[v] : 0;
    }

    /** @return number of samples whose value is >= @p v (incl. infinite). */
    std::uint64_t countAtLeast(std::uint64_t v) const;

    /**
     * countAtLeast at every value of @p values, in one suffix pass:
     * out[i] == countAtLeast(values[i]). O(buckets + values) after
     * ordering the values, where repeated countAtLeast calls cost
     * O(values x buckets). The values need not be sorted.
     */
    std::vector<std::uint64_t>
    countsAtLeast(const std::vector<std::uint64_t> &values) const;

    std::uint64_t totalSamples() const { return totalSamples_; }
    std::uint64_t infiniteSamples() const { return infiniteSamples_; }

    /** Largest finite sample value seen (0 when empty). */
    std::uint64_t maxValue() const;

    /** Merge another histogram into this one. */
    void merge(const Histogram &other);

    /** Drop all samples. */
    void clear();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t infiniteSamples_ = 0;
    std::uint64_t totalSamples_ = 0;
};

} // namespace wsg::stats

#endif // WSG_STATS_HISTOGRAM_HH
