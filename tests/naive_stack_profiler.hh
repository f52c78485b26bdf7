/**
 * @file
 * The exact Mattson oracle: an explicit LRU stack kept as a vector.
 *
 * O(n) per access and obviously correct, so the tests check the
 * production TreeStackDistanceProfiler against it distance by
 * distance. It implements memsys::Profiler, so any lockstep helper that
 * drives two profilers can drive it.
 */

#ifndef WSG_TESTS_NAIVE_STACK_PROFILER_HH
#define WSG_TESTS_NAIVE_STACK_PROFILER_HH

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "memsys/profiler.hh"

namespace wsg::test
{

class NaiveStackProfiler : public memsys::Profiler
{
  public:
    /** The construction it is the oracle of. */
    memsys::ProfilerKind
    kind() const override
    {
        return memsys::ProfilerKind::TreeMattson;
    }

    memsys::DistanceSample
    access(memsys::Addr line) override
    {
        memsys::DistanceSample sample;
        auto pos = std::find(stack_.begin(), stack_.end(), line);
        if (pos != stack_.end()) {
            sample.kind = memsys::RefClass::Finite;
            sample.distance =
                static_cast<std::uint64_t>(pos - stack_.begin());
            stack_.erase(pos);
        } else if (seen_.count(line)) {
            sample.kind = memsys::RefClass::Coherence;
        } else {
            sample.kind = memsys::RefClass::Cold;
        }
        stack_.insert(stack_.begin(), line);
        seen_.insert(line);
        return sample;
    }

    bool
    invalidate(memsys::Addr line) override
    {
        auto pos = std::find(stack_.begin(), stack_.end(), line);
        if (pos == stack_.end())
            return false;
        stack_.erase(pos);
        return true;
    }

    /** Full forget: the line leaves the stack *and* the seen set, so
     *  a retouch is Cold. */
    bool
    evict(memsys::Addr line) override
    {
        bool known = seen_.erase(line) != 0;
        auto pos = std::find(stack_.begin(), stack_.end(), line);
        if (pos != stack_.end())
            stack_.erase(pos);
        return known;
    }

    bool
    tracks(memsys::Addr line) const override
    {
        return seen_.count(line) != 0;
    }

    std::uint64_t
    liveLines() const override
    {
        return static_cast<std::uint64_t>(stack_.size());
    }

    std::uint64_t
    touchedLines() const override
    {
        return static_cast<std::uint64_t>(seen_.size());
    }

    void
    clear() override
    {
        stack_.clear();
        seen_.clear();
    }

    std::uint64_t
    memoryBytes() const override
    {
        return (stack_.size() + seen_.size()) * sizeof(memsys::Addr);
    }

  private:
    /** MRU at index 0. */
    std::vector<memsys::Addr> stack_;
    /** Lines ever accessed and not evicted (live or tombstoned). */
    std::unordered_set<memsys::Addr> seen_;
};

} // namespace wsg::test

#endif // WSG_TESTS_NAIVE_STACK_PROFILER_HH
