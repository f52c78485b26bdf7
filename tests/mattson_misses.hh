/**
 * @file
 * Test-side exact-Mattson miss counts read off an aggregate.
 *
 * For tree-Mattson studies the merged stack-distance histogram counted
 * at capacity C (capacityToThreshold is the identity), plus the
 * coherence floor and optionally the cold misses, is the exact miss
 * count of a C-line fully associative LRU cache. The tests use it as
 * an oracle for the simulator's curves and concrete caches. It is not
 * a miss count for AET studies, whose histograms hold reuse-time codes.
 */

#ifndef WSG_TESTS_MATTSON_MISSES_HH
#define WSG_TESTS_MATTSON_MISSES_HH

#include <cstdint>

#include "sim/multiprocessor.hh"

namespace wsg::test
{

inline std::uint64_t
mattsonReadMisses(const sim::ProcStats &agg, std::uint64_t capacity_lines,
                  bool include_cold = false)
{
    return agg.readDistances.countAtLeast(capacity_lines) +
           agg.readCoherence + (include_cold ? agg.readCold : 0);
}

inline std::uint64_t
mattsonWriteMisses(const sim::ProcStats &agg,
                   std::uint64_t capacity_lines, bool include_cold = false)
{
    return agg.writeDistances.countAtLeast(capacity_lines) +
           agg.writeCoherence + (include_cold ? agg.writeCold : 0);
}

} // namespace wsg::test

#endif // WSG_TESTS_MATTSON_MISSES_HH
