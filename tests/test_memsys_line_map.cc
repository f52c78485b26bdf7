/**
 * @file
 * Tests for memsys::LineMap, the flat group-hashed line -> stamp map
 * under the tree-Mattson and AET profilers: seeded random
 * insert/find/erase/clear sequences in lockstep with a
 * std::unordered_map oracle across several table growths, keys at the
 * top of the address space, a whole hash group, clusters that wrap
 * round the end of the table (so backward-shift deletion must move
 * entries across the wrap), and slot-order iteration.
 */

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "memsys/line_map.hh"

using wsg::memsys::Addr;
using wsg::memsys::LineMap;

namespace
{

using Oracle = std::unordered_map<Addr, std::int64_t>;

/** Every oracle entry is found with its stamp, sizes agree, and the
 *  slot-order walk visits each entry exactly once. */
void
expectSame(LineMap &map, const Oracle &oracle)
{
    ASSERT_EQ(map.size(), oracle.size());
    for (const auto &[line, stamp] : oracle) {
        const std::int64_t *found = map.find(line);
        ASSERT_NE(found, nullptr) << "line " << line;
        EXPECT_EQ(*found, stamp) << "line " << line;
    }
    Oracle seen;
    map.forEach([&](Addr line, std::int64_t &stamp) {
        EXPECT_TRUE(seen.emplace(line, stamp).second)
            << "line " << line << " visited twice";
    });
    EXPECT_EQ(seen, oracle);
}

/** Insert @p line with @p stamp (non-zero) into both. */
void
put(LineMap &map, Oracle &oracle, Addr line, std::int64_t stamp)
{
    map.findOrInsert(line) = stamp;
    oracle[line] = stamp;
}

/** Erase @p line from both and compare the returned stamps. */
void
take(LineMap &map, Oracle &oracle, Addr line)
{
    auto it = oracle.find(line);
    std::int64_t expected = it == oracle.end() ? 0 : it->second;
    EXPECT_EQ(map.erase(line), expected) << "line " << line;
    if (it != oracle.end())
        oracle.erase(it);
}

} // namespace

TEST(LineMap, StartsEmpty)
{
    LineMap map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), 0u);
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.find(~Addr{0}), nullptr);
    EXPECT_EQ(map.erase(7), 0);
    map.clear();
    EXPECT_EQ(map.size(), 0u);
}

TEST(LineMap, FindOrInsertReturnsZeroForNewLinesOnly)
{
    LineMap map;
    std::int64_t &fresh = map.findOrInsert(42);
    EXPECT_EQ(fresh, 0);
    fresh = 9;
    EXPECT_EQ(map.findOrInsert(42), 9);
    EXPECT_EQ(map.size(), 1u);
    // The profilers' tombstone is an ordinary stamp to the map.
    *map.find(42) = -1;
    EXPECT_EQ(map.findOrInsert(42), -1);
    EXPECT_EQ(map.erase(42), -1);
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_EQ(map.size(), 0u);
}

TEST(LineMap, KeysAtTheTopOfTheAddressSpace)
{
    LineMap map;
    Oracle oracle;
    const Addr top = ~Addr{0};
    put(map, oracle, top, 1);
    put(map, oracle, top - 1, 2);
    put(map, oracle, 0, 3);
    expectSame(map, oracle);
    take(map, oracle, top);
    expectSame(map, oracle);
    EXPECT_EQ(map.find(top), nullptr);
    ASSERT_NE(map.find(top - 1), nullptr);
    put(map, oracle, top, 4);
    take(map, oracle, top - 1);
    expectSame(map, oracle);
}

TEST(LineMap, OneWholeGroupLandsInAdjacentSlots)
{
    LineMap map;
    Oracle oracle;
    const Addr base = Addr{0x1234567} << LineMap::kGroupShift;
    for (Addr i = 0; i < 16; ++i)
        put(map, oracle, base + i, static_cast<std::int64_t>(i + 1));
    std::size_t mask = map.capacity() - 1;
    std::size_t home = LineMap::homeSlot(base, mask);
    for (Addr i = 0; i < 16; ++i)
        EXPECT_EQ(LineMap::homeSlot(base + i, mask), (home + i) & mask);
    expectSame(map, oracle);
    // Erase from the middle out; the rest of the group stays findable.
    for (Addr i : {Addr{7}, Addr{8}, Addr{0}, Addr{15}, Addr{3}})
        take(map, oracle, base + i);
    expectSame(map, oracle);
}

TEST(LineMap, BackwardShiftAcrossAWrappedCluster)
{
    LineMap map;
    map.findOrInsert(1) = 1;
    map.erase(1);
    const std::size_t cap = map.capacity();
    ASSERT_GE(cap, 16u);
    const std::size_t mask = cap - 1;

    // Lines whose home is one of the last two slots: inserted together
    // they form a cluster that wraps round to slot 0 and beyond.
    std::vector<Addr> wrap;
    for (Addr line = 0; wrap.size() < 6; ++line) {
        if (LineMap::homeSlot(line, mask) >= cap - 2)
            wrap.push_back(line);
    }
    // Lines congruent modulo the table size: they share the in-group
    // offset, so their homes differ only by the mixed group hash.
    std::vector<Addr> congruent;
    for (Addr j = 1; j <= 4; ++j)
        congruent.push_back(5 + j * cap);

    Oracle oracle;
    std::int64_t stamp = 0;
    for (Addr line : wrap)
        put(map, oracle, line, ++stamp);
    for (Addr line : congruent)
        put(map, oracle, line, ++stamp);
    ASSERT_EQ(map.capacity(), cap) << "the test needs one table size";
    expectSame(map, oracle);

    // Erasing the cluster's head forces every later member, including
    // the ones past the wrap, to shift back.
    take(map, oracle, wrap[0]);
    expectSame(map, oracle);
    take(map, oracle, wrap[3]);
    expectSame(map, oracle);
    put(map, oracle, wrap[0], ++stamp);
    expectSame(map, oracle);
    for (Addr line : wrap)
        take(map, oracle, line);
    expectSame(map, oracle);
    for (Addr line : congruent)
        take(map, oracle, line);
    expectSame(map, oracle);
    EXPECT_EQ(map.size(), 0u);
}

TEST(LineMap, ClearKeepsTheTable)
{
    LineMap map;
    for (Addr line = 0; line < 1000; ++line)
        map.findOrInsert(line) = 1;
    std::size_t cap = map.capacity();
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), cap);
    for (Addr line = 0; line < 1000; ++line)
        EXPECT_EQ(map.find(line), nullptr);
    for (Addr line = 0; line < 1000; ++line)
        map.findOrInsert(line) = 2;
    EXPECT_EQ(map.capacity(), cap);
}

TEST(LineMap, StaysAtMostHalfFull)
{
    LineMap map;
    for (Addr line = 0; line < 5000; ++line) {
        map.findOrInsert(line * 977) = 1;
        EXPECT_LE(2 * map.size(), map.capacity());
    }
}

TEST(LineMap, MovesLeaveTheSourceEmptyAndUsable)
{
    LineMap a;
    for (Addr line = 0; line < 100; ++line)
        a.findOrInsert(line) = static_cast<std::int64_t>(line + 1);
    LineMap b = std::move(a);
    EXPECT_EQ(b.size(), 100u);
    EXPECT_EQ(*b.find(50), 51);
    EXPECT_EQ(a.size(), 0u); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.find(50), nullptr);
    a.findOrInsert(50) = 7;
    EXPECT_EQ(*a.find(50), 7);
}

TEST(LineMap, KeepsTheNodeMapObjectSize)
{
    EXPECT_EQ(sizeof(LineMap), sizeof(Oracle));
}

class LineMapLockstep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LineMapLockstep, RandomOperationsMatchTheOracle)
{
    std::mt19937_64 rng(GetParam());
    LineMap map;
    Oracle oracle;
    std::int64_t stamp = 0;
    std::vector<std::size_t> capacities;
    // Keys mix streams of consecutive lines (the simulator's common
    // case), scattered lines, and lines near 2^64, so groups are both
    // full and sparse.
    auto pick = [&]() -> Addr {
        switch (rng() % 4) {
          case 0:
            return rng() % 4096;
          case 1:
            return (Addr{1} << 40) + rng() % 512;
          case 2:
            return ~Addr{0} - rng() % 64;
          default:
            return rng();
        }
    };
    std::vector<Addr> seen;
    for (int step = 0; step < 40000; ++step) {
        unsigned op = static_cast<unsigned>(rng() % 100);
        if (op < 55 || seen.empty()) {
            Addr line = pick();
            seen.push_back(line);
            std::int64_t next = rng() % 8 == 0 ? -1 : ++stamp;
            put(map, oracle, line, next);
        } else if (op < 80) {
            Addr line = seen[rng() % seen.size()];
            auto it = oracle.find(line);
            const std::int64_t *found = map.find(line);
            if (it == oracle.end()) {
                EXPECT_EQ(found, nullptr);
            } else {
                ASSERT_NE(found, nullptr);
                EXPECT_EQ(*found, it->second);
            }
        } else if (op < 99) {
            take(map, oracle, rng() % 2 ? seen[rng() % seen.size()]
                                        : pick());
        } else if (rng() % 20 == 0) {
            map.clear();
            oracle.clear();
        }
        if (capacities.empty() || capacities.back() != map.capacity())
            capacities.push_back(map.capacity());
        if (step % 5000 == 4999)
            expectSame(map, oracle);
    }
    expectSame(map, oracle);
    EXPECT_GE(capacities.size(), 5u) << "too few growths exercised";
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineMapLockstep,
                         ::testing::Values(1u, 2u, 3u, 17u, 2024u));
