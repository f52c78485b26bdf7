/**
 * @file
 * Tests for unstructured-mesh CG and the Section 4.3 predictions about
 * irregular problems.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cg/grid_cg.hh"
#include "apps/cg/unstructured_cg.hh"
#include "sim/multiprocessor.hh"
#include "stats/summary.hh"
#include "trace/sinks.hh"

using namespace wsg::apps::cg;
using wsg::trace::SharedAddressSpace;

namespace
{

UnstructuredConfig
ucfg(std::uint32_t n = 512,
     PartitionKind part = PartitionKind::SpaceFillingCurve)
{
    UnstructuredConfig cfg;
    cfg.numVertices = n;
    cfg.neighbors = 6;
    cfg.numProcs = 4;
    cfg.partition = part;
    cfg.seed = 3;
    return cfg;
}

/** The k nearest by (distance², index), by brute force over all pairs:
 *  the mesh build's selection before the grid search replaced it. */
std::vector<std::uint32_t>
bruteForceNearest(const std::vector<double> &px,
                  const std::vector<double> &py, std::uint32_t k)
{
    auto n = static_cast<std::uint32_t>(px.size());
    k = std::min(k, n);
    std::vector<std::uint32_t> out;
    std::vector<std::pair<double, std::uint32_t>> dist(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            double dx = px[i] - px[j];
            double dy = py[i] - py[j];
            dist[j] = {dx * dx + dy * dy, j};
        }
        std::partial_sort(dist.begin(), dist.begin() + k, dist.end());
        for (std::uint32_t s = 0; s < k; ++s)
            out.push_back(dist[s].second);
    }
    return out;
}

/** @p n uniform points in the unit square, drawn like the mesh's. */
std::pair<std::vector<double>, std::vector<double>>
uniformPoints(std::uint32_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::vector<double> px(n), py(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        px[i] = uni(rng);
        py[i] = uni(rng);
    }
    return {px, py};
}

} // namespace

TEST(NearestNeighbors, GridSearchMatchesBruteForce)
{
    for (std::uint32_t neighbors : {1u, 6u, 12u}) {
        std::uint32_t k = neighbors + 1;
        for (std::uint32_t n : {2u, 3u, k, k + 1, 2048u}) {
            for (std::uint64_t seed : {1u, 7u, 99u}) {
                auto [px, py] = uniformPoints(n, seed);
                EXPECT_EQ(nearestNeighbors(px, py, k),
                          bruteForceNearest(px, py, k))
                    << "n=" << n << " k=" << k << " seed=" << seed;
            }
        }
    }
}

TEST(NearestNeighbors, TiesBreakByIndexOnALattice)
{
    // A 32 x 32 lattice of exactly representable coordinates: many
    // candidates sit at exactly the k-th distance, on cell borders.
    std::vector<double> px, py;
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            px.push_back(x / 32.0);
            py.push_back(y / 32.0);
        }
    }
    for (std::uint32_t k : {2u, 5u, 7u, 13u})
        EXPECT_EQ(nearestNeighbors(px, py, k), bruteForceNearest(px, py, k))
            << "k=" << k;
}

TEST(NearestNeighbors, EveryPointInOneCell)
{
    // Identical points: the bounding square is empty, so there is one
    // cell and every tie breaks by index.
    std::vector<double> same_x(40, 0.25), same_y(40, 0.75);
    EXPECT_EQ(nearestNeighbors(same_x, same_y, 7),
              bruteForceNearest(same_x, same_y, 7));

    // A tight cluster plus two far corners: the cluster shares one
    // cell, so the search must walk out across empty rings.
    auto [px, py] = uniformPoints(500, 5);
    for (std::size_t i = 0; i < px.size(); ++i) {
        px[i] = 0.5 + px[i] * 1e-4;
        py[i] = 0.5 + py[i] * 1e-4;
    }
    px.push_back(0.0);
    py.push_back(0.0);
    px.push_back(1.0);
    py.push_back(1.0);
    for (std::uint32_t k : {2u, 7u, 13u})
        EXPECT_EQ(nearestNeighbors(px, py, k), bruteForceNearest(px, py, k))
            << "k=" << k;
}

TEST(NearestNeighbors, KIsClampedToThePointCount)
{
    auto [px, py] = uniformPoints(3, 11);
    std::vector<std::uint32_t> got = nearestNeighbors(px, py, 10);
    EXPECT_EQ(got.size(), 9u);
    EXPECT_EQ(got, bruteForceNearest(px, py, 3));
}

TEST(UnstructuredCg, ConfigValidation)
{
    SharedAddressSpace space;
    UnstructuredConfig bad = ucfg();
    bad.numVertices = 1;
    EXPECT_THROW(UnstructuredCg(bad, space, nullptr),
                 std::invalid_argument);
    bad = ucfg();
    bad.neighbors = 0;
    EXPECT_THROW(UnstructuredCg(bad, space, nullptr),
                 std::invalid_argument);
}

TEST(UnstructuredCg, MeshIsSymmetricAndConnectedEnough)
{
    SharedAddressSpace space;
    UnstructuredCg cg(ucfg(), space, nullptr);
    cg.buildSystem();
    // Every vertex has at least k neighbours (symmetrization only
    // adds), and the average degree is below 2k.
    std::uint64_t total = 0;
    for (std::uint32_t v = 0; v < 512; ++v) {
        EXPECT_GE(cg.degree(v), 6u);
        total += cg.degree(v);
    }
    EXPECT_LT(total, 2ull * 6 * 512);
    EXPECT_EQ(total, cg.numEdges());
}

TEST(UnstructuredCg, ConvergesToOnes)
{
    SharedAddressSpace space;
    UnstructuredCg cg(ucfg(), space, nullptr);
    cg.buildSystem();
    UnstructuredResult res = cg.run(800, 1e-10);
    EXPECT_TRUE(res.converged);
    EXPECT_LT(cg.solutionError(), 1e-6);
}

TEST(UnstructuredCg, ConvergesUnderRandomPartitionToo)
{
    // Partitioning changes locality, never the numerics' fixed point.
    SharedAddressSpace space;
    UnstructuredCg cg(ucfg(512, PartitionKind::Random), space, nullptr);
    cg.buildSystem();
    EXPECT_TRUE(cg.run(800, 1e-10).converged);
    EXPECT_LT(cg.solutionError(), 1e-6);
}

TEST(UnstructuredCg, SpaceFillingCurveCutsFarFewerEdges)
{
    SharedAddressSpace s1, s2;
    UnstructuredCg sfc(ucfg(1024, PartitionKind::SpaceFillingCurve), s1,
                       nullptr);
    UnstructuredCg rnd(ucfg(1024, PartitionKind::Random), s2, nullptr);
    sfc.buildSystem();
    rnd.buildSystem();
    // Random partition cuts ~ (P-1)/P of all edges; the SFC partition
    // cuts O(sqrt) of them.
    EXPECT_LT(sfc.cutEdges() * 3, rnd.cutEdges());
}

TEST(UnstructuredCg, PartitionCoversAllProcessorsWithBalancedWork)
{
    SharedAddressSpace space;
    UnstructuredCg cg(ucfg(1024), space, nullptr);
    cg.buildSystem();
    cg.run(5, 0.0);
    wsg::stats::Summary work;
    std::uint64_t total = cg.flops().totalFlops();
    for (std::uint32_t p = 0; p < 4; ++p)
        work.addSample(static_cast<double>(cg.flops().flops(p)));
    EXPECT_GT(total, 0u);
    // Degree-weighted splitting keeps imbalance modest but (as the
    // paper predicts) not perfect.
    EXPECT_LT(work.imbalance(), 1.3);
}

TEST(UnstructuredCg, CommunicationTracksCutEdges)
{
    // Coherence misses per iteration should scale with the edge cut:
    // the random partition communicates several times more.
    auto comm_per_iter = [](PartitionKind part) {
        SharedAddressSpace space;
        wsg::sim::Multiprocessor mp({4, 8});
        UnstructuredCg cg(ucfg(1024, part), space, &mp);
        cg.buildSystem();
        mp.setMeasuring(false);
        cg.run(1, 0.0);
        mp.setMeasuring(true);
        cg.run(2, 0.0);
        return static_cast<double>(
            mp.aggregateStats().readCoherence);
    };
    double sfc = comm_per_iter(PartitionKind::SpaceFillingCurve);
    double rnd = comm_per_iter(PartitionKind::Random);
    EXPECT_GT(sfc, 0.0);
    EXPECT_GT(rnd, sfc * 2.0);
}

TEST(UnstructuredCg, IrregularCommunicationExceedsRegularGrid)
{
    // Section 4.3: for the same number of points, the unstructured
    // problem communicates more — its ragged partition boundaries and
    // higher vertex degree move more values per point per iteration
    // than the grid's straight perimeter. (Per FLOP the effect is
    // partially diluted because the mesh also does more work per
    // point.)
    SharedAddressSpace s1, s2;
    wsg::sim::Multiprocessor mp_u({4, 8});
    wsg::sim::Multiprocessor mp_g({4, 8});

    UnstructuredCg ucg(ucfg(1024), s1, &mp_u);
    ucg.buildSystem();
    mp_u.setMeasuring(false);
    ucg.run(1, 0.0);
    std::uint64_t uf0 = ucg.flops().totalFlops();
    mp_u.setMeasuring(true);
    ucg.run(2, 0.0);

    CgConfig gcfg;
    gcfg.n = 32; // 1024 points, same as the mesh
    gcfg.dims = 2;
    gcfg.procX = 2;
    gcfg.procY = 2;
    GridCg gcg(gcfg, s2, &mp_g);
    gcg.buildSystem();
    mp_g.setMeasuring(false);
    gcg.run(1, 0.0);
    std::uint64_t gf0 = gcg.flops().totalFlops();
    mp_g.setMeasuring(true);
    gcg.run(2, 0.0);

    (void)uf0;
    (void)gf0;
    // Communication per point (both solve 1024-point systems over the
    // same number of measured iterations).
    double u_per_point =
        static_cast<double>(mp_u.aggregateStats().readCoherence) /
        1024.0;
    double g_per_point =
        static_cast<double>(mp_g.aggregateStats().readCoherence) /
        1024.0;
    EXPECT_GT(u_per_point, g_per_point);
}

TEST(UnstructuredCg, TracedRunProducesReferences)
{
    SharedAddressSpace space;
    wsg::trace::CountingSink sink(4);
    UnstructuredCg cg(ucfg(256), space, &sink);
    cg.buildSystem();
    cg.run(2, 0.0);
    EXPECT_GT(sink.totalReads(), 10000u);
    EXPECT_GT(sink.totalWrites(), 1000u);
}
