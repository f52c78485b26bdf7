/**
 * @file
 * Conjugate gradient on an unstructured mesh — the irregular-problem
 * case of Section 4.3: "many important problems (e.g., unstructured
 * problems that model complex physical structures) will not be nearly
 * as regular as the 2-D and 3-D grids considered here", with three
 * consequences the paper predicts: worse load balance, a higher
 * communication-to-computation ratio at the same data size, and a
 * partitioning step whose quality matters.
 *
 * The mesh is a symmetrized k-nearest-neighbour graph over random
 * points in the unit square (irregular degrees, strong spatial
 * structure), stored in CSR with traced index/weight/vector arrays. Two
 * partitioners are provided: a space-filling-curve (Morton) partition
 * and a random partition, so the paper's partitioning-quality point can
 * be measured directly.
 */

#ifndef WSG_APPS_CG_UNSTRUCTURED_CG_HH
#define WSG_APPS_CG_UNSTRUCTURED_CG_HH

#include <cstdint>
#include <vector>

#include "trace/address_space.hh"
#include "trace/flop_counter.hh"
#include "trace/traced_array.hh"

namespace wsg::apps::cg
{

using trace::ProcId;

/** How vertices are assigned to processors. */
enum class PartitionKind : std::uint8_t
{
    /** Contiguous runs along a Morton space-filling curve. */
    SpaceFillingCurve,
    /** Uniform random assignment (a deliberately bad baseline). */
    Random,
};

/** Configuration of an unstructured CG run. */
struct UnstructuredConfig
{
    /** Vertex count. */
    std::uint32_t numVertices = 1024;
    /** Neighbours per vertex before symmetrization. */
    std::uint32_t neighbors = 6;
    std::uint32_t numProcs = 4;
    PartitionKind partition = PartitionKind::SpaceFillingCurve;
    std::uint64_t seed = 1;
};

/** Result of a solve (same shape as the grid solver's). */
struct UnstructuredResult
{
    std::uint32_t iterations = 0;
    double finalResidualNorm = 0.0;
    bool converged = false;
};

/**
 * The @p k nearest of the points (px[i], py[i]) to each of them, the
 * point itself included (k is clamped to the point count). Row i of the
 * result — entries [i * k, (i + 1) * k) — holds the k smallest indices
 * j by (squared distance, j), ascending: exactly the first k entries of
 * a partial_sort of every (distance², j) pair. Found by searching rings
 * of a uniform grid of about two points per cell, so uniform points
 * cost O(k log k) each instead of O(n).
 */
std::vector<std::uint32_t> nearestNeighbors(const std::vector<double> &px,
                                            const std::vector<double> &py,
                                            std::uint32_t k);

/** Traced parallel CG on the k-NN mesh. */
class UnstructuredCg
{
  public:
    UnstructuredCg(const UnstructuredConfig &config,
                   trace::SharedAddressSpace &space,
                   trace::MemorySink *sink);

    /**
     * Generate the mesh, build the Laplacian system with b = A * ones,
     * and partition (untraced setup).
     */
    void buildSystem();

    /** Run CG from x = 0 (traced, phase-parallel). */
    UnstructuredResult run(std::uint32_t max_iters, double tol = 1e-8);

    /** Max |x_i - 1| after run(). */
    double solutionError() const;

    /** Owner of vertex @p v. */
    ProcId owner(std::uint32_t v) const { return owner_[v]; }

    /** Edges whose endpoints live on different processors. */
    std::uint64_t cutEdges() const;

    /** Total directed edges (CSR entries). */
    std::uint64_t numEdges() const { return colIdx_.size(); }

    /** Degree of vertex @p v. */
    std::uint32_t degree(std::uint32_t v) const;

    const trace::FlopCounter &flops() const { return flops_; }
    const UnstructuredConfig &config() const { return cfg_; }

  private:
    void buildMesh();
    void partition();

    /** Iterate a processor's vertices in partition order. */
    template <typename F>
    void forOwnVertices(ProcId p, F body) const;

    void matvec(ProcId p, const trace::TracedArray<double> &src,
                trace::TracedArray<double> &dst);
    double dotLocal(ProcId p, const trace::TracedArray<double> &u,
                    const trace::TracedArray<double> &v);

    UnstructuredConfig cfg_;
    /** Vertex coordinates (host-side; partitioning input). */
    std::vector<double> px_, py_;
    /** CSR row pointers (host copy mirrors the traced array). */
    std::vector<std::uint64_t> rowPtr_;
    std::vector<std::uint32_t> colIdx_;

    /** Traced CSR arrays, sized to the 2*k*n upper bound at
     *  construction and filled by buildSystem(). */
    trace::TracedArray<std::uint64_t> rowPtrArr_;
    trace::TracedArray<std::uint32_t> colIdxArr_;
    trace::TracedArray<double> w_;
    trace::TracedArray<double> x_;
    trace::TracedArray<double> b_;
    trace::TracedArray<double> r_;
    trace::TracedArray<double> p_;
    trace::TracedArray<double> q_;
    trace::FlopCounter flops_;

    std::vector<ProcId> owner_;
    /** Vertices in partition-sweep order per processor. */
    std::vector<std::vector<std::uint32_t>> sweep_;
};

} // namespace wsg::apps::cg

#endif // WSG_APPS_CG_UNSTRUCTURED_CG_HH
