#include "apps/cg/unstructured_cg.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

namespace wsg::apps::cg
{

namespace
{

/** Interleave 16-bit x/y into a 2-D Morton key. */
std::uint32_t
morton2d(std::uint32_t x, std::uint32_t y)
{
    auto spread = [](std::uint32_t v) {
        v &= 0xffff;
        v = (v | (v << 8)) & 0x00ff00ff;
        v = (v | (v << 4)) & 0x0f0f0f0f;
        v = (v | (v << 2)) & 0x33333333;
        v = (v | (v << 1)) & 0x55555555;
        return v;
    };
    return spread(x) | (spread(y) << 1);
}

} // namespace

std::vector<std::uint32_t>
nearestNeighbors(const std::vector<double> &px, const std::vector<double> &py,
                 std::uint32_t k)
{
    auto n = static_cast<std::uint32_t>(px.size());
    k = std::min(k, n);
    std::vector<std::uint32_t> out(std::size_t{n} * k);
    if (k == 0)
        return out;

    // Square cells over the bounding square, about two points each.
    auto [min_x, max_x] = std::minmax_element(px.begin(), px.end());
    auto [min_y, max_y] = std::minmax_element(py.begin(), py.end());
    double lo_x = *min_x;
    double lo_y = *min_y;
    double span = std::max(*max_x - lo_x, *max_y - lo_y);
    std::uint32_t side = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::sqrt(n / 2.0)));
    if (!(span > 0.0))
        side = 1;
    double cell = span / side;
    double scale = side / span;
    auto cellOf = [&](double v, double lo) {
        if (side == 1)
            return std::uint32_t{0};
        return std::min(side - 1,
                        static_cast<std::uint32_t>((v - lo) * scale));
    };

    // Counting sort of the points by cell.
    std::vector<std::uint32_t> home(n);
    std::vector<std::uint32_t> start(std::size_t{side} * side + 1, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
        home[i] = cellOf(py[i], lo_y) * side + cellOf(px[i], lo_x);
        ++start[home[i] + 1];
    }
    for (std::size_t c = 0; c + 1 < start.size(); ++c)
        start[c + 1] += start[c];
    std::vector<std::uint32_t> members(n);
    {
        std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
        for (std::uint32_t i = 0; i < n; ++i)
            members[fill[home[i]]++] = i;
    }

    // Max-heap of the k best (distance², index) pairs seen so far.
    using Candidate = std::pair<double, std::uint32_t>;
    std::vector<Candidate> best;
    best.reserve(k);
    for (std::uint32_t i = 0; i < n; ++i) {
        best.clear();
        auto offer = [&](std::uint32_t c) {
            for (std::uint32_t m = start[c]; m < start[c + 1]; ++m) {
                std::uint32_t j = members[m];
                double dx = px[i] - px[j];
                double dy = py[i] - py[j];
                Candidate cand{dx * dx + dy * dy, j};
                if (best.size() < k) {
                    best.push_back(cand);
                    std::push_heap(best.begin(), best.end());
                } else if (cand < best.front()) {
                    std::pop_heap(best.begin(), best.end());
                    best.back() = cand;
                    std::push_heap(best.begin(), best.end());
                }
            }
        };
        auto cx = static_cast<std::int64_t>(home[i] % side);
        auto cy = static_cast<std::int64_t>(home[i] / side);
        std::int64_t last = static_cast<std::int64_t>(side) - 1;
        std::int64_t rings =
            std::max({cx, last - cx, cy, last - cy});
        for (std::int64_t r = 0; r <= rings; ++r) {
            // Ring r: the cells at Chebyshev distance r from home.
            for (std::int64_t y = std::max<std::int64_t>(0, cy - r);
                 y <= std::min(last, cy + r); ++y) {
                bool edge_row = y == cy - r || y == cy + r;
                std::int64_t step = edge_row || r == 0 ? 1 : 2 * r;
                for (std::int64_t x = cx - r; x <= cx + r; x += step) {
                    if (x >= 0 && x <= last)
                        offer(static_cast<std::uint32_t>(y * side + x));
                }
            }
            // Every unvisited cell is r + 1 or more cells away, so its
            // points lie at least r cell widths from point i. Rounding
            // can misplace a point lying within an ulp of a cell
            // border, so only r - 1 widths are relied on. Stop once the
            // k-th candidate is strictly closer than that: at a tie an
            // unvisited point with a lower index would still win.
            double reach = static_cast<double>(r - 1) * cell;
            if (best.size() == k && r >= 1 &&
                best.front().first < reach * reach)
                break;
        }
        std::sort_heap(best.begin(), best.end());
        for (std::uint32_t s = 0; s < k; ++s)
            out[std::size_t{i} * k + s] = best[s].second;
    }
    return out;
}

UnstructuredCg::UnstructuredCg(const UnstructuredConfig &config,
                               trace::SharedAddressSpace &space,
                               trace::MemorySink *sink)
    : cfg_(config),
      rowPtrArr_(space, "ucg.rowptr", config.numVertices + 1, sink),
      colIdxArr_(space, "ucg.colidx",
                 std::size_t{2} * config.numVertices * config.neighbors,
                 sink),
      w_(space, "ucg.weights",
         std::size_t{2} * config.numVertices * config.neighbors +
             config.numVertices,
         sink),
      x_(space, "ucg.x", config.numVertices, sink),
      b_(space, "ucg.b", config.numVertices, sink),
      r_(space, "ucg.r", config.numVertices, sink),
      p_(space, "ucg.p", config.numVertices, sink),
      q_(space, "ucg.q", config.numVertices, sink),
      flops_(config.numProcs),
      owner_(config.numVertices, 0)
{
    if (cfg_.numVertices < 2 || cfg_.neighbors == 0 ||
        cfg_.numProcs == 0) {
        throw std::invalid_argument("UnstructuredCg: bad configuration");
    }
}

void
UnstructuredCg::buildMesh()
{
    std::uint32_t n = cfg_.numVertices;
    std::mt19937_64 rng(cfg_.seed);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    px_.resize(n);
    py_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        px_[i] = uni(rng);
        py_[i] = uni(rng);
    }

    // Symmetrized k-nearest-neighbour adjacency (setup is host-side
    // and not traced).
    std::vector<std::vector<std::uint32_t>> adj(n);
    std::uint32_t k = std::min(cfg_.neighbors + 1, n);
    std::vector<std::uint32_t> nearest = nearestNeighbors(px_, py_, k);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t s = 0; s < k; ++s) {
            std::uint32_t j = nearest[std::size_t{i} * k + s];
            if (j == i)
                continue;
            adj[i].push_back(j);
            adj[j].push_back(i);
        }
    }
    for (auto &nbrs : adj) {
        std::sort(nbrs.begin(), nbrs.end());
        nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    }

    rowPtr_.assign(n + 1, 0);
    colIdx_.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        rowPtr_[i + 1] = rowPtr_[i] + adj[i].size();
        for (std::uint32_t j : adj[i])
            colIdx_.push_back(j);
    }
    assert(colIdx_.size() <=
           std::size_t{2} * cfg_.numVertices * cfg_.neighbors);

    // Mirror into the traced arrays (untraced fill).
    for (std::uint32_t i = 0; i <= n; ++i)
        rowPtrArr_.raw(i) = rowPtr_[i];
    for (std::size_t e = 0; e < colIdx_.size(); ++e)
        colIdxArr_.raw(e) = colIdx_[e];
}

void
UnstructuredCg::partition()
{
    std::uint32_t n = cfg_.numVertices;
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);

    if (cfg_.partition == PartitionKind::SpaceFillingCurve) {
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
            auto qa = morton2d(
                static_cast<std::uint32_t>(px_[a] * 65535.0),
                static_cast<std::uint32_t>(py_[a] * 65535.0));
            auto qb = morton2d(
                static_cast<std::uint32_t>(px_[b] * 65535.0),
                static_cast<std::uint32_t>(py_[b] * 65535.0));
            return qa < qb;
        });
    } else {
        std::mt19937_64 rng(cfg_.seed + 777);
        std::shuffle(order.begin(), order.end(), rng);
    }

    // Degree-weighted contiguous split: balances matvec work even
    // though degrees are irregular.
    std::uint64_t total_deg = colIdx_.size();
    std::uint64_t per = std::max<std::uint64_t>(
        1, total_deg / cfg_.numProcs);
    sweep_.assign(cfg_.numProcs, {});
    std::uint64_t acc = 0;
    for (std::uint32_t v : order) {
        ProcId p = static_cast<ProcId>(
            std::min<std::uint64_t>(acc / per, cfg_.numProcs - 1));
        owner_[v] = p;
        sweep_[p].push_back(v);
        acc += rowPtr_[v + 1] - rowPtr_[v];
    }
}

void
UnstructuredCg::buildSystem()
{
    buildMesh();
    partition();

    // Laplacian weights: -1 per edge, degree + 0.05 on the diagonal
    // (stored after the edge weights: w_[edge e] for off-diagonals,
    // w_[numEdges + v] for diagonals).
    std::uint32_t n = cfg_.numVertices;
    std::size_t ne = colIdx_.size();
    for (std::size_t e = 0; e < ne; ++e)
        w_.raw(e) = -1.0;
    for (std::uint32_t v = 0; v < n; ++v) {
        double deg = static_cast<double>(rowPtr_[v + 1] - rowPtr_[v]);
        w_.raw(ne + v) = deg + 0.05;
    }

    // b = A * ones = 0.05 everywhere; x = 0.
    for (std::uint32_t v = 0; v < n; ++v) {
        b_.raw(v) = 0.05;
        x_.raw(v) = 0.0;
    }
}

template <typename F>
void
UnstructuredCg::forOwnVertices(ProcId p, F body) const
{
    for (std::uint32_t v : sweep_[p])
        body(v);
}

void
UnstructuredCg::matvec(ProcId p, const trace::TracedArray<double> &src,
                       trace::TracedArray<double> &dst)
{
    std::size_t ne = colIdx_.size();
    forOwnVertices(p, [&](std::uint32_t v) {
        std::uint64_t lo = rowPtrArr_.read(p, v);
        std::uint64_t hi = rowPtrArr_.read(p, v + 1);
        double acc = w_.read(p, ne + v) * src.read(p, v);
        flops_.add(p, 2);
        for (std::uint64_t e = lo; e < hi; ++e) {
            std::uint32_t j = colIdxArr_.read(p, e);
            acc += w_.read(p, e) * src.read(p, j);
            flops_.add(p, 2);
        }
        dst.write(p, v, acc);
    });
}

double
UnstructuredCg::dotLocal(ProcId p, const trace::TracedArray<double> &u,
                         const trace::TracedArray<double> &v)
{
    double acc = 0.0;
    forOwnVertices(p, [&](std::uint32_t i) {
        acc += u.read(p, i) * v.read(p, i);
        flops_.add(p, 2);
    });
    return acc;
}

UnstructuredResult
UnstructuredCg::run(std::uint32_t max_iters, double tol)
{
    std::uint32_t P = cfg_.numProcs;
    // Barrier-separated phases; reductions are host-side (see GridCg).
    trace::MemorySink *sink = x_.sink();
    auto phaseBarrier = [&] {
        if (sink)
            sink->barrier();
    };

    for (ProcId p = 0; p < P; ++p) {
        forOwnVertices(p, [&](std::uint32_t v) {
            double bv = b_.read(p, v);
            r_.write(p, v, bv);
            p_.write(p, v, bv);
        });
    }
    phaseBarrier();

    double rho = 0.0;
    for (ProcId p = 0; p < P; ++p)
        rho += dotLocal(p, r_, r_);
    phaseBarrier();

    UnstructuredResult result;
    for (std::uint32_t iter = 0; iter < max_iters; ++iter) {
        for (ProcId p = 0; p < P; ++p)
            matvec(p, p_, q_);
        phaseBarrier();

        double pq = 0.0;
        for (ProcId p = 0; p < P; ++p)
            pq += dotLocal(p, p_, q_);
        phaseBarrier();
        double alpha = rho / pq;

        for (ProcId p = 0; p < P; ++p) {
            forOwnVertices(p, [&](std::uint32_t v) {
                double pv = p_.read(p, v);
                double qv = q_.read(p, v);
                x_.update(p, v, [&](double &t) { t += alpha * pv; });
                r_.update(p, v, [&](double &t) { t -= alpha * qv; });
                flops_.add(p, 4);
            });
        }
        phaseBarrier();

        double rho_new = 0.0;
        for (ProcId p = 0; p < P; ++p)
            rho_new += dotLocal(p, r_, r_);
        phaseBarrier();

        result.iterations = iter + 1;
        result.finalResidualNorm = std::sqrt(rho_new);
        if (result.finalResidualNorm < tol) {
            result.converged = true;
            return result;
        }

        double beta = rho_new / rho;
        for (ProcId p = 0; p < P; ++p) {
            forOwnVertices(p, [&](std::uint32_t v) {
                double rv = r_.read(p, v);
                p_.update(p, v, [&](double &t) { t = rv + beta * t; });
                flops_.add(p, 2);
            });
        }
        phaseBarrier();
        rho = rho_new;
    }
    return result;
}

double
UnstructuredCg::solutionError() const
{
    double worst = 0.0;
    for (std::uint32_t v = 0; v < cfg_.numVertices; ++v)
        worst = std::max(worst, std::abs(x_.raw(v) - 1.0));
    return worst;
}

std::uint64_t
UnstructuredCg::cutEdges() const
{
    std::uint64_t cut = 0;
    for (std::uint32_t v = 0; v < cfg_.numVertices; ++v) {
        for (std::uint64_t e = rowPtr_[v]; e < rowPtr_[v + 1]; ++e) {
            if (owner_[v] != owner_[colIdx_[e]])
                ++cut;
        }
    }
    return cut;
}

std::uint32_t
UnstructuredCg::degree(std::uint32_t v) const
{
    return static_cast<std::uint32_t>(rowPtr_[v + 1] - rowPtr_[v]);
}

} // namespace wsg::apps::cg
