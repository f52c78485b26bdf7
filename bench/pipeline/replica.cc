#include "replica.hh"

#include <cmath>
#include <stdexcept>

#include "apps/barnes/barnes_hut.hh"
#include "apps/cg/grid_cg.hh"
#include "apps/cg/unstructured_cg.hh"
#include "apps/fft/fft2d.hh"
#include "apps/fft/fft3d.hh"
#include "apps/fft/parallel_fft.hh"
#include "apps/lu/blocked_cholesky.hh"
#include "apps/lu/blocked_lu.hh"
#include "apps/volrend/renderer.hh"
#include "apps/volrend/volume.hh"
#include "core/presets.hh"
#include "core/suite.hh"

namespace wsg::pipeline
{

namespace
{

using core::ProblemSize;

template <typename T>
T
sized(ProblemSize size, T small, T base, T large)
{
    switch (size) {
      case ProblemSize::Small:
        return small;
      case ProblemSize::Large:
        return large;
      case ProblemSize::Base:
        break;
    }
    return base;
}

/**
 * The warm-up protocol of every iterative study: @p warmup units
 * unmeasured, then @p measured units measured; returns the FLOPs of
 * the measured units. @p phase(n) runs n units.
 */
template <typename Phase>
std::uint64_t
warmThenMeasure(Harness &harness, const trace::FlopCounter &flops,
                std::uint32_t warmup, std::uint32_t measured, Phase phase)
{
    harness.setMeasuring(false);
    phase(warmup);
    std::uint64_t warm_flops = flops.totalFlops();
    harness.setMeasuring(true);
    phase(measured);
    return flops.totalFlops() - warm_flops;
}

Replica
base(std::uint32_t num_procs, std::uint32_t line_bytes,
     std::uint64_t min_cache_bytes, core::Metric metric,
     std::string curve_name)
{
    Replica r;
    r.numProcs = num_procs;
    r.lineBytes = line_bytes;
    r.study.minCacheBytes = min_cache_bytes;
    r.metric = metric;
    r.curveName = std::move(curve_name);
    return r;
}

Replica
lu(std::uint32_t block, ProblemSize size)
{
    apps::lu::LuConfig cfg = core::presets::simLu(block);
    cfg.n = sized<std::uint32_t>(size, 128, 256, 384);
    Replica r = base(cfg.numProcs(), 8, 16, core::Metric::MissesPerFlop,
                     "LU n=" + std::to_string(cfg.n) +
                         " B=" + std::to_string(cfg.blockSize));
    r.run = [cfg](trace::SharedAddressSpace &space, Harness &h) {
        apps::lu::BlockedLu app(cfg, space, &h.sink());
        app.randomize(1234);
        app.factor();
        return app.flops().totalFlops();
    };
    return r;
}

Replica
cholesky(ProblemSize size)
{
    apps::lu::LuConfig cfg = core::presets::simCholesky();
    cfg.n = sized<std::uint32_t>(size, 128, 256, 384);
    Replica r = base(cfg.numProcs(), 8, 16, core::Metric::MissesPerFlop,
                     "Cholesky n=" + std::to_string(cfg.n) +
                         " B=" + std::to_string(cfg.blockSize));
    r.run = [cfg](trace::SharedAddressSpace &space, Harness &h) {
        apps::lu::BlockedCholesky app(cfg, space, &h.sink());
        app.randomizeSpd(1234);
        app.factor();
        return app.flops().totalFlops();
    };
    return r;
}

Replica
gridCg(std::uint32_t dims, ProblemSize size)
{
    apps::cg::CgConfig cfg = dims == 2 ? core::presets::simCg2d()
                                       : core::presets::simCg3d();
    cfg.n = dims == 2 ? sized<std::uint32_t>(size, 64, 128, 192)
                      : sized<std::uint32_t>(size, 16, 32, 48);
    Replica r = base(cfg.numProcs(), 8, 16, core::Metric::MissesPerFlop,
                     "CG " + std::to_string(cfg.dims) +
                         "-D n=" + std::to_string(cfg.n));
    r.run = [cfg](trace::SharedAddressSpace &space, Harness &h) {
        apps::cg::GridCg app(cfg, space, &h.sink());
        app.buildSystem();
        return warmThenMeasure(h, app.flops(), 1, 3,
                               [&app](std::uint32_t n) { app.run(n, 0.0); });
    };
    return r;
}

Replica
unstructuredCg(ProblemSize size)
{
    apps::cg::UnstructuredConfig cfg = core::presets::simUnstructured();
    cfg.numVertices = sized<std::uint32_t>(size, 2048, 4096, 8192);
    Replica r = base(cfg.numProcs, 8, 16, core::Metric::MissesPerFlop,
                     "UnstructuredCG n=" +
                         std::to_string(cfg.numVertices));
    r.run = [cfg](trace::SharedAddressSpace &space, Harness &h) {
        apps::cg::UnstructuredCg app(cfg, space, &h.sink());
        app.buildSystem();
        return warmThenMeasure(h, app.flops(), 1, 3,
                               [&app](std::uint32_t n) { app.run(n, 0.0); });
    };
    return r;
}

Replica
fft(std::uint32_t radix, ProblemSize size)
{
    apps::fft::FftConfig cfg = core::presets::simFft(radix);
    cfg.logN = sized<std::uint32_t>(size, 12, 14, 16);
    Replica r = base(cfg.numProcs, 8, 16, core::Metric::MissesPerFlop,
                     "FFT logN=" + std::to_string(cfg.logN) +
                         " r=" + std::to_string(cfg.internalRadix));
    r.run = [cfg](trace::SharedAddressSpace &space, Harness &h) {
        apps::fft::ParallelFft app(cfg, space, &h.sink());
        for (std::uint64_t i = 0; i < cfg.N(); ++i)
            app.setInput(i, {std::sin(0.001 * static_cast<double>(i)),
                             std::cos(0.003 * static_cast<double>(i))});
        return warmThenMeasure(h, app.flops(), 1, 1,
                               [&app](std::uint32_t n) {
                                   for (std::uint32_t t = 0; t < n; ++t)
                                       app.forward();
                               });
    };
    return r;
}

Replica
fft2d(ProblemSize size)
{
    apps::fft::Fft2dConfig cfg = core::presets::simFft2d();
    cfg.logRows = sized<std::uint32_t>(size, 5, 6, 7);
    cfg.logCols = cfg.logRows;
    Replica r = base(cfg.numProcs, 8, 16, core::Metric::MissesPerFlop,
                     "FFT2D " + std::to_string(cfg.rows()) + "x" +
                         std::to_string(cfg.cols()));
    r.run = [cfg](trace::SharedAddressSpace &space, Harness &h) {
        apps::fft::Fft2d app(cfg, space, &h.sink());
        for (std::uint64_t row = 0; row < cfg.rows(); ++row) {
            for (std::uint64_t col = 0; col < cfg.cols(); ++col) {
                double t =
                    0.001 * static_cast<double>(row * cfg.cols() + col);
                app.setInput(row, col, {std::sin(t), std::cos(3.0 * t)});
            }
        }
        return warmThenMeasure(h, app.flops(), 1, 1,
                               [&app](std::uint32_t n) {
                                   for (std::uint32_t t = 0; t < n; ++t)
                                       app.forward();
                               });
    };
    return r;
}

Replica
fft3d(ProblemSize size)
{
    apps::fft::Fft3dConfig cfg = core::presets::simFft3d();
    cfg.log0 = sized<std::uint32_t>(size, 3, 4, 5);
    cfg.log1 = cfg.log0;
    cfg.log2 = cfg.log0;
    Replica r = base(cfg.numProcs, 8, 16, core::Metric::MissesPerFlop,
                     "FFT3D " + std::to_string(cfg.n0()) + "x" +
                         std::to_string(cfg.n1()) + "x" +
                         std::to_string(cfg.n2()));
    r.run = [cfg](trace::SharedAddressSpace &space, Harness &h) {
        apps::fft::Fft3d app(cfg, space, &h.sink());
        std::uint64_t flat = 0;
        for (std::uint64_t i0 = 0; i0 < cfg.n0(); ++i0) {
            for (std::uint64_t i1 = 0; i1 < cfg.n1(); ++i1) {
                for (std::uint64_t i2 = 0; i2 < cfg.n2(); ++i2, ++flat) {
                    double t = 0.001 * static_cast<double>(flat);
                    app.setInput(i0, i1, i2,
                                 {std::sin(t), std::cos(3.0 * t)});
                }
            }
        }
        return warmThenMeasure(h, app.flops(), 1, 1,
                               [&app](std::uint32_t n) {
                                   for (std::uint32_t t = 0; t < n; ++t)
                                       app.forward();
                               });
    };
    return r;
}

Replica
barnes(ProblemSize size)
{
    apps::barnes::BarnesConfig cfg = core::presets::simBarnesFig6();
    cfg.numBodies = sized<std::uint32_t>(size, 512, 1024, 2048);
    Replica r = base(cfg.numProcs, 32, 64, core::Metric::ReadMissRate,
                     "Barnes-Hut n=" + std::to_string(cfg.numBodies) +
                         " theta=" +
                         std::to_string(cfg.theta).substr(0, 4));
    r.run = [cfg](trace::SharedAddressSpace &space, Harness &h) {
        apps::barnes::BarnesHut app(cfg, space, &h.sink());
        app.initPlummer();
        warmThenMeasure(h, app.flops(), 1, 2, [&app](std::uint32_t n) {
            for (std::uint32_t s = 0; s < n; ++s)
                app.step();
        });
        return std::uint64_t{0};
    };
    return r;
}

Replica
volrend(ProblemSize size)
{
    std::uint32_t edge = sized<std::uint32_t>(size, 64, 96, 128);
    apps::volrend::VolumeDims dims{edge, edge, edge};
    apps::volrend::RenderConfig render = core::presets::simVolrendRender();
    render.imageWidth = edge;
    render.imageHeight = edge;
    Replica r = base(render.numProcs, 16, 64, core::Metric::ReadMissRate,
                     "Volrend " + std::to_string(dims.nx) + "^3");
    r.run = [dims, render](trace::SharedAddressSpace &space, Harness &h) {
        apps::volrend::Volume vol(dims, space, &h.sink());
        vol.buildHeadPhantom();
        vol.buildOctree();
        apps::volrend::Renderer renderer(render, vol, space, &h.sink());
        warmThenMeasure(h, renderer.flops(), 1, 2,
                        [&renderer](std::uint32_t n) {
                            for (std::uint32_t f = 0; f < n; ++f)
                                renderer.renderFrame();
                        });
        return std::uint64_t{0};
    };
    return r;
}

} // namespace

Replica
replicaFor(const std::string &name)
{
    auto [preset, variant] = core::parseSuiteName(name);
    if (variant.lineBytes != 0)
        throw std::invalid_argument("no replica for line variant " + name);
    ProblemSize size = variant.size;
    if (preset == "fig2-lu-B4")
        return lu(4, size);
    if (preset == "fig2-lu-B16")
        return lu(16, size);
    if (preset == "fig2-lu-B64")
        return lu(64, size);
    if (preset == "fig4-cg-2d")
        return gridCg(2, size);
    if (preset == "fig4-cg-3d")
        return gridCg(3, size);
    if (preset == "fig5-fft-radix2")
        return fft(2, size);
    if (preset == "fig5-fft-radix8")
        return fft(8, size);
    if (preset == "fig5-fft-radix32")
        return fft(32, size);
    if (preset == "fig6-barnes")
        return barnes(size);
    if (preset == "fig7-volrend")
        return volrend(size);
    if (preset == "app-cholesky")
        return cholesky(size);
    if (preset == "app-ucg")
        return unstructuredCg(size);
    if (preset == "app-fft2d")
        return fft2d(size);
    if (preset == "app-fft3d")
        return fft3d(size);
    throw std::invalid_argument("no replica for suite study " + name);
}

} // namespace wsg::pipeline
