#include "core/runners.hh"

#include <cmath>
#include <memory>

#include "core/study_axes.hh"
#include "core/watchdog.hh"
#include "replay/scheduled_sink.hh"
#include "stats/json_report.hh"
#include "trace/address_space.hh"
#include "trace/sinks.hh"

namespace wsg::core
{

// Every study is defined once, as a job body; the serial run*Study
// entry points execute the same body inline with an empty context.
// Job bodies capture their configuration by value so the StudyJob can
// outlive the caller's locals (benches build job vectors up front).

namespace
{

sim::SimConfig
simConfigFor(std::uint32_t num_procs, std::uint32_t line_bytes,
             const StudyConfig &study)
{
    sim::SimConfig config;
    config.numProcs = num_procs;
    config.lineBytes = line_bytes;
    config.sampling = study.sampling;
    config.profiler = study.profiler;
    config.protocol = study.protocol;
    config.hierarchy = study.hierarchy;
    return config;
}

/**
 * The per-study machine and sink chain. It owns the study's address
 * space and Multiprocessor; the Multiprocessor is innermost, optionally
 * teed into a RaceDetector (StudyConfig::analyzeRaces — the detector
 * sees the exact reference and sync-event stream the caches see,
 * warm-up included, since a warm-up race is still a bug), fronted by a
 * ScheduledReplaySink applying StudyConfig::scheduler (upstream of the
 * tee, so the race check observes the *scheduled* stream — the one the
 * caches see), optionally wrapped in a WatchdogSink
 * (StudyConfig::timeoutSeconds) so a runaway study fails with
 * StudyTimeoutError instead of hanging its worker,
 * and always fronted by a BatchingSink so the whole chain below it is
 * traversed once per block of references instead of once per
 * reference. Batching is invisible to the results: the buffer is
 * drained before every point where simulator state is read or its mode
 * toggled — sync events (inside BatchingSink), measurement switches
 * (setMeasuring) and study completion (finish).
 */
class SinkChain
{
  public:
    /** @p study must outlive the chain. */
    SinkChain(std::uint32_t num_procs, std::uint32_t line_bytes,
              const StudyConfig &study)
        : study_(study), mp_(simConfigFor(num_procs, line_bytes, study)),
          watchdog_(study.timeoutSeconds), sink_(&mp_)
    {
        mp_.attachAddressSpace(&space);
        if (study.analyzeRaces) {
            analysis::RaceConfig config;
            config.numProcs = num_procs;
            detector_ =
                std::make_unique<analysis::RaceDetector>(config);
            detector_->attachAddressSpace(&space);
            tee_ = std::make_unique<trace::TeeSink>(mp_, *detector_);
            sink_ = tee_.get();
        }
        // Always present: the static default takes the identity fast
        // path, so an unscheduled study's bytes and speed are
        // unchanged while the scheduler axis is exercised everywhere.
        scheduler_ = std::make_unique<replay::ScheduledReplaySink>(
            *sink_, study.scheduler, num_procs);
        sink_ = scheduler_.get();
        if (watchdog_.enabled()) {
            guard_ =
                std::make_unique<WatchdogSink>(*sink_, watchdog_);
            sink_ = guard_.get();
        }
        batcher_ = std::make_unique<trace::BatchingSink>(*sink_);
        sink_ = batcher_.get();
    }

    SinkChain(const SinkChain &) = delete;
    SinkChain &operator=(const SinkChain &) = delete;

    /** Where the application lays out its data. */
    trace::SharedAddressSpace space;

    /** Sink to hand the application. */
    trace::MemorySink *sink() const { return sink_; }

    /** Warm-up switch: drains the buffer first so every buffered
     *  reference is counted under the mode it was issued in. */
    void
    setMeasuring(bool measuring)
    {
        batcher_->flush();
        mp_.setMeasuring(measuring);
    }

    /**
     * End of the run: drain the buffer so the simulator state is
     * complete, check the deadline, analyze the working sets, check
     * the deadline again and stamp the race and scheduler outcome into
     * the result.
     */
    StudyResult
    finish(Metric metric, std::uint64_t total_flops,
           const std::string &name)
    {
        batcher_->flush();
        watchdog_.check();
        StudyResult result =
            analyzeWorkingSets(mp_, study_, metric, total_flops, name);
        watchdog_.check();
        if (detector_ != nullptr)
            result.races = detector_->result();
        result.scheduler = scheduler_->spec();
        result.schedulerIntervals = scheduler_->intervals();
        result.schedulerMigrations = scheduler_->migrations();
        return result;
    }

  private:
    const StudyConfig &study_;
    sim::Multiprocessor mp_;
    StudyWatchdog watchdog_;
    std::unique_ptr<analysis::RaceDetector> detector_;
    std::unique_ptr<trace::TeeSink> tee_;
    std::unique_ptr<replay::ScheduledReplaySink> scheduler_;
    std::unique_ptr<WatchdogSink> guard_;
    std::unique_ptr<trace::BatchingSink> batcher_;
    trace::MemorySink *sink_;
};

// ---------------------------------------------------------------------
// Canonical config serialization (wsg-study-config-v1).
//
// One key=value per line, fixed key order, app parameters first, then
// the shared study parameters. Every field that can change the study's
// report bytes is present; StudyConfig::timeoutSeconds is deliberately
// absent (it bounds wall-clock, never the result), so a request with a
// different watchdog budget still hits the same cache entry. Doubles
// are rendered with the JSON writer's shortest round-trip form so
// equal values always canonicalize to equal bytes.
// ---------------------------------------------------------------------

std::string
canonicalDouble(double v)
{
    return stats::JsonWriter::formatDouble(v);
}

std::string
canonicalHeader(const char *app_kind)
{
    return std::string("wsg-study-config-v1\napp=") + app_kind + "\n";
}

void
appendStudyConfig(std::string &out, const StudyConfig &study,
                  std::uint32_t line_bytes)
{
    auto line = [&out](std::string_view key, const std::string &value) {
        appendConfigLine(out, key, value);
    };
    line("line_bytes", std::to_string(line_bytes));
    line("min_cache_bytes", std::to_string(study.minCacheBytes));
    line("max_cache_bytes", std::to_string(study.maxCacheBytes));
    line("points_per_octave", std::to_string(study.pointsPerOctave));
    line("include_cold", std::to_string(study.includeCold ? 1 : 0));
    line("knee_min_step_drop", canonicalDouble(study.knee.minStepDrop));
    line("knee_min_knee_factor", canonicalDouble(study.knee.minKneeFactor));
    line("knee_rate_floor", canonicalDouble(study.knee.rateFloor));
    line("analyze_races", std::to_string(study.analyzeRaces ? 1 : 0));
    for (const StudyAxis &axis : kStudyAxes)
        axis.appendCanonical(out, study);
}

} // namespace

StudyJob
luStudyJob(const apps::lu::LuConfig &app_config,
           const StudyConfig &study, std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = "LU n=" + std::to_string(app_config.n) +
               " B=" + std::to_string(app_config.blockSize);
    job.canonicalConfig =
        canonicalHeader("lu") + "n=" + std::to_string(app_config.n) +
        "\nblock_size=" + std::to_string(app_config.blockSize) +
        "\nproc_rows=" + std::to_string(app_config.procRows) +
        "\nproc_cols=" + std::to_string(app_config.procCols) + "\n";
    appendStudyConfig(job.canonicalConfig, study, line_bytes);
    job.body = [app_config, study, line_bytes, name = job.name]() {
        SinkChain chain(app_config.numProcs(), line_bytes, study);
        apps::lu::BlockedLu app(app_config, chain.space, chain.sink());
        app.randomize(1234);
        app.factor();
        return chain.finish(Metric::MissesPerFlop,
                            app.flops().totalFlops(), name);
    };
    return job;
}

StudyJob
cgStudyJob(const apps::cg::CgConfig &app_config, std::uint32_t iters,
           std::uint32_t warmup_iters, const StudyConfig &study,
           std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = "CG " + std::to_string(app_config.dims) +
               "-D n=" + std::to_string(app_config.n);
    job.canonicalConfig =
        canonicalHeader("cg") + "n=" + std::to_string(app_config.n) +
        "\ndims=" + std::to_string(app_config.dims) +
        "\nproc_x=" + std::to_string(app_config.procX) +
        "\nproc_y=" + std::to_string(app_config.procY) +
        "\nproc_z=" + std::to_string(app_config.procZ) +
        "\nstrip_width=" + std::to_string(app_config.stripWidth) +
        "\niters=" + std::to_string(iters) +
        "\nwarmup_iters=" + std::to_string(warmup_iters) + "\n";
    appendStudyConfig(job.canonicalConfig, study, line_bytes);
    job.body = [app_config, iters, warmup_iters, study, line_bytes,
                name = job.name]() {
        SinkChain chain(app_config.numProcs(), line_bytes, study);
        apps::cg::GridCg app(app_config, chain.space, chain.sink());
        app.buildSystem();

        chain.setMeasuring(false);
        app.run(warmup_iters, 0.0);
        std::uint64_t warm_flops = app.flops().totalFlops();
        chain.setMeasuring(true);
        app.run(iters, 0.0);

        return chain.finish(Metric::MissesPerFlop,
                            app.flops().totalFlops() - warm_flops, name);
    };
    return job;
}

StudyJob
fftStudyJob(const apps::fft::FftConfig &app_config,
            std::uint32_t transforms, std::uint32_t warmup_transforms,
            const StudyConfig &study, std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = "FFT logN=" + std::to_string(app_config.logN) +
               " r=" + std::to_string(app_config.internalRadix);
    job.canonicalConfig =
        canonicalHeader("fft") + "log_n=" +
        std::to_string(app_config.logN) + "\nnum_procs=" +
        std::to_string(app_config.numProcs) + "\ninternal_radix=" +
        std::to_string(app_config.internalRadix) + "\ntransforms=" +
        std::to_string(transforms) + "\nwarmup_transforms=" +
        std::to_string(warmup_transforms) + "\n";
    appendStudyConfig(job.canonicalConfig, study, line_bytes);
    job.body = [app_config, transforms, warmup_transforms, study,
                line_bytes, name = job.name]() {
        SinkChain chain(app_config.numProcs, line_bytes, study);
        apps::fft::ParallelFft app(app_config, chain.space, chain.sink());
        for (std::uint64_t i = 0; i < app_config.N(); ++i)
            app.setInput(i, {std::sin(0.001 * static_cast<double>(i)),
                             std::cos(0.003 * static_cast<double>(i))});

        chain.setMeasuring(false);
        for (std::uint32_t t = 0; t < warmup_transforms; ++t)
            app.forward();
        std::uint64_t warm_flops = app.flops().totalFlops();
        chain.setMeasuring(true);
        for (std::uint32_t t = 0; t < transforms; ++t)
            app.forward();

        return chain.finish(Metric::MissesPerFlop,
                            app.flops().totalFlops() - warm_flops, name);
    };
    return job;
}

StudyJob
barnesStudyJob(const apps::barnes::BarnesConfig &app_config,
               std::uint32_t steps, std::uint32_t warmup_steps,
               const StudyConfig &study, std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = "Barnes-Hut n=" + std::to_string(app_config.numBodies) +
               " theta=" + std::to_string(app_config.theta).substr(0, 4);
    job.canonicalConfig =
        canonicalHeader("barnes") + "num_bodies=" +
        std::to_string(app_config.numBodies) + "\nnum_procs=" +
        std::to_string(app_config.numProcs) + "\ntheta=" +
        canonicalDouble(app_config.theta) + "\ndt=" +
        canonicalDouble(app_config.dt) + "\nsoftening=" +
        canonicalDouble(app_config.softening) + "\nquadrupole=" +
        std::to_string(app_config.quadrupole ? 1 : 0) + "\nseed=" +
        std::to_string(app_config.seed) + "\nsteps=" +
        std::to_string(steps) + "\nwarmup_steps=" +
        std::to_string(warmup_steps) + "\n";
    appendStudyConfig(job.canonicalConfig, study, line_bytes);
    job.body = [app_config, steps, warmup_steps, study, line_bytes,
                name = job.name]() {
        SinkChain chain(app_config.numProcs, line_bytes, study);
        apps::barnes::BarnesHut app(app_config, chain.space, chain.sink());
        app.initPlummer();

        chain.setMeasuring(false);
        for (std::uint32_t s = 0; s < warmup_steps; ++s)
            app.step();
        chain.setMeasuring(true);
        for (std::uint32_t s = 0; s < steps; ++s)
            app.step();

        return chain.finish(Metric::ReadMissRate, 0, name);
    };
    return job;
}

StudyJob
volrendStudyJob(const apps::volrend::VolumeDims &dims,
                const apps::volrend::RenderConfig &render,
                std::uint32_t frames, std::uint32_t warmup_frames,
                const StudyConfig &study, std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = "Volrend " + std::to_string(dims.nx) + "^3";
    job.canonicalConfig =
        canonicalHeader("volrend") + "nx=" + std::to_string(dims.nx) +
        "\nny=" + std::to_string(dims.ny) + "\nnz=" +
        std::to_string(dims.nz) + "\nimage_width=" +
        std::to_string(render.imageWidth) + "\nimage_height=" +
        std::to_string(render.imageHeight) + "\nnum_procs=" +
        std::to_string(render.numProcs) + "\ndegrees_per_frame=" +
        canonicalDouble(render.degreesPerFrame) + "\nsample_step=" +
        canonicalDouble(render.sampleStep) + "\nopacity_cutoff=" +
        canonicalDouble(render.opacityCutoff) + "\ndensity_floor=" +
        std::to_string(render.densityFloor) + "\nsteal_chunk=" +
        std::to_string(render.stealChunk) + "\nuse_octree=" +
        std::to_string(render.useOctree ? 1 : 0) + "\nperspective=" +
        std::to_string(render.perspective ? 1 : 0) + "\nfov_degrees=" +
        canonicalDouble(render.fovDegrees) + "\nframes=" +
        std::to_string(frames) + "\nwarmup_frames=" +
        std::to_string(warmup_frames) + "\n";
    appendStudyConfig(job.canonicalConfig, study, line_bytes);
    job.body = [dims, render, frames, warmup_frames, study, line_bytes,
                name = job.name]() {
        SinkChain chain(render.numProcs, line_bytes, study);
        apps::volrend::Volume vol(dims, chain.space, chain.sink());
        vol.buildHeadPhantom();
        vol.buildOctree();
        apps::volrend::Renderer renderer(render, vol, chain.space,
                                         chain.sink());

        chain.setMeasuring(false);
        for (std::uint32_t f = 0; f < warmup_frames; ++f)
            renderer.renderFrame();
        chain.setMeasuring(true);
        for (std::uint32_t f = 0; f < frames; ++f)
            renderer.renderFrame();

        return chain.finish(Metric::ReadMissRate, 0, name);
    };
    return job;
}

StudyJob
choleskyStudyJob(const apps::lu::LuConfig &app_config,
                 const StudyConfig &study, std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = "Cholesky n=" + std::to_string(app_config.n) +
               " B=" + std::to_string(app_config.blockSize);
    job.canonicalConfig =
        canonicalHeader("cholesky") + "n=" +
        std::to_string(app_config.n) + "\nblock_size=" +
        std::to_string(app_config.blockSize) + "\nproc_rows=" +
        std::to_string(app_config.procRows) + "\nproc_cols=" +
        std::to_string(app_config.procCols) + "\n";
    appendStudyConfig(job.canonicalConfig, study, line_bytes);
    job.body = [app_config, study, line_bytes, name = job.name]() {
        SinkChain chain(app_config.numProcs(), line_bytes, study);
        apps::lu::BlockedCholesky app(app_config, chain.space, chain.sink());
        app.randomizeSpd(1234);
        app.factor();
        return chain.finish(Metric::MissesPerFlop,
                            app.flops().totalFlops(), name);
    };
    return job;
}

StudyJob
unstructuredStudyJob(const apps::cg::UnstructuredConfig &app_config,
                     std::uint32_t iters, std::uint32_t warmup_iters,
                     const StudyConfig &study, std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = "UnstructuredCG n=" +
               std::to_string(app_config.numVertices);
    job.canonicalConfig =
        canonicalHeader("ucg") + "num_vertices=" +
        std::to_string(app_config.numVertices) + "\nneighbors=" +
        std::to_string(app_config.neighbors) + "\nnum_procs=" +
        std::to_string(app_config.numProcs) + "\npartition=" +
        std::to_string(static_cast<int>(app_config.partition)) +
        "\nseed=" + std::to_string(app_config.seed) + "\niters=" +
        std::to_string(iters) + "\nwarmup_iters=" +
        std::to_string(warmup_iters) + "\n";
    appendStudyConfig(job.canonicalConfig, study, line_bytes);
    job.body = [app_config, iters, warmup_iters, study, line_bytes,
                name = job.name]() {
        SinkChain chain(app_config.numProcs, line_bytes, study);
        apps::cg::UnstructuredCg app(app_config, chain.space, chain.sink());
        app.buildSystem();

        chain.setMeasuring(false);
        app.run(warmup_iters, 0.0);
        std::uint64_t warm_flops = app.flops().totalFlops();
        chain.setMeasuring(true);
        app.run(iters, 0.0);

        return chain.finish(Metric::MissesPerFlop,
                            app.flops().totalFlops() - warm_flops, name);
    };
    return job;
}

StudyJob
fft2dStudyJob(const apps::fft::Fft2dConfig &app_config,
              std::uint32_t transforms, std::uint32_t warmup_transforms,
              const StudyConfig &study, std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = "FFT2D " + std::to_string(app_config.rows()) + "x" +
               std::to_string(app_config.cols());
    job.canonicalConfig =
        canonicalHeader("fft2d") + "log_rows=" +
        std::to_string(app_config.logRows) + "\nlog_cols=" +
        std::to_string(app_config.logCols) + "\nnum_procs=" +
        std::to_string(app_config.numProcs) + "\ninternal_radix=" +
        std::to_string(app_config.internalRadix) + "\ntransforms=" +
        std::to_string(transforms) + "\nwarmup_transforms=" +
        std::to_string(warmup_transforms) + "\n";
    appendStudyConfig(job.canonicalConfig, study, line_bytes);
    job.body = [app_config, transforms, warmup_transforms, study,
                line_bytes, name = job.name]() {
        SinkChain chain(app_config.numProcs, line_bytes, study);
        apps::fft::Fft2d app(app_config, chain.space, chain.sink());
        for (std::uint64_t r = 0; r < app_config.rows(); ++r) {
            for (std::uint64_t c = 0; c < app_config.cols(); ++c) {
                double t = 0.001 * static_cast<double>(
                                       r * app_config.cols() + c);
                app.setInput(r, c, {std::sin(t), std::cos(3.0 * t)});
            }
        }

        chain.setMeasuring(false);
        for (std::uint32_t t = 0; t < warmup_transforms; ++t)
            app.forward();
        std::uint64_t warm_flops = app.flops().totalFlops();
        chain.setMeasuring(true);
        for (std::uint32_t t = 0; t < transforms; ++t)
            app.forward();

        return chain.finish(Metric::MissesPerFlop,
                            app.flops().totalFlops() - warm_flops, name);
    };
    return job;
}

StudyJob
fft3dStudyJob(const apps::fft::Fft3dConfig &app_config,
              std::uint32_t transforms, std::uint32_t warmup_transforms,
              const StudyConfig &study, std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = "FFT3D " + std::to_string(app_config.n0()) + "x" +
               std::to_string(app_config.n1()) + "x" +
               std::to_string(app_config.n2());
    job.canonicalConfig =
        canonicalHeader("fft3d") + "log0=" +
        std::to_string(app_config.log0) + "\nlog1=" +
        std::to_string(app_config.log1) + "\nlog2=" +
        std::to_string(app_config.log2) + "\nnum_procs=" +
        std::to_string(app_config.numProcs) + "\ninternal_radix=" +
        std::to_string(app_config.internalRadix) + "\ntransforms=" +
        std::to_string(transforms) + "\nwarmup_transforms=" +
        std::to_string(warmup_transforms) + "\n";
    appendStudyConfig(job.canonicalConfig, study, line_bytes);
    job.body = [app_config, transforms, warmup_transforms, study,
                line_bytes, name = job.name]() {
        SinkChain chain(app_config.numProcs, line_bytes, study);
        apps::fft::Fft3d app(app_config, chain.space, chain.sink());
        std::uint64_t flat = 0;
        for (std::uint64_t i0 = 0; i0 < app_config.n0(); ++i0) {
            for (std::uint64_t i1 = 0; i1 < app_config.n1(); ++i1) {
                for (std::uint64_t i2 = 0; i2 < app_config.n2();
                     ++i2, ++flat) {
                    double t = 0.001 * static_cast<double>(flat);
                    app.setInput(i0, i1, i2,
                                 {std::sin(t), std::cos(3.0 * t)});
                }
            }
        }

        chain.setMeasuring(false);
        for (std::uint32_t t = 0; t < warmup_transforms; ++t)
            app.forward();
        std::uint64_t warm_flops = app.flops().totalFlops();
        chain.setMeasuring(true);
        for (std::uint32_t t = 0; t < transforms; ++t)
            app.forward();

        return chain.finish(Metric::MissesPerFlop,
                            app.flops().totalFlops() - warm_flops, name);
    };
    return job;
}

StudyResult
runLuStudy(const apps::lu::LuConfig &app_config, const StudyConfig &study,
           std::uint32_t line_bytes)
{
    return luStudyJob(app_config, study, line_bytes).body();
}

StudyResult
runCholeskyStudy(const apps::lu::LuConfig &app_config,
                 const StudyConfig &study, std::uint32_t line_bytes)
{
    return choleskyStudyJob(app_config, study, line_bytes)
        .body();
}

StudyResult
runUnstructuredStudy(const apps::cg::UnstructuredConfig &app_config,
                     std::uint32_t iters, std::uint32_t warmup_iters,
                     const StudyConfig &study, std::uint32_t line_bytes)
{
    return unstructuredStudyJob(app_config, iters, warmup_iters, study,
                                line_bytes)
        .body();
}

StudyResult
runFft2dStudy(const apps::fft::Fft2dConfig &app_config,
              std::uint32_t transforms, std::uint32_t warmup_transforms,
              const StudyConfig &study, std::uint32_t line_bytes)
{
    return fft2dStudyJob(app_config, transforms, warmup_transforms,
                         study, line_bytes)
        .body();
}

StudyResult
runFft3dStudy(const apps::fft::Fft3dConfig &app_config,
              std::uint32_t transforms, std::uint32_t warmup_transforms,
              const StudyConfig &study, std::uint32_t line_bytes)
{
    return fft3dStudyJob(app_config, transforms, warmup_transforms,
                         study, line_bytes)
        .body();
}

StudyResult
runCgStudy(const apps::cg::CgConfig &app_config, std::uint32_t iters,
           std::uint32_t warmup_iters, const StudyConfig &study,
           std::uint32_t line_bytes)
{
    return cgStudyJob(app_config, iters, warmup_iters, study, line_bytes)
        .body();
}

StudyResult
runFftStudy(const apps::fft::FftConfig &app_config,
            std::uint32_t transforms, std::uint32_t warmup_transforms,
            const StudyConfig &study, std::uint32_t line_bytes)
{
    return fftStudyJob(app_config, transforms, warmup_transforms, study,
                       line_bytes)
        .body();
}

StudyResult
runBarnesStudy(const apps::barnes::BarnesConfig &app_config,
               std::uint32_t steps, std::uint32_t warmup_steps,
               const StudyConfig &study, std::uint32_t line_bytes)
{
    return barnesStudyJob(app_config, steps, warmup_steps, study,
                          line_bytes)
        .body();
}

StudyResult
runVolrendStudy(const apps::volrend::VolumeDims &dims,
                const apps::volrend::RenderConfig &render,
                std::uint32_t frames, std::uint32_t warmup_frames,
                const StudyConfig &study, std::uint32_t line_bytes)
{
    return volrendStudyJob(dims, render, frames, warmup_frames, study,
                           line_bytes)
        .body();
}

} // namespace wsg::core
