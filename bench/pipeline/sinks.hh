/**
 * @file
 * The benchmark's instrumented sink chains.
 *
 * A study's untraced chain (core/runners.cc) is
 *
 *   app -> BatchingSink -> ScheduledReplaySink -> Multiprocessor
 *
 * The traced chain inserts a counter in front of the batching sink and
 * a timer at each later boundary:
 *
 *   app -> CountingFront -> BatchingSink -> TimedSink(replay)
 *       -> ScheduledReplaySink -> TimedSink(sim) -> Multiprocessor
 *
 * The timers see whole batches and sync events only (BatchingSink and
 * ScheduledReplaySink never forward single references), so timing costs
 * two clock reads per batch of BatchingSink::kCapacity references. The
 * front counter costs one extra virtual call per reference; that is
 * part of what bench.tracing_overhead measures.
 *
 * The shadow chain (app -> BatchingSink -> ShadowSink) feeds each
 * processor's line stream into a fresh profiler with no directory in
 * front, timing only the profiler calls: the profiler share of
 * sim.busy_s, which the simulator does not expose separately.
 */

#ifndef WSG_BENCH_PIPELINE_SINKS_HH
#define WSG_BENCH_PIPELINE_SINKS_HH

#include <memory>
#include <vector>

#include "memsys/profiler.hh"
#include "pipeline.hh"
#include "replay/scheduled_sink.hh"
#include "sim/multiprocessor.hh"
#include "trace/sinks.hh"

namespace wsg::pipeline
{

/** Counts references and sync events on their way to @p inner. */
class CountingFront : public trace::MemorySink
{
  public:
    CountingFront(trace::MemorySink &inner, LayerClock &clock)
        : inner_(inner), clock_(clock)
    {}

    void
    access(const trace::MemRef &ref) override
    {
        ++clock_.refs;
        inner_.access(ref);
    }

    void
    accessBatch(const trace::MemRef *refs, std::size_t n) override
    {
        clock_.refs += n;
        inner_.accessBatch(refs, n);
    }

    void
    sync(const trace::SyncEvent &event) override
    {
        ++clock_.syncs;
        inner_.sync(event);
    }

  private:
    trace::MemorySink &inner_;
    LayerClock &clock_;
};

/** Times every call into @p inner and counts what it carries. */
class TimedSink : public trace::MemorySink
{
  public:
    TimedSink(trace::MemorySink &inner, LayerClock &clock)
        : inner_(inner), clock_(clock)
    {}

    void
    access(const trace::MemRef &ref) override
    {
        accessBatch(&ref, 1);
    }

    void
    accessBatch(const trace::MemRef *refs, std::size_t n) override
    {
        std::uint64_t t0 = nowNs();
        inner_.accessBatch(refs, n);
        clock_.ns += nowNs() - t0;
        ++clock_.batches;
        clock_.refs += n;
    }

    void
    sync(const trace::SyncEvent &event) override
    {
        std::uint64_t t0 = nowNs();
        inner_.sync(event);
        clock_.ns += nowNs() - t0;
        ++clock_.syncs;
    }

  private:
    trace::MemorySink &inner_;
    LayerClock &clock_;
};

/** Stamp @p scheduled's schedule into @p result, as core/runners.cc
 *  does when a study finishes. */
inline void
stampSchedule(const replay::ScheduledReplaySink &scheduled,
              core::StudyResult &result)
{
    result.scheduler = scheduled.spec();
    result.schedulerIntervals = scheduled.intervals();
    result.schedulerMigrations = scheduled.migrations();
}

/** A chain an application can be run into: its sink plus the warm-up
 *  switch core/runners.cc flips between study phases. */
class Harness
{
  public:
    virtual ~Harness() = default;

    /** Sink to hand the application or trace reader. */
    virtual trace::MemorySink &sink() = 0;

    /** Drain buffered references, then switch measurement on or off. */
    virtual void setMeasuring(bool measuring) = 0;
};

/** The traced chain in front of a Multiprocessor (file comment). */
class TracedChain : public Harness
{
  public:
    /** @param front Counts what the producer (an application or a
     *         trace reader) emits. */
    TracedChain(sim::Multiprocessor &mp, const replay::SchedulerSpec &spec,
                LayerClock &front, LayerTotals &totals)
        : mp_(mp), simTimer_(mp, totals.sim),
          scheduler_(simTimer_, spec, mp.config().numProcs),
          replayTimer_(scheduler_, totals.replay), batcher_(replayTimer_),
          front_(batcher_, front)
    {}

    trace::MemorySink &sink() override { return front_; }

    void
    setMeasuring(bool measuring) override
    {
        batcher_.flush();
        mp_.setMeasuring(measuring);
    }

    void flush() { batcher_.flush(); }

    const replay::ScheduledReplaySink &scheduler() const
    {
        return scheduler_;
    }

  private:
    sim::Multiprocessor &mp_;
    TimedSink simTimer_;
    replay::ScheduledReplaySink scheduler_;
    TimedSink replayTimer_;
    trace::BatchingSink batcher_;
    CountingFront front_;
};

/**
 * Splits references into lines exactly as the Multiprocessor does and
 * feeds each processor's lines to its own profiler, timing only the
 * profiler calls.
 */
class ShadowSink : public trace::MemorySink
{
  public:
    ShadowSink(std::uint32_t num_procs, std::uint32_t line_bytes,
               memsys::ProfilerKind kind);

    void
    access(const trace::MemRef &ref) override
    {
        accessBatch(&ref, 1);
    }

    void accessBatch(const trace::MemRef *refs, std::size_t n) override;

    /** Nanoseconds spent inside Profiler::accessBatch. */
    std::uint64_t ns() const { return ns_; }
    /** Lines profiled. */
    std::uint64_t lines() const { return lines_; }

  private:
    std::uint32_t lineBytes_;
    std::vector<std::unique_ptr<memsys::Profiler>> profilers_;
    std::vector<std::vector<trace::Addr>> pending_;
    std::vector<memsys::DistanceSample> samples_;
    std::uint64_t ns_ = 0;
    std::uint64_t lines_ = 0;
};

/** The shadow chain: app -> BatchingSink -> ShadowSink. */
class ShadowChain : public Harness
{
  public:
    ShadowChain(std::uint32_t num_procs, std::uint32_t line_bytes,
                memsys::ProfilerKind kind)
        : shadow_(num_procs, line_bytes, kind), batcher_(shadow_)
    {}

    trace::MemorySink &sink() override { return batcher_; }

    /** The profilers see every reference, warm-up included, as the
     *  simulator's do; only the drain point matters here. */
    void setMeasuring(bool) override { batcher_.flush(); }

    void flush() { batcher_.flush(); }

    const ShadowSink &shadow() const { return shadow_; }

  private:
    ShadowSink shadow_;
    trace::BatchingSink batcher_;
};

} // namespace wsg::pipeline

#endif // WSG_BENCH_PIPELINE_SINKS_HH
