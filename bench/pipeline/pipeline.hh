/**
 * @file
 * Shared pieces of the pipeline benchmark (wsg_bench): run options, the
 * outcome a workload reports, the metric tables, the pinned report
 * digests, and the per-layer totals a traced run accumulates.
 *
 * The metric tables here are the single list of what the benchmark
 * prints. BENCHMARK.json at the repository root names the same metrics;
 * printOutcome refuses to print a result that lacks one of them.
 */

#ifndef WSG_BENCH_PIPELINE_PIPELINE_HH
#define WSG_BENCH_PIPELINE_PIPELINE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/study_runner.hh"

namespace wsg::pipeline
{

/** Command-line options of one benchmark invocation. */
struct Options
{
    /** Workload to run; empty runs all of them, each in turn. */
    std::string workload;
    /** Seeds every generated input: study order, steal seed, request
     *  sequence. */
    std::uint64_t seed = 1;
    /** Nominal length of the measured phase; sets the fixed pass and
     *  request counts (see passesFor), so both sides of a comparison
     *  run identical work. */
    double seconds = 20.0;
    /** Per-layer run instead of the end-to-end one. */
    bool traced = false;
    /** One short pass on small inputs, traced and untraced, for ctest. */
    bool smoke = false;
    /** Where a traced run writes its spans (set by main, not a flag). */
    std::string spansPath;
};

/** Name and unit of one reported metric. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every untraced run of a workload. */
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},
    {"peak_rss_mib", "MiB"},
};

/** Per-layer metrics, printed by every traced run of a workload (zero
 *  where a layer does no work in that workload). */
inline constexpr MetricSpec kPerLayer[] = {
    {"apps.refs", "count"},
    {"apps.syncs", "count"},
    {"apps.self_s", "s"},
    {"trace.batches", "count"},
    {"trace.refs_per_batch", "ref/batch"},
    {"trace.records", "count"},
    {"trace.bytes_per_record", "B/record"},
    {"trace.decode_self_s", "s"},
    {"trace.decode_ns_per_record", "ns"},
    {"trace.capture_s", "s"},
    {"replay.self_s", "s"},
    {"replay.ns_per_ref", "ns"},
    {"replay.intervals", "count"},
    {"replay.migrations", "count"},
    {"sim.busy_s", "s"},
    {"sim.ns_per_ref", "ns"},
    {"sim.refs_measured", "count"},
    {"sim.coherence_misses", "count"},
    {"sim.false_sharing_misses", "count"},
    {"sim.invalidations_sent", "count"},
    {"sim.footprint_bytes_max", "B"},
    {"memsys.shadow_s", "s"},
    {"memsys.shadow_ns_per_line", "ns"},
    {"memsys.profiler_bytes", "B"},
    {"core.analyze_s", "s"},
    {"core.curve_points", "count"},
    {"core.knees", "count"},
    {"stats.report_s", "s"},
    {"stats.report_bytes", "B"},
    {"serve.client_ms_p50", "ms"},
    {"serve.client_ms_p99", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.transport_ms_p50", "ms"},
    {"serve.hits", "count"},
    {"serve.misses", "count"},
    {"serve.rejections", "count"},
    {"bench.tracing_overhead", "ratio"},
    {"bench.span_coverage", "ratio"},
};

/** What one workload run reports. */
struct Outcome
{
    /** Checked operations (studies run or requests answered). */
    std::uint64_t attempted = 0;
    /** Operations whose output or count check failed. */
    std::uint64_t failed = 0;
    /** First few failure messages, for stderr. */
    std::vector<std::string> errors;
    /** Metric values by name; units come from the tables above. */
    std::map<std::string, double> metrics;
    /** Measured passes (a serve-hit pass is 1000 requests per
     *  connection). */
    std::uint64_t passes = 0;
    /** Free-form context lines (sample counts, derived rates). */
    std::vector<std::string> notes;

    /** Count one operation; @p ok false marks it failed with @p what. */
    void check(bool ok, const std::string &what);
};

/** Seconds on the steady clock since an arbitrary fixed origin. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nanoseconds on the steady clock (span timing at batch granularity). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0, 1] of @p v. */
double quantile(std::vector<double> v, double q);

/**
 * Fixed pass count for a measured phase: @p seconds of work at the
 * nominal pass time measured on the reference machine (README), at
 * least one. A pure function of the options, so a faster build does the
 * same passes in less time rather than more passes.
 */
std::uint64_t passesFor(const Options &options, double nominal_pass_s);

/** Set-ups per untraced run; setup_s is their median. */
inline int
setupRepeats(const Options &options)
{
    return options.smoke ? 1 : 5;
}

/**
 * Set ops_per_s and op_ms_p50 of a closed-loop study workload from each
 * study's timed samples (@p seconds[i] holds study i's wall times).
 * Each study counts with its fastest sample: interference from other
 * tenants of the host only ever slows a deterministic study down, and
 * it comes in phases longer than a run, so the fastest sample tracks
 * the code while a median tracks the host's load (README, "Noise").
 * @return the pass time those samples add up to, in seconds.
 */
double studyMetrics(const std::vector<std::vector<double>> &seconds,
                    Outcome &out);

/** Peak resident set of this process so far, in MiB. */
double peakRssMib();

/**
 * Check a study report against the digest pinned for @p name in
 * digests.txt beside this file (FNV-1a of the wsg-study-report JSON).
 * @return "" on a match, else a description of the mismatch.
 * @throws std::runtime_error when digests.txt is unreadable or
 *         malformed.
 */
std::string checkPinned(const std::string &name, const std::string &bytes);

/**
 * Span records of a traced run, written out as JSON when the run ends.
 * Batch-granularity spans arrive already summed per (study, layer);
 * coarse spans (application, decode, analysis, report, one serve round
 * trip) are kept individually, with start times relative to the log's
 * creation.
 */
class SpanLog
{
  public:
    /** Record a summed batch-granularity span. */
    void aggregate(const std::string &study, const std::string &layer,
                   const std::string &parent, std::uint64_t count,
                   std::uint64_t ns);

    /** Record one coarse span (steady-clock nanoseconds). */
    void coarse(const std::string &study, const std::string &layer,
                const std::string &parent, std::uint64_t start_ns,
                std::uint64_t end_ns);

    /** Write as JSON. @throws std::runtime_error when @p path cannot
     *  be written. */
    void write(const std::string &path, const std::string &workload) const;

  private:
    struct Aggregate
    {
        std::string study, layer, parent;
        std::uint64_t count = 0;
        std::uint64_t ns = 0;
    };
    struct Coarse
    {
        std::string study, layer, parent;
        std::uint64_t startNs = 0;
        std::uint64_t durNs = 0;
    };
    std::uint64_t originNs_ = nowNs();
    std::vector<Aggregate> aggregates_;
    std::vector<Coarse> coarse_;
};

/** Time and work counted at one sink boundary of a traced run. */
struct LayerClock
{
    std::uint64_t ns = 0;
    std::uint64_t batches = 0;
    std::uint64_t refs = 0;
    std::uint64_t syncs = 0;
};

/**
 * Everything a traced run accumulates; report() turns it into the
 * per-layer metrics. Self times follow the span tree
 *   study -> {apps | trace.decode} -> replay -> sim,
 *   study -> core.analyze, study -> stats.report
 * and are filled in by the workloads as span minus child spans.
 */
struct LayerTotals
{
    /** References and syncs an application emits into the chain. */
    LayerClock apps;
    /** References and syncs a trace reader decodes into the chain. */
    LayerClock decode;
    /** At ScheduledReplaySink's input (batches out of BatchingSink). */
    LayerClock replay;
    /** At the Multiprocessor's input. */
    LayerClock sim;

    double appsSelfS = 0.0;
    double decodeSelfS = 0.0;
    double analyzeS = 0.0;
    double reportS = 0.0;
    double captureS = 0.0;
    std::uint64_t traceRecords = 0;
    std::uint64_t traceBytes = 0;

    std::uint64_t refsMeasured = 0;
    std::uint64_t coherenceMisses = 0;
    std::uint64_t falseSharingMisses = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t footprintBytesMax = 0;
    std::uint64_t profilerBytesMax = 0;
    std::uint64_t intervals = 0;
    std::uint64_t migrations = 0;
    std::uint64_t curvePoints = 0;
    std::uint64_t knees = 0;
    std::uint64_t reportBytes = 0;

    double shadowS = 0.0;
    std::uint64_t shadowLines = 0;

    double clientP50Ms = 0.0;
    double clientP99Ms = 0.0;
    double serviceP50Ms = 0.0;
    std::uint64_t serveHits = 0;
    std::uint64_t serveMisses = 0;
    std::uint64_t serveRejections = 0;
    /** Serve only: summed client round-trip spans (thread-seconds). */
    double clientSpanS = 0.0;

    SpanLog spans;

    /** The clocks as a study starts, to take that study's share. */
    struct Snapshot
    {
        LayerClock front, replay, sim;
    };

    /** Steady-clock nanoseconds at the phase boundaries of one traced
     *  study. */
    struct StudyTimes
    {
        std::uint64_t start = 0;
        /** The application or the trace decode starts. */
        std::uint64_t produce = 0;
        /** analyzeWorkingSets starts. */
        std::uint64_t analyze = 0;
        /** jsonReport starts. */
        std::uint64_t report = 0;
        std::uint64_t end = 0;
    };

    /**
     * Account one finished traced study: its spans, self times and
     * counters. @p producer names the span that fed the chain ("apps"
     * or "trace.decode"), @p front is the clock counting what it fed,
     * and its self time is added to @p producer_self_s.
     * @return "" when the same references reached every layer, else
     *         the mismatch.
     */
    std::string addStudy(const std::string &name,
                         const std::string &producer,
                         const LayerClock &front, const Snapshot &before,
                         const StudyTimes &t,
                         const core::StudyResult &result,
                         std::size_t report_bytes,
                         double &producer_self_s);

    /**
     * Write every per-layer metric into @p out.
     * @param traced_wall_s Wall time of the traced pass (summed over
     *        client threads for serve-hit).
     * @param untraced_wall_s Median wall time of the same work
     *        untraced.
     */
    void report(Outcome &out, double traced_wall_s,
                double untraced_wall_s) const;
};

/** The workloads, each run in its own child process. */
Outcome runFiguresBase(const Options &options);
Outcome runFootprintLarge(const Options &options);
Outcome runReplaySteal(const Options &options);
Outcome runServeHit(const Options &options);

} // namespace wsg::pipeline

#endif // WSG_BENCH_PIPELINE_PIPELINE_HH
