/**
 * @file
 * The working-set study driver — the paper's Section 2.2 methodology as a
 * reusable procedure:
 *
 *   1. run an instrumented application against a Multiprocessor sink
 *      (optionally with warm-up steps excluded via setMeasuring),
 *   2. extract the miss-rate-versus-cache-size curve from the
 *      stack-distance profiles (one serial pass per histogram; see
 *      sim::Multiprocessor::finiteMisses),
 *   3. find the knees => the working-set hierarchy.
 */

#ifndef WSG_CORE_WORKING_SET_STUDY_HH
#define WSG_CORE_WORKING_SET_STUDY_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/race_detector.hh"
#include "memsys/profiler.hh"
#include "replay/scheduler.hh"
#include "sim/multiprocessor.hh"
#include "stats/curve.hh"
#include "stats/knee.hh"

namespace wsg::core
{

/**
 * Typed failure for a study that exceeded its watchdog budget
 * (StudyConfig::timeoutSeconds). The runner and the serving layer match
 * on this type — a timeout is an expected, reportable outcome
 * (JobReport::timedOut, a "failed" serve response), not a crash.
 */
class StudyTimeoutError : public std::runtime_error
{
  public:
    explicit StudyTimeoutError(double limit_seconds)
        : std::runtime_error(
              "study exceeded its watchdog budget of " +
              std::to_string(limit_seconds) + " s"),
          limitSeconds_(limit_seconds)
    {}

    double limitSeconds() const { return limitSeconds_; }

  private:
    double limitSeconds_;
};

/** Which miss metric a study reports (Section 2.2). */
enum class Metric : std::uint8_t
{
    /** Double-word read misses per FLOP (LU, CG, FFT). */
    MissesPerFlop,
    /** Read misses / read references (Barnes-Hut, volume rendering). */
    ReadMissRate,
};

/** Sweep and analysis parameters. */
struct StudyConfig
{
    /** Smallest cache size to evaluate (bytes). */
    std::uint64_t minCacheBytes = 64;
    /** Largest cache size; 0 = twice the largest per-processor
     *  footprint. */
    std::uint64_t maxCacheBytes = 0;
    /** Sweep resolution. */
    int pointsPerOctave = 4;
    /** Count cold misses (the paper excludes them). */
    bool includeCold = false;
    /** Knee-detection thresholds. */
    stats::KneeConfig knee;
    /**
     * Sampling policy. Studies pass this into the simulator they build
     * AND into the curve extraction; must match the mode the simulator
     * actually ran with (analyzeWorkingSets checks).
     */
    approx::SamplingConfig sampling{};
    /**
     * Which miss-rate-curve construction the simulator's profilers run
     * (see memsys::ProfilerKind). Tree-Mattson is exact; Aet
     * approximates the finite-distance part of the curve at O(1) per
     * reference and cannot be combined with sampling.
     */
    memsys::ProfilerKind profiler = memsys::ProfilerKind::TreeMattson;
    /**
     * Run a happens-before race check alongside the simulation: the
     * study tees the reference stream into an analysis::RaceDetector
     * (warm-up included — a warm-up race is still a bug) and reports
     * the outcome in StudyResult::races. Off by default: the check
     * roughly doubles per-reference work.
     */
    bool analyzeRaces = false;
    /**
     * Per-study watchdog budget in wall-clock seconds; 0 (the default)
     * disables it. Enforcement is cooperative: the study's reference
     * stream passes through a sink that checks the deadline every few
     * hundred thousand references (core/watchdog.hh) and throws
     * StudyTimeoutError, so a runaway study fails with a typed error
     * instead of occupying a pool worker forever. Because the check
     * reads the wall clock, a run that times out is not reproducible —
     * use it as an operational guard (the serving daemon, CI), not in
     * experiments whose artifacts are diffed.
     */
    double timeoutSeconds = 0.0;
    /**
     * Coherence protocol the simulated machine runs (a study axis; see
     * sim::CoherenceProtocol). The default is the paper's
     * write-invalidate model, which is field-identical to Msi.
     */
    sim::CoherenceProtocol protocol =
        sim::CoherenceProtocol::WriteInvalidate;
    /**
     * Per-node cache hierarchy of the simulated machine (a study axis;
     * see memsys::NodeHierarchySpec). The profiler-derived curves and
     * working sets are hierarchy-independent by construction; a
     * two-level spec additionally reports concrete per-level miss
     * counters (StudyResult::nodeHierarchy).
     */
    memsys::NodeHierarchySpec hierarchy{};
    /**
     * Replay scheduling policy (a study axis; see replay::Scheduler).
     * The default static schedule is the paper's assumption — work
     * never moves — and leaves every artifact byte-identical to a
     * scheduler-oblivious run. Round-robin and seeded work stealing
     * migrate logical tasks between processors at the application's
     * global barriers, converting locality into sharing misses
     * (measured against the Cole & Ramachandran bound by
     * bench_replay_schedulers).
     */
    replay::SchedulerSpec scheduler{};
};

/** Outcome of one study. */
struct StudyResult
{
    /** The analyzed curve (metric per the request). */
    stats::Curve curve;
    /** Detected working-set hierarchy. */
    std::vector<stats::WorkingSet> workingSets;
    /** Aggregate simulator counters. */
    sim::ProcStats aggregate;
    /** Largest per-processor footprint (bytes; an estimate when the
     *  study ran sampled). */
    std::uint64_t maxFootprintBytes = 0;
    /** Floor of the curve (the inherent-communication rate). */
    double floorRate = 0.0;
    /** Sampling observability: effective rate, admitted refs, profiler
     *  memory. Valid in exact mode too (rate 1). */
    approx::SamplingDiagnostics sampling;
    /**
     * Per-category read-miss curves (cold / capacity / true-sharing /
     * false-sharing) over the same cache-size sweep as `curve` — the
     * communication-vs-capacity split at every swept size. Categories
     * sum to the total read misses (exactly in exact mode; as a
     * consistent estimate under sampling).
     */
    sim::MissClassCurves missClasses;
    /** Per-processor size-independent attribution ("p0".."pN-1"). */
    std::vector<sim::SharingSummary> perProc;
    /** Per-array attribution; empty unless the study attached its
     *  address space (sim::Multiprocessor::attachAddressSpace). */
    std::vector<sim::SharingSummary> perArray;
    /** Happens-before race check over the full reference stream;
     *  `races.enabled` is false unless StudyConfig::analyzeRaces. */
    analysis::RaceCheckResult races;
    /** The protocol the simulator ran (copied from its SimConfig). */
    sim::CoherenceProtocol protocol =
        sim::CoherenceProtocol::WriteInvalidate;
    /** The node hierarchy the simulator ran. */
    memsys::NodeHierarchySpec hierarchySpec{};
    /** Aggregated per-level counters when hierarchySpec is two-level. */
    memsys::HierarchyStats nodeHierarchy{};
    /** The schedule the reference stream was replayed under. */
    replay::SchedulerSpec scheduler{};
    /** Barrier intervals the scheduler saw — the global barriers in
     *  the measured stream (counted under every policy). */
    std::uint64_t schedulerIntervals = 0;
    /** Task migrations across all intervals — the "s" in the
     *  Cole & Ramachandran O(s·B) false-sharing bound. */
    std::uint64_t schedulerMigrations = 0;
};

/**
 * Analyze a finished simulation.
 *
 * @param mp The multiprocessor the application ran against.
 * @param config Sweep and knee parameters.
 * @param metric Metric to build the curve in.
 * @param total_flops FLOPs for MissesPerFlop (ignored otherwise).
 * @param name Curve name for display.
 */
StudyResult analyzeWorkingSets(const sim::Multiprocessor &mp,
                               const StudyConfig &config, Metric metric,
                               std::uint64_t total_flops,
                               const std::string &name);

/** Render a StudyResult as a small report (curve + knees + counters). */
std::string describeStudy(const StudyResult &result);

} // namespace wsg::core

#endif // WSG_CORE_WORKING_SET_STUDY_HH
