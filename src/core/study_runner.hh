/**
 * @file
 * Parallel study runner with run observability.
 *
 * The paper's artifact is a family of miss-rate-versus-cache-size curves
 * obtained by re-running applications across many configurations. The
 * studies are embarrassingly parallel — each owns its Multiprocessor,
 * its address space, and its RNG seeds — so this runner executes them
 * concurrently on a ThreadPool, one study per worker. A study itself
 * runs on one thread: its curve read-out is one pass per histogram,
 * too little work to split.
 *
 * Determinism guarantee: a study executed through the runner produces
 * byte-identical curves, knees, and aggregate counters to a serial run,
 * at any worker count. This holds because (1) each study job is
 * sequential and shares no mutable state with its siblings, and (2)
 * job reports are returned in submission order regardless of
 * completion order. test_core_runner.cc enforces the guarantee at
 * 2/4/8 workers.
 *
 * Observability: every job is wall-clock timed, its simulated-reference
 * throughput is computed from the aggregate counters, and an optional
 * progress callback sees start/finish events as they happen. The whole
 * batch can be serialized as diffable JSON (stats/json_report).
 */

#ifndef WSG_CORE_STUDY_RUNNER_HH
#define WSG_CORE_STUDY_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/thread_pool.hh"
#include "core/working_set_study.hh"

namespace wsg::core
{

/** One schedulable unit: a named, self-contained study. */
struct StudyJob
{
    /** Display / report name; also the JSON object key material. */
    std::string name;
    /** Builds, runs, and analyzes the study. Must not share mutable
     *  state with other jobs (each constructs its own Multiprocessor). */
    std::function<StudyResult()> body;
    /**
     * Canonical serialization of everything that determines the study's
     * output bytes: application kind and parameters, line size, sweep,
     * knee thresholds and sampling mode (wsg-study-config-v1, one
     * key=value per line). The job factories in core/runners.hh fill
     * this in; its FNV-1a hash becomes JobReport::configHash, the
     * report's `config_hash` field, and the serving layer's cache key.
     * Empty for ad-hoc jobs, which then carry no hash.
     */
    std::string canonicalConfig;
};

/** Progress event passed to the observer callback. */
struct JobEvent
{
    enum class Kind : std::uint8_t
    {
        Started,
        Finished,
    };
    Kind kind = Kind::Started;
    /** Submission index of the job. */
    std::size_t index = 0;
    /** Total jobs in the batch. */
    std::size_t total = 0;
    std::string name;
    /** Valid for Finished events. */
    double seconds = 0.0;
    std::uint64_t simRefs = 0;
    double refsPerSec = 0.0;
};

/** Outcome of one job, in submission order. */
struct JobReport
{
    std::string name;
    StudyResult result;
    /** Wall-clock duration of the job body. */
    double seconds = 0.0;
    /** Simulated references (reads + writes) the study measured. */
    std::uint64_t simRefs = 0;
    /** Simulated references per wall-clock second. */
    double refsPerSec = 0.0;
    /** False when the body threw; `error` holds the message. */
    bool ok = false;
    std::string error;
    /** True when the failure was the watchdog (StudyTimeoutError). */
    bool timedOut = false;
    /** FNV-1a hex of StudyJob::canonicalConfig ("" for ad-hoc jobs). */
    std::string configHash;
};

/**
 * Execute one job inline on the calling thread (no pool, no observer)
 * and return its report — the single-study form of StudyRunner::run,
 * with identical timing, error capture and configHash stamping. The
 * serving layer uses this to compute a cacheable study on a service
 * worker thread.
 */
JobReport runJobInline(const StudyJob &job);

/** Runner configuration. */
struct RunnerConfig
{
    /**
     * Worker count: 0 = one per hardware thread, 1 = serial (jobs run
     * inline on the calling thread, no pool is created), N = pool of N.
     */
    unsigned jobs = 0;
    /** Optional progress observer; invoked serialized (never two calls
     *  concurrently), from worker threads. */
    std::function<void(const JobEvent &)> onProgress;
};

/**
 * Runs batches of StudyJobs. The pool is created once per runner and
 * reused across run() calls.
 */
class StudyRunner
{
  public:
    explicit StudyRunner(const RunnerConfig &config = {});
    ~StudyRunner();

    StudyRunner(const StudyRunner &) = delete;
    StudyRunner &operator=(const StudyRunner &) = delete;

    /** Resolved worker count (>= 1; 1 means serial). */
    unsigned workerCount() const { return workers_; }

    /** Pool backing this runner, or null in serial mode. */
    ThreadPool *pool() { return pool_.get(); }

    /**
     * Execute every job and return reports in submission order.
     * A throwing job yields a report with ok == false; it never takes
     * down the batch.
     */
    std::vector<JobReport> run(const std::vector<StudyJob> &jobs);

  private:
    unsigned workers_;
    std::unique_ptr<ThreadPool> pool_;
    std::function<void(const JobEvent &)> onProgress_;
    std::mutex progressMutex_;

    JobReport runOne(const StudyJob &job, std::size_t index,
                     std::size_t total);
    void emit(const JobEvent &event);
};

/**
 * Serialize a batch of job reports as a diffable JSON document
 * (schema "wsg-study-report-v3"):
 * {"studies": [{name, curve, working_sets, aggregate, miss_classes,
 * [protocol], [node_hierarchy], [sampling], [timing]}...]} —
 * miss_classes carries the per-category (cold / capacity /
 * true_sharing / false_sharing) read-miss curves over the sweep plus
 * per-processor and per-array attribution. The v3 additions (protocol,
 * the aggregate's invalidations_sent/upgrades_sent, node_hierarchy,
 * scheduler) are emitted only when a study ran off the default machine
 * axes, so a
 * default-axes v3 document differs from its v2 predecessor in the
 * schema string alone, and v2 consumers that tolerate unknown fields
 * parse v3 unchanged.
 *
 * @param include_timings Add wall-clock/throughput per study. Off by
 *        default so regenerated artifacts diff cleanly across machines.
 */
void writeJsonReport(std::ostream &os,
                     const std::vector<JobReport> &reports,
                     bool include_timings = false);

/** writeJsonReport into a string. */
std::string jsonReport(const std::vector<JobReport> &reports,
                       bool include_timings = false);

/**
 * Parsed command-line options shared by the benches and examples that
 * drive the runner.
 */
struct RunnerCli
{
    /** --jobs N (0 = auto). */
    unsigned jobs = 1;
    /** --json PATH: write the batch's JSON artifact here ("" = off,
     *  "-" = stdout). */
    std::string jsonPath;
    /** --progress: emit live per-job progress lines on stderr. */
    bool progress = false;
    /**
     * What the axis flags of core/study_axes.hh, --analyze-races and
     * --timeout S set. Benches and examples start every study from
     * this and set only their own sweep fields; benches exit non-zero
     * when --analyze-races finds a race, so it doubles as a CI gate.
     */
    StudyConfig study{};
};

/**
 * Extract --jobs/--json/--progress/--analyze-races/--timeout and the
 * axis flags of core/study_axes.hh from argv, each as "--flag V" or
 * "--flag=V", *removing* the consumed arguments so positional
 * parameters keep their indices for the caller. A malformed runner
 * flag (missing or unparseable value, a non-positive timeout, a value
 * its axis rejects, or a combination checkAxisCombination rejects)
 * prints an error on stderr and exits with status 2.
 */
RunnerCli parseRunnerCli(int &argc, char **argv);

/** RunnerConfig for a parsed CLI: worker count + optional stderr
 *  progress printer ("[k/n] name ... 0.42 s, 1.3 Mref/s"). */
RunnerConfig cliRunnerConfig(const RunnerCli &cli);

/**
 * Emit the batch artifact per the CLI: no-op when --json was absent,
 * stdout for "-", else the named file. Returns the destination
 * description ("" when disabled) for logging. An unwritable path
 * prints an error on stderr and exits with status 2.
 */
std::string emitCliReport(const RunnerCli &cli,
                          const std::vector<JobReport> &reports);

/**
 * Print each race-checked study's happens-before verdict to @p os (in
 * submission order, so the output is byte-identical at any --jobs
 * value) and return the number of studies with findings. No-op
 * returning 0 when no study ran the check. Benches exit non-zero on a
 * non-zero return, which makes --analyze-races usable as a CI gate.
 */
std::size_t reportRaceChecks(std::ostream &os,
                             const std::vector<JobReport> &reports);

} // namespace wsg::core

#endif // WSG_CORE_STUDY_RUNNER_HH
