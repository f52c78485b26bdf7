/**
 * @file
 * replay-steal: trace-driven replay under seeded work stealing.
 *
 * Setup captures two .wsgtrace v3 files — grid CG 2-D (regular
 * nearest-neighbour sharing) and Barnes-Hut (irregular, tree-walk
 * sharing). Each pass replays both through
 *
 *   TraceReader -> BatchingSink -> ScheduledReplaySink(steal)
 *               -> Multiprocessor (MESI, 32 B lines, AET profilers)
 *
 * then analyzes and reports, as a study would. The sim layer is used
 * differently here than in the suite workloads: migrations at barriers
 * turn locality into coherence and false-sharing traffic (the
 * Cole & Ramachandran effect), the AET profiler is O(1) per line, and
 * decoding, not an application, produces the references.
 */

#include <filesystem>
#include <limits>
#include <sstream>

#include "apps/barnes/barnes_hut.hh"
#include "apps/cg/grid_cg.hh"
#include "core/presets.hh"
#include "pipeline.hh"
#include "replay/scheduled_sink.hh"
#include "sinks.hh"
#include "trace/trace_file.hh"

namespace wsg::pipeline
{

namespace
{

constexpr double kStealRate = 0.1;
/** Wall time of one pass on the reference machine (README). */
constexpr double kNominalPassS = 1.5;

struct CapturedTrace
{
    /** Report name of the replayed study. */
    std::string name;
    /** File name, relative to the per-run working directory. */
    std::string path;
    std::uint32_t numProcs = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
};

/** Run @p app_steps against a fresh trace file and describe it. */
template <typename Steps>
CapturedTrace
captureOne(const std::string &name, const std::string &path,
           std::uint32_t num_procs, Steps app_steps)
{
    CapturedTrace t{name, path, num_procs};
    trace::SharedAddressSpace space;
    trace::TraceWriter writer(path, num_procs);
    writer.attachAddressSpace(&space);
    app_steps(space, writer);
    writer.close();
    t.records = writer.recordsWritten();
    t.bytes = std::filesystem::file_size(path);
    return t;
}

std::vector<CapturedTrace>
capture(bool smoke)
{
    std::vector<CapturedTrace> traces;
    apps::cg::CgConfig cg = core::presets::simCg2d();
    cg.n = smoke ? 64 : 256;
    std::uint32_t iters = smoke ? 2 : 6;
    traces.push_back(captureOne(
        "replay-cg2d-n" + std::to_string(cg.n), "cg2d.wsgtrace",
        cg.numProcs(),
        [&](trace::SharedAddressSpace &space, trace::MemorySink &sink) {
            apps::cg::GridCg app(cg, space, &sink);
            app.buildSystem();
            app.run(iters, 0.0);
        }));

    apps::barnes::BarnesConfig barnes = core::presets::simBarnesFig6();
    barnes.numBodies = smoke ? 512 : 4096;
    std::uint32_t steps = smoke ? 1 : 2;
    traces.push_back(captureOne(
        "replay-barnes-n" + std::to_string(barnes.numBodies),
        "barnes.wsgtrace", barnes.numProcs,
        [&](trace::SharedAddressSpace &space, trace::MemorySink &sink) {
            apps::barnes::BarnesHut app(barnes, space, &sink);
            app.initPlummer();
            for (std::uint32_t s = 0; s < steps; ++s)
                app.step();
        }));
    return traces;
}

core::StudyConfig
replayStudy(std::uint64_t seed)
{
    core::StudyConfig study;
    study.minCacheBytes = 64;
    study.profiler = memsys::ProfilerKind::Aet;
    study.protocol = sim::CoherenceProtocol::Mesi;
    study.scheduler.kind = replay::SchedulerKind::WorkStealing;
    study.scheduler.stealRate = kStealRate;
    study.scheduler.stealSeed = seed;
    return study;
}

sim::SimConfig
simConfig(std::uint32_t num_procs, const core::StudyConfig &study)
{
    sim::SimConfig config;
    config.numProcs = num_procs;
    config.lineBytes = 32;
    config.profiler = study.profiler;
    config.protocol = study.protocol;
    return config;
}

/** Analyze a finished replay into a report, stamping the schedule. */
core::JobReport
makeReport(const std::string &name, const sim::Multiprocessor &mp,
           const core::StudyConfig &study,
           const replay::ScheduledReplaySink &scheduled)
{
    core::JobReport report;
    report.name = name;
    report.result = core::analyzeWorkingSets(
        mp, study, core::Metric::ReadMissRate, 0, name);
    stampSchedule(scheduled, report.result);
    report.ok = true;
    report.simRefs =
        report.result.aggregate.reads + report.result.aggregate.writes;
    return report;
}

/** "" when the miss classes add up, else the identity that broke. */
std::string
checkMissClasses(const core::JobReport &report)
{
    const core::StudyResult &r = report.result;
    const sim::ProcStats &a = r.aggregate;
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    if (a.readTrueSharing + a.readFalseSharing != a.readCoherence ||
        a.writeTrueSharing + a.writeFalseSharing != a.writeCoherence)
        return report.name + ": sharing split != coherence misses";
    if (r.missClasses.points.empty())
        return report.name + ": no miss-class curve";
    double previous = std::numeric_limits<double>::infinity();
    for (const sim::MissClassPoint &p : r.missClasses.points) {
        if (p.cold != d(a.readCold) ||
            p.trueSharing != d(a.readTrueSharing) ||
            p.falseSharing != d(a.readFalseSharing))
            return report.name + ": size-independent miss class varies";
        if (p.capacity < 0.0 || p.capacity > previous ||
            p.total() > d(a.reads))
            return report.name + ": capacity misses out of range";
        previous = p.capacity;
    }
    return "";
}

struct ReplayRun
{
    core::JobReport report;
    std::string bytes;
    double seconds = 0.0;
};

ReplayRun
replayUntraced(const CapturedTrace &t, const core::StudyConfig &study)
{
    ReplayRun run;
    double t0 = nowSeconds();
    sim::Multiprocessor mp(simConfig(t.numProcs, study));
    replay::ScheduledReplaySink scheduled(mp, study.scheduler, t.numProcs);
    trace::BatchingSink batcher(scheduled);
    trace::TraceReader reader(t.path);
    reader.replay(batcher);
    batcher.flush();
    run.report = makeReport(t.name, mp, study, scheduled);
    run.bytes = core::jsonReport({run.report});
    run.seconds = nowSeconds() - t0;
    return run;
}

/**
 * Output check. At seed 1 the report must match its pinned digest; at
 * any seed it must match the first pass's bytes (@p first, empty on
 * the first pass) and its miss classes must add up.
 */
std::string
verify(const ReplayRun &run, const std::string &first,
       std::uint64_t seed)
{
    std::string err = checkMissClasses(run.report);
    if (err.empty() && seed == 1)
        err = checkPinned(run.report.name, run.bytes);
    if (err.empty() && !first.empty() && run.bytes != first)
        err = run.report.name + ": pass differs from the first pass";
    return err;
}

std::vector<CapturedTrace>
timedCapture(const Options &options, std::vector<double> &setups)
{
    double t0 = nowSeconds();
    std::vector<CapturedTrace> traces = capture(options.smoke);
    setups.push_back(nowSeconds() - t0);
    return traces;
}

Outcome
measure(const Options &options)
{
    Outcome out;
    std::vector<double> setups;
    std::vector<CapturedTrace> traces;
    for (int i = 0; i < setupRepeats(options); ++i)
        traces = timedCapture(options, setups);

    core::StudyConfig study = replayStudy(options.seed);
    std::size_t n = traces.size();
    std::vector<std::vector<double>> seconds(n);
    std::vector<std::string> first(n);
    std::uint64_t refs = 0, records = 0;
    out.passes = passesFor(options, kNominalPassS);
    for (std::uint64_t pass = 0; pass < out.passes; ++pass) {
        for (std::size_t i = 0; i < n; ++i) {
            ReplayRun run = replayUntraced(traces[i], study);
            std::string err = verify(run, first[i], options.seed);
            out.check(err.empty(), err);
            if (first[i].empty())
                first[i] = run.bytes;
            seconds[i].push_back(run.seconds);
            if (pass == 0) {
                refs += run.report.simRefs;
                records += traces[i].records;
            }
        }
    }

    double pass_s = studyMetrics(seconds, out);
    out.metrics["setup_s"] = median(setups);
    out.metrics["peak_rss_mib"] = peakRssMib();
    std::ostringstream note;
    note << "replays " << n << " x passes " << out.passes
         << ", fastest pass " << pass_s << " s, refs_per_s "
         << static_cast<double>(refs) / pass_s << ", records_per_s "
         << static_cast<double>(records) / pass_s;
    out.notes.push_back(note.str());
    return out;
}

void
replayTraced(const CapturedTrace &t, const core::StudyConfig &study,
             const ReplayRun &untraced, LayerTotals &totals, Outcome &out)
{
    LayerTotals::StudyTimes times;
    times.start = nowNs();
    sim::Multiprocessor mp(simConfig(t.numProcs, study));
    TracedChain chain(mp, study.scheduler, totals.decode, totals);
    LayerTotals::Snapshot before{totals.decode, totals.replay, totals.sim};

    times.produce = nowNs();
    trace::TraceReader reader(t.path);
    std::uint64_t records = reader.replay(chain.sink());
    chain.flush();
    times.analyze = nowNs();
    core::JobReport report =
        makeReport(t.name, mp, study, chain.scheduler());
    times.report = nowNs();
    std::string bytes = core::jsonReport({report});
    times.end = nowNs();

    totals.traceRecords += records;
    totals.traceBytes += t.bytes;
    std::string err = totals.addStudy(t.name, "trace.decode", totals.decode,
                                      before, times, report.result,
                                      bytes.size(), totals.decodeSelfS);
    std::uint64_t decoded = totals.decode.refs - before.front.refs +
                            totals.decode.syncs - before.front.syncs;
    if (bytes != untraced.bytes)
        err = t.name + ": traced replay's report differs from untraced";
    else if (records != t.records || decoded != records)
        err = t.name + ": decoded " + std::to_string(records) +
              " records of " + std::to_string(t.records) + " written";
    else if (err.empty() && report.simRefs != untraced.report.simRefs)
        err = t.name + ": sim.refs_measured differs from the untraced run";
    out.check(err.empty(), err);
}

void
shadowReplay(const CapturedTrace &t, const core::StudyConfig &study,
             LayerTotals &totals)
{
    ShadowChain chain(t.numProcs, 32, study.profiler);
    replay::ScheduledReplaySink scheduled(chain.sink(), study.scheduler,
                                          t.numProcs);
    trace::TraceReader reader(t.path);
    reader.replay(scheduled);
    chain.flush();
    totals.shadowS += static_cast<double>(chain.shadow().ns()) / 1e9;
    totals.shadowLines += chain.shadow().lines();
}

Outcome
traced(const Options &options)
{
    Outcome out;
    std::vector<double> setups;
    std::vector<CapturedTrace> traces = timedCapture(options, setups);
    core::StudyConfig study = replayStudy(options.seed);

    std::vector<ReplayRun> untraced;
    double t0 = nowSeconds();
    for (const CapturedTrace &t : traces) {
        untraced.push_back(replayUntraced(t, study));
        std::string err = verify(untraced.back(), "", options.seed);
        out.check(err.empty(), err);
    }
    double untraced_s = nowSeconds() - t0;

    LayerTotals totals;
    totals.captureS = setups.front();
    t0 = nowSeconds();
    for (std::size_t i = 0; i < traces.size(); ++i)
        replayTraced(traces[i], study, untraced[i], totals, out);
    double traced_s = nowSeconds() - t0;

    for (const CapturedTrace &t : traces)
        shadowReplay(t, study, totals);

    out.passes = 1;
    totals.report(out, traced_s, untraced_s);
    if (!options.spansPath.empty())
        totals.spans.write(options.spansPath, options.workload);
    return out;
}

} // namespace

Outcome
runReplaySteal(const Options &options)
{
    return options.traced ? traced(options) : measure(options);
}

} // namespace wsg::pipeline
