/**
 * @file
 * The two suite workloads: figures-base (all fourteen presets at the
 * base tier — the paper-reproduction traffic) and footprint-large (the
 * large-tier studies whose directory and profiler state outgrow the
 * host's caches). Both are closed loops with one client: each study
 * starts when the previous one finished, in a seeded order per pass.
 *
 * Untraced, every study runs through core::runJobInline exactly as the
 * figure benches and the daemon run it. Traced, each study is rebuilt
 * by its replica (replica.hh) into an instrumented chain, and a shadow
 * pass replays each study's line stream into bare profilers.
 */

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/suite.hh"
#include "pipeline.hh"
#include "replay/splitmix.hh"
#include "replica.hh"
#include "sinks.hh"
#include "stats/hash.hh"

namespace wsg::pipeline
{

namespace
{

struct StudySet
{
    /** Bare suite presets. */
    std::vector<std::string> presets;
    /** Variant suffix of the measured studies ("" = base tier). */
    std::string suffix;
    /** Wall time of one pass on the reference machine (README). */
    double nominalPassS = 0.0;
};

/** Seeded Fisher-Yates order of @p n studies for one pass. */
std::vector<std::size_t>
passOrder(std::size_t n, std::uint64_t seed, std::uint64_t pass)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    replay::SplitMix64 rng(stats::fnv1a64(
        std::to_string(seed) + "/" + std::to_string(pass)));
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

/** One untraced study: its report, report bytes and wall time. */
struct StudyRun
{
    core::JobReport report;
    std::string bytes;
    double seconds = 0.0;
};

/** Run @p job as the benches do, timing the job and its report. */
StudyRun
runStudy(const core::StudyJob &job)
{
    StudyRun run;
    double t0 = nowSeconds();
    run.report = core::runJobInline(job);
    if (run.report.ok)
        run.bytes = core::jsonReport({run.report});
    run.seconds = nowSeconds() - t0;
    return run;
}

/** "" when @p run produced the pinned report, else why not. */
std::string
verify(const StudyRun &run)
{
    if (!run.report.ok)
        return run.report.name + ": " + run.report.error;
    return checkPinned(run.report.name, run.bytes);
}

/**
 * Build the job list, then run every suite preset once at the small tier
 * so each application's code and the allocator are warm before timing
 * starts; the warm-up reports are checked like any other. Every preset,
 * not only the set's: about 1 s of work times steadily, where the 0.1 s
 * that footprint-large's three small studies take varied by 2x.
 */
std::vector<core::StudyJob>
setUp(const StudySet &set, Outcome &out)
{
    std::vector<core::StudyJob> jobs;
    for (const std::string &preset : set.presets)
        jobs.push_back(core::figureSuiteJob(preset + set.suffix));
    for (const std::string &preset : core::figureSuiteNames()) {
        std::string err =
            verify(runStudy(core::figureSuiteJob(preset + "@size=small")));
        out.check(err.empty(), err);
    }
    return jobs;
}

Outcome
measure(const StudySet &set, const Options &options)
{
    Outcome out;
    std::vector<double> setups;
    std::vector<core::StudyJob> jobs;
    for (int i = 0; i < setupRepeats(options); ++i) {
        double t0 = nowSeconds();
        jobs = setUp(set, out);
        setups.push_back(nowSeconds() - t0);
    }

    std::size_t n = jobs.size();
    std::vector<std::vector<double>> seconds(n);
    std::vector<std::uint64_t> refs(n, 0);
    out.passes = passesFor(options, set.nominalPassS);
    // Pass 0 is an untimed warm-up: a study's first run at the measured
    // tier pays page faults and allocator growth that later runs do not,
    // up to 1.4x a later run's time (README, "Noise").
    for (std::uint64_t pass = 0; pass <= out.passes; ++pass) {
        for (std::size_t i : passOrder(n, options.seed, pass)) {
            StudyRun run = runStudy(jobs[i]);
            std::string err = verify(run);
            out.check(err.empty(), err);
            if (pass > 0)
                seconds[i].push_back(run.seconds);
            refs[i] = run.report.simRefs;
        }
    }

    double pass_s = studyMetrics(seconds, out);
    double total_refs = static_cast<double>(
        std::accumulate(refs.begin(), refs.end(), std::uint64_t{0}));
    out.metrics["setup_s"] = median(setups);
    out.metrics["peak_rss_mib"] = peakRssMib();
    std::ostringstream note;
    note << "studies " << n << " x passes " << out.passes
         << " (n per study = passes; too few for a tail percentile), "
            "fastest pass "
         << pass_s << " s, refs_per_s " << total_refs / pass_s;
    out.notes.push_back(note.str());
    return out;
}

/** Traced replica of one study, checked against its untraced run. */
void
traceStudy(const core::StudyJob &job, const StudyRun &untraced,
           LayerTotals &totals, Outcome &out)
{
    const std::string &name = job.name;
    Replica replica = replicaFor(name);
    LayerTotals::StudyTimes t;
    t.start = nowNs();

    trace::SharedAddressSpace space;
    sim::SimConfig config;
    config.numProcs = replica.numProcs;
    config.lineBytes = replica.lineBytes;
    config.sampling = replica.study.sampling;
    config.profiler = replica.study.profiler;
    config.protocol = replica.study.protocol;
    config.hierarchy = replica.study.hierarchy;
    sim::Multiprocessor mp(config);
    mp.attachAddressSpace(&space);
    TracedChain chain(mp, replica.study.scheduler, totals.apps, totals);
    LayerTotals::Snapshot before{totals.apps, totals.replay, totals.sim};

    t.produce = nowNs();
    std::uint64_t flops = replica.run(space, chain);
    chain.flush();
    t.analyze = nowNs();
    core::JobReport report;
    report.name = name;
    report.result = core::analyzeWorkingSets(
        mp, replica.study, replica.metric, flops, replica.curveName);
    stampSchedule(chain.scheduler(), report.result);
    report.ok = true;
    report.simRefs =
        report.result.aggregate.reads + report.result.aggregate.writes;
    report.configHash = stats::fnv1a64Hex(job.canonicalConfig);
    t.report = nowNs();
    std::string bytes = core::jsonReport({report});
    t.end = nowNs();

    std::string err =
        totals.addStudy(name, "apps", totals.apps, before, t, report.result,
                        bytes.size(), totals.appsSelfS);
    if (bytes != untraced.bytes)
        err = name + ": traced replica's report differs from the study's";
    else if (err.empty() && report.simRefs != untraced.report.simRefs)
        err = name + ": sim.refs_measured " +
              std::to_string(report.simRefs) + " != JobReport::simRefs " +
              std::to_string(untraced.report.simRefs);
    out.check(err.empty(), err);
}

/** Replay one study's line stream into bare profilers. */
void
shadowStudy(const std::string &name, LayerTotals &totals)
{
    Replica replica = replicaFor(name);
    trace::SharedAddressSpace space;
    ShadowChain chain(replica.numProcs, replica.lineBytes,
                      replica.study.profiler);
    replica.run(space, chain);
    chain.flush();
    totals.shadowS += static_cast<double>(chain.shadow().ns()) / 1e9;
    totals.shadowLines += chain.shadow().lines();
}

Outcome
traced(const StudySet &set, const Options &options)
{
    Outcome out;
    std::vector<core::StudyJob> jobs = setUp(set, out);
    std::vector<std::size_t> order =
        passOrder(jobs.size(), options.seed, 0);

    std::vector<StudyRun> untraced(jobs.size());
    double t0 = nowSeconds();
    for (std::size_t i : order) {
        untraced[i] = runStudy(jobs[i]);
        std::string err = verify(untraced[i]);
        out.check(err.empty(), err);
    }
    double untraced_s = nowSeconds() - t0;

    LayerTotals totals;
    t0 = nowSeconds();
    for (std::size_t i : order)
        traceStudy(jobs[i], untraced[i], totals, out);
    double traced_s = nowSeconds() - t0;

    t0 = nowSeconds();
    for (std::size_t i : order)
        shadowStudy(jobs[i].name, totals);
    double shadow_s = nowSeconds() - t0;

    std::ostringstream note;
    note << "untraced pass " << untraced_s << " s, traced pass "
         << traced_s << " s, shadow pass " << shadow_s << " s";
    out.notes.push_back(note.str());
    out.passes = 1;
    totals.report(out, traced_s, untraced_s);
    if (!options.spansPath.empty())
        totals.spans.write(options.spansPath, options.workload);
    return out;
}

Outcome
run(const StudySet &set, const Options &options)
{
    return options.traced ? traced(set, options) : measure(set, options);
}

} // namespace

Outcome
runFiguresBase(const Options &options)
{
    return run({core::figureSuiteNames(), options.smoke ? "@size=small" : "",
                9.5},
               options);
}

Outcome
runFootprintLarge(const Options &options)
{
    // One large study of each kind, each under 1 s: the three 2.5-3.5 s
    // large studies (cg-3d, fft-radix2, fft-radix8) would leave room for
    // only two passes, and the fastest of two samples is not steady.
    return run({{"fig4-cg-2d", "app-fft3d", "app-ucg"},
                options.smoke ? "@size=small" : "@size=large", 2.0},
               options);
}

} // namespace wsg::pipeline
