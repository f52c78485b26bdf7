/**
 * @file
 * Tests for the replay scheduling subsystem (src/replay): spec
 * parsing/labels, policy bijections, the ScheduledReplaySink remap
 * contract, and the study-level guarantees the subsystem is built
 * around — the static default changes nothing, deterministic policies
 * preserve the reference stream's aggregate identities, a fixed steal
 * seed makes the whole report byte-reproducible at any worker count,
 * and no policy can introduce a data race into a race-free trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/runners.hh"
#include "core/study_runner.hh"
#include "core/suite.hh"
#include "mattson_misses.hh"
#include "replay/scheduled_sink.hh"
#include "replay/scheduler.hh"
#include "replay/splitmix.hh"
#include "sim/multiprocessor.hh"
#include "trace/sinks.hh"
#include "trace/trace_file.hh"

using namespace wsg;
using namespace wsg::replay;

// ---------------------------------------------------------------------
// Spec grammar.
// ---------------------------------------------------------------------

TEST(SchedulerSpecTest, LabelsAreCanonicalAndRoundTrip)
{
    EXPECT_EQ(schedulerSpecLabel(SchedulerSpec{}), "static");

    SchedulerSpec rr = parseSchedulerSpec("rr");
    EXPECT_EQ(rr.kind, SchedulerKind::RoundRobin);
    EXPECT_EQ(schedulerSpecLabel(rr), "round-robin");
    EXPECT_TRUE(parseSchedulerSpec("round-robin") == rr);

    SchedulerSpec ws = parseSchedulerSpec("steal");
    EXPECT_EQ(ws.kind, SchedulerKind::WorkStealing);
    EXPECT_DOUBLE_EQ(ws.stealRate, 0.25);
    EXPECT_EQ(ws.stealSeed, 1u);
    EXPECT_EQ(schedulerSpecLabel(ws), "steal:r0.25:s1");

    SchedulerSpec custom = parseSchedulerSpec("ws:s7:r0.5");
    EXPECT_DOUBLE_EQ(custom.stealRate, 0.5);
    EXPECT_EQ(custom.stealSeed, 7u);
    // The label spells options in canonical order regardless of input
    // order, and parses back to the same spec.
    EXPECT_EQ(schedulerSpecLabel(custom), "steal:r0.5:s7");
    EXPECT_TRUE(parseSchedulerSpec(schedulerSpecLabel(custom)) ==
                custom);
}

TEST(SchedulerSpecTest, ParseComposesWithBase)
{
    // --steal-rate before --scheduler: the policy keeps the base's
    // rate/seed when the label omits them.
    SchedulerSpec base;
    base.stealRate = 0.75;
    base.stealSeed = 99;
    SchedulerSpec spec = parseSchedulerSpec("steal", base);
    EXPECT_DOUBLE_EQ(spec.stealRate, 0.75);
    EXPECT_EQ(spec.stealSeed, 99u);
}

TEST(SchedulerSpecTest, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseSchedulerSpec("fifo"), std::invalid_argument);
    EXPECT_THROW(parseSchedulerSpec(""), std::invalid_argument);
    // Options on policies that take none.
    EXPECT_THROW(parseSchedulerSpec("static:r0.5"),
                 std::invalid_argument);
    EXPECT_THROW(parseSchedulerSpec("rr:s3"), std::invalid_argument);
    // Malformed or out-of-range stealing options.
    EXPECT_THROW(parseSchedulerSpec("steal:x3"), std::invalid_argument);
    EXPECT_THROW(parseSchedulerSpec("steal:rfoo"),
                 std::invalid_argument);
    EXPECT_THROW(parseSchedulerSpec("steal:r1.5"),
                 std::invalid_argument);
    EXPECT_THROW(parseSchedulerSpec("steal:r-0.1"),
                 std::invalid_argument);
    EXPECT_THROW(parseSchedulerSpec("steal:s12x"),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Policies.
// ---------------------------------------------------------------------

namespace
{

/** Assert placement() is a bijection on [0, tasks). */
void
expectBijection(const Scheduler &sched, std::uint32_t tasks)
{
    std::set<std::uint32_t> procs;
    for (std::uint32_t t = 0; t < tasks; ++t) {
        std::uint32_t p = sched.placement(t);
        EXPECT_LT(p, tasks);
        procs.insert(p);
    }
    EXPECT_EQ(procs.size(), tasks);
}

} // namespace

TEST(SchedulerTest, StaticIsTheIdentityForever)
{
    auto sched = makeScheduler(SchedulerSpec{}, 4);
    for (int interval = 0; interval < 10; ++interval) {
        EXPECT_TRUE(sched->isIdentity());
        for (std::uint32_t t = 0; t < 4; ++t)
            EXPECT_EQ(sched->placement(t), t);
        EXPECT_EQ(sched->advance(), 0u);
    }
}

TEST(SchedulerTest, RoundRobinRotatesEveryTaskEachInterval)
{
    SchedulerSpec spec;
    spec.kind = SchedulerKind::RoundRobin;
    auto sched = makeScheduler(spec, 4);
    EXPECT_TRUE(sched->isIdentity());
    for (std::uint32_t interval = 1; interval <= 9; ++interval) {
        EXPECT_EQ(sched->advance(), 4u); // every task moves
        for (std::uint32_t t = 0; t < 4; ++t)
            EXPECT_EQ(sched->placement(t), (t + interval) % 4);
        expectBijection(*sched, 4);
        // The rotation passes back through the identity every 4
        // intervals.
        EXPECT_EQ(sched->isIdentity(), interval % 4 == 0);
    }
}

TEST(SchedulerTest, RoundRobinOnOneTaskNeverMigrates)
{
    SchedulerSpec spec;
    spec.kind = SchedulerKind::RoundRobin;
    auto sched = makeScheduler(spec, 1);
    EXPECT_EQ(sched->advance(), 0u);
    EXPECT_TRUE(sched->isIdentity());
}

TEST(SchedulerTest, WorkStealingStaysBijectiveAndDeterministic)
{
    SchedulerSpec spec;
    spec.kind = SchedulerKind::WorkStealing;
    spec.stealRate = 0.5;
    spec.stealSeed = 42;
    auto a = makeScheduler(spec, 8);
    auto b = makeScheduler(spec, 8);
    std::uint64_t migrations = 0;
    for (int interval = 0; interval < 200; ++interval) {
        std::uint32_t moved_a = a->advance();
        std::uint32_t moved_b = b->advance();
        EXPECT_EQ(moved_a, moved_b);
        migrations += moved_a;
        expectBijection(*a, 8);
        for (std::uint32_t t = 0; t < 8; ++t)
            EXPECT_EQ(a->placement(t), b->placement(t));
    }
    // At rate 0.5 over 200 intervals of 8 tasks, migrations are
    // statistically certain (deterministically so for the fixed seed).
    EXPECT_GT(migrations, 0u);

    // A different seed diverges somewhere.
    spec.stealSeed = 43;
    auto c = makeScheduler(spec, 8);
    bool diverged = false;
    auto d = makeScheduler(SchedulerSpec{spec.kind, 0.5, 42}, 8);
    for (int interval = 0; interval < 200 && !diverged; ++interval) {
        c->advance();
        d->advance();
        for (std::uint32_t t = 0; t < 8; ++t)
            diverged = diverged || c->placement(t) != d->placement(t);
    }
    EXPECT_TRUE(diverged);
}

TEST(SchedulerTest, ZeroStealRateNeverMigrates)
{
    SchedulerSpec spec;
    spec.kind = SchedulerKind::WorkStealing;
    spec.stealRate = 0.0;
    auto sched = makeScheduler(spec, 8);
    for (int interval = 0; interval < 50; ++interval) {
        EXPECT_EQ(sched->advance(), 0u);
        EXPECT_TRUE(sched->isIdentity());
    }
}

TEST(SchedulerTest, RejectsZeroTasks)
{
    EXPECT_THROW(makeScheduler(SchedulerSpec{}, 0),
                 std::invalid_argument);
}

TEST(SplitMixTest, DeterministicSequencesAndRanges)
{
    SplitMix64 a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
    SplitMix64 c(123);
    for (int i = 0; i < 1000; ++i) {
        double u = c.nextUnit();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    SplitMix64 d(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(d.nextBelow(13), 13u);
}

// ---------------------------------------------------------------------
// The sink adapter.
// ---------------------------------------------------------------------

TEST(ScheduledSinkTest, StaticForwardsTheStreamUntouched)
{
    trace::RecordingSink direct, scheduled_out;
    ScheduledReplaySink scheduled(scheduled_out, SchedulerSpec{}, 2);
    for (trace::MemorySink *sink :
         {static_cast<trace::MemorySink *>(&direct),
          static_cast<trace::MemorySink *>(&scheduled)}) {
        sink->read(0, 0x10, 8);
        sink->write(1, 0x20, 8);
        sink->barrier(1);
        sink->lockAcquire(1, 0xAB);
        sink->read(1, 0x28, 8);
        sink->lockRelease(1, 0xAB);
    }
    ASSERT_EQ(scheduled_out.refs().size(), direct.refs().size());
    for (std::size_t i = 0; i < direct.refs().size(); ++i) {
        EXPECT_EQ(scheduled_out.refs()[i].addr, direct.refs()[i].addr);
        EXPECT_EQ(scheduled_out.refs()[i].pid, direct.refs()[i].pid);
    }
    ASSERT_EQ(scheduled_out.syncs().size(), direct.syncs().size());
    EXPECT_EQ(scheduled.intervals(), 1u);
    EXPECT_EQ(scheduled.migrations(), 0u);
}

TEST(ScheduledSinkTest, RoundRobinRemapsOnlyAfterBarriers)
{
    trace::RecordingSink out;
    SchedulerSpec spec;
    spec.kind = SchedulerKind::RoundRobin;
    ScheduledReplaySink sink(out, spec, 4);

    sink.read(0, 0x10, 8); // interval 0: identity
    sink.barrier(0);
    sink.read(0, 0x10, 8); // interval 1: task t -> proc t+1
    sink.lockAcquire(3, 0xAB);
    sink.barrier(1);
    sink.read(0, 0x10, 8); // interval 2: task t -> proc t+2

    ASSERT_EQ(out.refs().size(), 3u);
    EXPECT_EQ(out.refs()[0].pid, 0u);
    EXPECT_EQ(out.refs()[1].pid, 1u);
    EXPECT_EQ(out.refs()[2].pid, 2u);
    // The lock event in interval 1 was remapped like data (3 -> 0)
    // without triggering a migration of its own.
    ASSERT_EQ(out.syncs().size(), 3u);
    EXPECT_EQ(static_cast<int>(out.syncs()[1].kind),
              static_cast<int>(trace::SyncKind::LockAcquire));
    EXPECT_EQ(out.syncs()[1].pid, 0u);
    EXPECT_EQ(sink.intervals(), 2u);
    EXPECT_EQ(sink.migrations(), 8u);
}

TEST(ScheduledSinkTest, BatchesMatchSingleAccessDelivery)
{
    // MemorySink contract: accessBatch must be observably identical to
    // n access() calls — including under a remapping schedule.
    SchedulerSpec spec;
    spec.kind = SchedulerKind::RoundRobin;
    std::vector<trace::MemRef> refs;
    for (std::uint32_t i = 0; i < 16; ++i)
        refs.push_back(trace::MemRef{0x100 + 8 * i, 8, i % 4,
                                     trace::RefType::Read});

    trace::RecordingSink one_out, batch_out;
    ScheduledReplaySink one(one_out, spec, 4);
    ScheduledReplaySink batch(batch_out, spec, 4);
    one.barrier(0);
    batch.barrier(0); // leave the identity so the remap path runs
    for (const auto &r : refs)
        one.access(r);
    batch.accessBatch(refs.data(), refs.size());

    ASSERT_EQ(one_out.refs().size(), batch_out.refs().size());
    for (std::size_t i = 0; i < one_out.refs().size(); ++i) {
        EXPECT_EQ(one_out.refs()[i].addr, batch_out.refs()[i].addr);
        EXPECT_EQ(one_out.refs()[i].pid, batch_out.refs()[i].pid);
    }
}

TEST(ScheduledSinkTest, RejectsTaskIdsOutsideTheSchedule)
{
    // Use a non-identity schedule: the static fast path forwards the
    // stream untouched, so only the remap path can (and must) catch a
    // task id the schedule does not cover.
    trace::RecordingSink out;
    SchedulerSpec spec;
    spec.kind = SchedulerKind::RoundRobin;
    ScheduledReplaySink sink(out, spec, 2);
    sink.barrier(0);
    EXPECT_THROW(sink.read(5, 0x10, 8), std::runtime_error);
    EXPECT_THROW(sink.lockAcquire(5, 0xAB), std::runtime_error);
}

TEST(ScheduledSinkTest, ReplayTraceSchedulesARecordedTrace)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string path = ::testing::TempDir() + "wsg_replay_" +
                       std::string(info->name()) + "_" +
                       std::to_string(::getpid()) + ".bin";
    {
        trace::TraceWriter writer(path, 2);
        writer.read(0, 0x10, 8);
        writer.read(1, 0x20, 8);
        writer.barrier(0);
        writer.read(0, 0x10, 8);
        writer.read(1, 0x20, 8);
    }

    SchedulerSpec rr;
    rr.kind = SchedulerKind::RoundRobin;
    trace::RecordingSink out;
    trace::TraceReader reader(path);
    EXPECT_EQ(replayTrace(reader, out, rr), 5u);
    std::remove(path.c_str());

    ASSERT_EQ(out.refs().size(), 4u);
    // Interval 0 is the identity; after the barrier the two tasks are
    // swapped, so the same addresses arrive from the other processor.
    EXPECT_EQ(out.refs()[0].pid, 0u);
    EXPECT_EQ(out.refs()[1].pid, 1u);
    EXPECT_EQ(out.refs()[2].pid, 1u);
    EXPECT_EQ(out.refs()[3].pid, 0u);
}

// ---------------------------------------------------------------------
// Study-level contracts (the slow half).
// ---------------------------------------------------------------------

namespace
{

/** The nine applications, one small-tier suite preset each. */
const char *const kNineApps[] = {
    "fig2-lu-B16@size=small",   "fig4-cg-2d@size=small",
    "fig5-fft-radix8@size=small", "fig6-barnes@size=small",
    "fig7-volrend@size=small",  "app-cholesky@size=small",
    "app-ucg@size=small",       "app-fft2d@size=small",
    "app-fft3d@size=small",
};

std::vector<core::StudyJob>
nineAppJobs(const core::StudyConfig &base)
{
    std::vector<core::StudyJob> jobs;
    for (const char *name : kNineApps)
        jobs.push_back(core::figureSuiteJob(name, base));
    return jobs;
}

/** Run @p jobs serially and return (reports, report JSON). */
std::pair<std::vector<core::JobReport>, std::string>
runSerial(const std::vector<core::StudyJob> &jobs)
{
    core::StudyRunner runner(core::RunnerConfig{1, nullptr});
    std::vector<core::JobReport> reports = runner.run(jobs);
    return {reports, core::jsonReport(reports)};
}

} // namespace

TEST(ReplayStudies, StaticSchedulerReproducesTheNineAppsExactly)
{
    // The control experiment: an explicit "--scheduler static" run
    // must be indistinguishable — canonical config, config hash and
    // report bytes — from a run that never mentions the scheduler
    // axis. This is what keeps every pre-scheduler artifact and cache
    // key valid.
    core::StudyConfig defaults;
    core::StudyConfig explicit_static;
    explicit_static.scheduler = parseSchedulerSpec("static");

    std::vector<core::StudyJob> a = nineAppJobs(defaults);
    std::vector<core::StudyJob> b = nineAppJobs(explicit_static);
    ASSERT_EQ(a.size(), 9u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].canonicalConfig, b[i].canonicalConfig)
            << a[i].name;

    auto [ra, json_a] = runSerial(a);
    auto [rb, json_b] = runSerial(b);
    EXPECT_EQ(json_a, json_b);
    for (std::size_t i = 0; i < ra.size(); ++i) {
        ASSERT_TRUE(ra[i].ok) << ra[i].name << ": " << ra[i].error;
        EXPECT_EQ(ra[i].configHash, rb[i].configHash);
        // Field-identical results, not just identical serialization.
        const core::StudyResult &x = ra[i].result;
        const core::StudyResult &y = rb[i].result;
        EXPECT_EQ(x.aggregate.reads, y.aggregate.reads);
        EXPECT_EQ(x.aggregate.writes, y.aggregate.writes);
        EXPECT_EQ(x.aggregate.readCoherence, y.aggregate.readCoherence);
        EXPECT_EQ(x.maxFootprintBytes, y.maxFootprintBytes);
        EXPECT_EQ(x.workingSets.size(), y.workingSets.size());
        EXPECT_EQ(x.floorRate, y.floorRate);
        EXPECT_EQ(x.schedulerMigrations, 0u);
        EXPECT_EQ(x.schedulerIntervals, y.schedulerIntervals);
    }
}

TEST(ReplayStudies, RoundRobinPreservesStreamIdentities)
{
    // A schedule permutes *who issues* each reference, never what is
    // referenced: totals are invariant, and the per-class split still
    // sums to the total read misses at every swept size.
    core::StudyConfig defaults;
    core::StudyConfig rr;
    rr.scheduler = parseSchedulerSpec("round-robin");

    core::JobReport base = core::runJobInline(
        core::figureSuiteJob("fig4-cg-2d@size=small", defaults));
    core::JobReport moved = core::runJobInline(
        core::figureSuiteJob("fig4-cg-2d@size=small", rr));
    ASSERT_TRUE(base.ok) << base.error;
    ASSERT_TRUE(moved.ok) << moved.error;

    const core::StudyResult &x = base.result;
    const core::StudyResult &y = moved.result;
    EXPECT_EQ(x.aggregate.reads, y.aggregate.reads);
    EXPECT_EQ(x.aggregate.writes, y.aggregate.writes);

    // Round-robin migrates every task at every barrier.
    EXPECT_GT(y.schedulerIntervals, 0u);
    EXPECT_EQ(y.schedulerMigrations,
              y.schedulerIntervals * y.perProc.size());

    // Miss-class sum identity under the schedule: the four categories
    // still sum exactly to the total read misses at every swept size
    // (the fig4-cg-2d preset simulates 8-byte lines).
    constexpr std::uint64_t kLineBytes = 8;
    ASSERT_FALSE(y.missClasses.empty());
    ASSERT_EQ(y.missClasses.points.size(),
              y.missClasses.cacheSizesBytes.size());
    for (std::size_t i = 0; i < y.missClasses.points.size(); ++i) {
        std::uint64_t lines = std::max<std::uint64_t>(
            1, y.missClasses.cacheSizesBytes[i] / kLineBytes);
        EXPECT_EQ(y.missClasses.points[i].total(),
                  static_cast<double>(test::mattsonReadMisses(
                      y.aggregate, lines, /*include_cold=*/true)))
            << "at cache size " << y.missClasses.cacheSizesBytes[i];
    }
    // Migration converts locality into coherence traffic; it must
    // never change how much is referenced, only how much is shared.
    EXPECT_GE(y.aggregate.readCoherence, x.aggregate.readCoherence);
}

TEST(ReplayStudies, FixedSeedStealingIsByteIdenticalAcrossWorkers)
{
    // The acceptance bar for the randomized policy: one seed, one
    // report, no matter how many runner workers raced over the batch.
    core::StudyConfig steal;
    steal.scheduler = parseSchedulerSpec("steal:r0.25:s1");
    std::vector<core::StudyJob> jobs;
    for (const char *name :
         {"fig2-lu-B16@size=small", "fig4-cg-2d@size=small",
          "fig5-fft-radix8@size=small", "app-fft2d@size=small"})
        jobs.push_back(core::figureSuiteJob(name, steal));

    std::string golden;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        core::StudyRunner runner(core::RunnerConfig{workers, nullptr});
        std::vector<core::JobReport> reports = runner.run(jobs);
        for (const auto &rep : reports)
            ASSERT_TRUE(rep.ok) << rep.name << ": " << rep.error;
        std::string json = core::jsonReport(reports);
        if (golden.empty())
            golden = json;
        else
            EXPECT_EQ(json, golden) << "workers=" << workers;
    }
    EXPECT_NE(golden.find("\"scheduler\""), std::string::npos);
    EXPECT_NE(golden.find("work-stealing"), std::string::npos);
}

TEST(ReplayStudies, EveryPolicyStaysRaceFree)
{
    // Migration is restricted to global barriers precisely so that a
    // schedule cannot manufacture a race (see scheduled_sink.hh); pin
    // that per policy with the happens-before checker watching the
    // scheduled stream.
    for (const char *label : {"static", "round-robin", "steal:r0.5:s3"}) {
        core::StudyConfig config;
        config.analyzeRaces = true;
        config.scheduler = parseSchedulerSpec(label);
        core::JobReport rep = core::runJobInline(
            core::figureSuiteJob("fig4-cg-2d@size=small", config));
        ASSERT_TRUE(rep.ok) << label << ": " << rep.error;
        EXPECT_TRUE(rep.result.races.enabled) << label;
        EXPECT_TRUE(rep.result.races.findings.empty())
            << label << ": " << rep.result.races.findings.size()
            << " race(s)";
        EXPECT_GT(rep.result.races.barriers, 0u) << label;
    }
}
