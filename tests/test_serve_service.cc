/**
 * @file
 * StudyService behaviour tests, driven through a synthetic job factory
 * so coalescing and backpressure are exercised deterministically:
 * blocking jobs park on a latch the test releases, so "N concurrent
 * identical requests" is a controlled state, not a race.
 */

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/study_runner.hh"
#include "serve/study_service.hh"
#include "stats/hash.hh"
#include "stats/json_parse.hh"

using namespace wsg;
using namespace wsg::serve;

namespace
{

/** Manually-released gate study bodies can park on. */
struct Gate
{
    std::mutex m;
    std::condition_variable cv;
    bool open = false;

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            open = true;
        }
        cv.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this] { return open; });
    }
};

/**
 * Factory serving three synthetic presets:
 *   "fast"  — returns immediately
 *   "slow"  — parks on the gate until the test releases it
 *   "boom"  — throws (a failed study)
 * Unknown names throw invalid_argument, like the suite factory.
 */
struct SyntheticFactory
{
    std::shared_ptr<Gate> gate = std::make_shared<Gate>();
    std::shared_ptr<std::atomic<int>> bodyRuns =
        std::make_shared<std::atomic<int>>(0);

    core::StudyJob
    operator()(const std::string &name, const core::StudyConfig &) const
    {
        if (name != "fast" && name != "slow" && name != "boom")
            throw std::invalid_argument("unknown preset: " + name);
        core::StudyJob job;
        job.name = name;
        job.canonicalConfig = "wsg-test-config-v1\nname=" + name + "\n";
        auto gate = this->gate;
        auto runs = this->bodyRuns;
        job.body = [name, gate,
                    runs]() -> core::StudyResult {
            runs->fetch_add(1);
            if (name == "slow")
                gate->wait();
            if (name == "boom")
                throw std::runtime_error("synthetic failure");
            return core::StudyResult{};
        };
        return job;
    }
};

ServiceConfig
memoryOnlyConfig(std::size_t maxQueueDepth = 16, unsigned workers = 2)
{
    ServiceConfig config;
    config.cache.dir = "";
    config.concurrency = workers;
    config.maxQueueDepth = maxQueueDepth;
    return config;
}

} // namespace

TEST(ServeService, MissThenHitWithoutRecompute)
{
    SyntheticFactory factory;
    StudyService service(memoryOnlyConfig(), factory);

    Response first = service.submit("fast");
    ASSERT_EQ(first.status, Status::Ok);
    EXPECT_EQ(first.outcome, Outcome::Computed);
    EXPECT_EQ(first.hash,
              stats::fnv1a64Hex("wsg-test-config-v1\nname=fast\n"));
    EXPECT_FALSE(first.payload.empty());
    EXPECT_EQ(factory.bodyRuns->load(), 1);

    Response second = service.submit("fast");
    ASSERT_EQ(second.status, Status::Ok);
    EXPECT_EQ(second.outcome, Outcome::MemoryHit);
    EXPECT_EQ(second.payload, first.payload);
    EXPECT_EQ(factory.bodyRuns->load(), 1) << "hit must not recompute";
}

TEST(ServeService, ConcurrentIdenticalRequestsRunOnce)
{
    constexpr int kClients = 8;
    SyntheticFactory factory;
    StudyService service(memoryOnlyConfig(), factory);

    std::vector<std::thread> clients;
    std::vector<Response> responses(kClients);
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&service, &responses, i] {
            responses[static_cast<std::size_t>(i)] =
                service.submit("slow");
        });

    // Wait until the single computation is actually running, then let
    // every client pile onto the flight before releasing it.
    while (factory.bodyRuns->load() == 0)
        std::this_thread::yield();
    while (service.stats().coalescedJoins <
           static_cast<std::uint64_t>(kClients - 1))
        std::this_thread::yield();
    factory.gate->release();
    for (std::thread &t : clients)
        t.join();

    int computed = 0, joined = 0;
    for (const Response &r : responses) {
        ASSERT_EQ(r.status, Status::Ok);
        computed += r.outcome == Outcome::Computed;
        joined += r.outcome == Outcome::Join;
        EXPECT_EQ(r.payload, responses[0].payload);
    }
    EXPECT_EQ(factory.bodyRuns->load(), 1)
        << "the study must run exactly once";
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(joined, kClients - 1);
    EXPECT_EQ(service.stats().coalescedJoins,
              static_cast<std::uint64_t>(kClients - 1));
}

TEST(ServeService, RejectsBeyondQueueDepth)
{
    SyntheticFactory factory;
    StudyService service(memoryOnlyConfig(/*maxQueueDepth=*/1), factory);

    std::thread blocked([&service] {
        Response r = service.submit("slow");
        EXPECT_EQ(r.status, Status::Ok);
    });
    while (factory.bodyRuns->load() == 0)
        std::this_thread::yield();

    // The lone queue slot is held by "slow"; a distinct config must be
    // rejected, not queued.
    Response busy = service.submit("fast");
    EXPECT_EQ(busy.status, Status::Overloaded);
    EXPECT_EQ(service.stats().rejections, 1u);
    EXPECT_EQ(factory.bodyRuns->load(), 1);

    // A request for the *same* config still joins (no new work).
    std::thread joiner([&service] {
        Response r = service.submit("slow");
        EXPECT_EQ(r.status, Status::Ok);
        EXPECT_EQ(r.outcome, Outcome::Join);
    });
    while (service.stats().coalescedJoins == 0)
        std::this_thread::yield();

    factory.gate->release();
    blocked.join();
    joiner.join();

    // With the flight drained, capacity is available again.
    EXPECT_EQ(service.submit("fast").status, Status::Ok);
}

TEST(ServeService, FailuresPropagateAndAreNotCached)
{
    SyntheticFactory factory;
    StudyService service(memoryOnlyConfig(), factory);

    Response first = service.submit("boom");
    EXPECT_EQ(first.status, Status::Failed);
    EXPECT_EQ(first.error, "synthetic failure");
    EXPECT_TRUE(first.payload.empty());

    Response second = service.submit("boom");
    EXPECT_EQ(second.status, Status::Failed);
    EXPECT_EQ(factory.bodyRuns->load(), 2)
        << "failures must not be cached";
    EXPECT_EQ(service.stats().failures, 2u);
}

TEST(ServeService, UnknownPresetIsBadRequest)
{
    SyntheticFactory factory;
    StudyService service(memoryOnlyConfig(), factory);
    Response r = service.submit("nope");
    EXPECT_EQ(r.status, Status::BadRequest);
    EXPECT_NE(r.error.find("nope"), std::string::npos);
    EXPECT_EQ(service.stats().badRequests, 1u);
}

TEST(ServeService, StatsJsonIsWellFormed)
{
    SyntheticFactory factory;
    StudyService service(memoryOnlyConfig(), factory);
    ASSERT_EQ(service.submit("fast").status, Status::Ok);
    ASSERT_EQ(service.submit("fast").status, Status::Ok);

    stats::JsonValue stats = stats::parseJson(service.statsJson());
    EXPECT_EQ(stats.at("schema").asString(), "wsg-serve-stats-v1");
    EXPECT_DOUBLE_EQ(stats.at("requests").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(stats.at("mem_hits").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(stats.at("misses").asNumber(), 1.0);
    EXPECT_GE(stats.at("p95_seconds").asNumber(),
              stats.at("p50_seconds").asNumber());
    EXPECT_GT(stats.at("bytes_cached").asNumber(), 0.0);
}

TEST(ServeService, HitRatioTracksCumulativeServing)
{
    SyntheticFactory factory;
    StudyService service(memoryOnlyConfig(), factory);

    // Before any lookup the ratio is defined as 0, not NaN.
    EXPECT_DOUBLE_EQ(service.stats().hitRatio(), 0.0);

    ASSERT_EQ(service.submit("fast").status, Status::Ok); // miss
    EXPECT_DOUBLE_EQ(service.stats().hitRatio(), 0.0);

    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(service.submit("fast").status, Status::Ok); // hits
    ServiceStats s = service.stats();
    EXPECT_EQ(s.hits(), 3u);
    EXPECT_DOUBLE_EQ(s.hitRatio(), 0.75);

    stats::JsonValue json = stats::parseJson(service.statsJson());
    EXPECT_DOUBLE_EQ(json.at("hit_ratio").asNumber(), 0.75);
}

TEST(ServeService, OutcomeCountersPartitionEveryRequestClass)
{
    SyntheticFactory factory;
    StudyService service(memoryOnlyConfig(), factory);

    ASSERT_EQ(service.submit("fast").status, Status::Ok);   // miss
    ASSERT_EQ(service.submit("fast").status, Status::Ok);   // hit
    ASSERT_EQ(service.submit("boom").status, Status::Failed);
    ASSERT_EQ(service.submit("nope").status, Status::BadRequest);

    stats::JsonValue json = stats::parseJson(service.statsJson());
    const stats::JsonValue &outcomes = json.at("outcomes");
    EXPECT_DOUBLE_EQ(outcomes.at("hit").asNumber(), 1.0);
    // Both the computed study and the failed one left the admit path
    // as cache misses; "miss" counts only the successful computation.
    EXPECT_DOUBLE_EQ(outcomes.at("miss").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(outcomes.at("join").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(outcomes.at("timeout").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(outcomes.at("overloaded").asNumber(), 0.0);
    // failures (1, non-timeout) + bad requests (1).
    EXPECT_DOUBLE_EQ(outcomes.at("error").asNumber(), 2.0);
}
