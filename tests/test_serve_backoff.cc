/**
 * @file
 * Tests for the shared typed-overload retry helper (serve/backoff):
 * the deterministic jitter schedule's bounds and reproducibility, and
 * roundTripWithRetry's behaviour against a live server that rejects
 * with backpressure. Sleeps are injected, so the retry tests measure
 * schedule decisions, not wall-clock time.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "serve/backoff.hh"
#include "serve/server.hh"
#include "stats/hash.hh"

using namespace wsg;
using namespace wsg::serve;

namespace
{

/** Pid+test-keyed socket path (parallel-ctest safe). */
std::string
socketPath()
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "wsg_" + std::string(info->name()) +
           "_" + std::to_string(::getpid()) + ".sock";
}

core::StudyJob
syntheticJob(const std::string &name, const core::StudyConfig &)
{
    core::StudyJob job;
    job.name = name;
    job.canonicalConfig = "wsg-test-config-v1\nname=" + name + "\n";
    job.body = []() {
        return core::StudyResult{};
    };
    return job;
}

} // namespace

TEST(ServeBackoff, DelayIsDeterministicPerSeedAndAttempt)
{
    RetryPolicy policy;
    policy.baseBackoffMs = 100;
    policy.maxBackoffMs = 10000;
    for (unsigned attempt = 1; attempt <= 8; ++attempt)
        EXPECT_EQ(backoffDelayMs(policy, attempt, 42),
                  backoffDelayMs(policy, attempt, 42));
    // Distinct seeds must decorrelate: at least one attempt in the
    // schedule gets a different delay.
    bool differs = false;
    for (unsigned attempt = 1; attempt <= 8; ++attempt)
        differs = differs || backoffDelayMs(policy, attempt, 1) !=
                                 backoffDelayMs(policy, attempt, 2);
    EXPECT_TRUE(differs);
}

TEST(ServeBackoff, DelayStaysInsideTheExponentialEnvelope)
{
    RetryPolicy policy;
    policy.baseBackoffMs = 100;
    policy.maxBackoffMs = 1000;
    EXPECT_EQ(backoffDelayMs(policy, 0, 7), 0u);
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        std::uint64_t envelope = policy.baseBackoffMs;
        for (unsigned attempt = 1; attempt <= 10; ++attempt) {
            unsigned delay = backoffDelayMs(policy, attempt, seed);
            EXPECT_GE(delay, envelope / 2)
                << "attempt " << attempt << " seed " << seed;
            EXPECT_LE(delay, envelope)
                << "attempt " << attempt << " seed " << seed;
            envelope = std::min<std::uint64_t>(envelope * 2,
                                               policy.maxBackoffMs);
        }
        // Saturated: the envelope never exceeds the cap.
        EXPECT_LE(backoffDelayMs(policy, 30, seed),
                  policy.maxBackoffMs);
    }
}

TEST(ServeBackoff, SeedKeyIsFnv1aOfTheName)
{
    EXPECT_EQ(retrySeedKey("fig2-lu-B16"),
              stats::fnv1a64("fig2-lu-B16"));
    EXPECT_NE(retrySeedKey("a"), retrySeedKey("b"));
}

TEST(ServeBackoff, RetriesOverloadedUntilExhaustionOnOneConnection)
{
    ServerConfig config;
    config.socketPath = socketPath();
    config.service.cache.dir = "";
    // Zero queue depth: every study admit is rejected as overloaded.
    config.service.maxQueueDepth = 0;
    Server server(config, &syntheticJob);
    server.start();

    Request req;
    req.op = Op::Study;
    req.preset = "anything";
    RetryPolicy policy;
    policy.retries = 3;
    policy.baseBackoffMs = 16;

    std::vector<unsigned> slept;
    RetryOutcome outcome;
    int fd = connectUnix(config.socketPath);
    Reply reply = roundTripWithRetry(
        fd, req, policy, retrySeedKey(req.preset), &outcome,
        [&slept](unsigned ms) { slept.push_back(ms); });
    ::close(fd);

    EXPECT_EQ(reply.header.status, "overloaded");
    EXPECT_EQ(outcome.attempts, 4u); // 1 try + 3 retries
    ASSERT_EQ(slept.size(), 3u);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < slept.size(); ++i) {
        EXPECT_EQ(slept[i], backoffDelayMs(policy,
                                           static_cast<unsigned>(i) + 1,
                                           retrySeedKey(req.preset)));
        total += slept[i];
    }
    EXPECT_EQ(outcome.backoffMs, total);

    server.requestShutdown();
    server.wait();
}

TEST(ServeBackoff, SucceedsWithoutRetryWhenAdmitted)
{
    ServerConfig config;
    config.socketPath = socketPath();
    config.service.cache.dir = "";
    Server server(config, &syntheticJob);
    server.start();

    Request req;
    req.op = Op::Study;
    req.preset = "fine";
    RetryPolicy policy;
    policy.retries = 5;

    bool slept = false;
    RetryOutcome outcome;
    int fd = connectUnix(config.socketPath);
    Reply reply =
        roundTripWithRetry(fd, req, policy, 1, &outcome,
                           [&slept](unsigned) { slept = true; });
    ::close(fd);

    EXPECT_EQ(reply.header.status, "ok");
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_EQ(outcome.backoffMs, 0u);
    EXPECT_FALSE(slept);

    server.requestShutdown();
    server.wait();
}
