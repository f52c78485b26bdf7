/**
 * @file
 * Wire-protocol tests: request/response codec round trips, malformed
 * input rejection, and a full client/server exchange over a real
 * Unix-domain socket (with a synthetic job factory, so the end-to-end
 * test runs in milliseconds).
 */

#include <stdexcept>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/study_runner.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "stats/json_parse.hh"

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
    if (name != "tiny")
        throw std::invalid_argument("unknown preset: " + name);
    core::StudyJob job;
    job.name = name;
    job.canonicalConfig = "wsg-test-config-v1\nname=tiny\n";
    job.body = []() {
        return core::StudyResult{};
    };
    return job;
}

} // namespace

TEST(ServeProtocol, RequestRoundTrip)
{
    Request req;
    req.op = Op::Study;
    req.preset = "fig5-fft-radix8";
    req.sampleRate = 0.25;
    req.analyzeRaces = true;
    req.timeoutSeconds = 30.0;

    std::string line = encodeRequest(req);
    ASSERT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1) << "must be one line";

    Request back = parseRequest(
        std::string_view(line).substr(0, line.size() - 1));
    EXPECT_EQ(back.op, Op::Study);
    EXPECT_EQ(back.preset, "fig5-fft-radix8");
    EXPECT_DOUBLE_EQ(back.sampleRate, 0.25);
    EXPECT_EQ(back.sampleSize, 0u);
    EXPECT_TRUE(back.analyzeRaces);
    EXPECT_DOUBLE_EQ(back.timeoutSeconds, 30.0);
}

TEST(ServeProtocol, ControlOpsRoundTrip)
{
    for (Op op : {Op::Stats, Op::Ping, Op::Shutdown}) {
        Request req;
        req.op = op;
        Request back = parseRequest(encodeRequest(req));
        EXPECT_EQ(back.op, op);
    }
}

TEST(ServeProtocol, MalformedRequestsThrow)
{
    EXPECT_THROW(parseRequest("not json"), ProtocolError);
    EXPECT_THROW(parseRequest("[]"), ProtocolError);
    EXPECT_THROW(parseRequest("{\"op\":\"launch\"}"), ProtocolError);
    EXPECT_THROW(parseRequest("{\"op\":\"study\"}"), ProtocolError)
        << "study without preset";
    EXPECT_THROW(
        parseRequest("{\"op\":\"study\",\"preset\":\"x\","
                     "\"sample_rate\":\"fast\"}"),
        ProtocolError);
    // The removed list-Mattson construction is an unknown kind.
    EXPECT_THROW(parseRequest("{\"op\":\"study\",\"preset\":\"x\","
                              "\"profiler\":\"list-mattson\"}")
                     .studyConfig(),
                 ProtocolError);
}

TEST(ServeProtocol, RequestConfigRejectsConflictingSampling)
{
    Request req;
    req.op = Op::Study;
    req.preset = "x";
    req.sampleRate = 0.5;
    req.sampleSize = 128;
    EXPECT_THROW(req.studyConfig(), ProtocolError);

    req.sampleSize = 0;
    core::StudyConfig config = req.studyConfig();
    EXPECT_EQ(config.sampling.mode, approx::SamplingMode::FixedRate);
    EXPECT_DOUBLE_EQ(config.sampling.rate, 0.5);
}

TEST(ServeProtocol, MachineAxesRoundTripAndMapToStudyConfig)
{
    Request req;
    req.op = Op::Study;
    req.preset = "x";
    req.protocol = "mesi";
    req.hierarchy = "excl:4096:65536";

    Request back = parseRequest(encodeRequest(req));
    EXPECT_EQ(back.protocol, "mesi");
    EXPECT_EQ(back.hierarchy, "excl:4096:65536");

    core::StudyConfig config = back.studyConfig();
    EXPECT_EQ(config.protocol, sim::CoherenceProtocol::Mesi);
    EXPECT_EQ(config.hierarchy.kind,
              memsys::HierarchyKind::TwoLevelExclusive);
    EXPECT_EQ(config.hierarchy.l1Bytes, 4096u);
    EXPECT_EQ(config.hierarchy.l2Bytes, 65536u);
}

TEST(ServeProtocol, DefaultMachineAxesStayOffTheWire)
{
    // "" axes must not appear in the encoded request, so pre-axes
    // clients and servers keep exchanging byte-identical lines (and
    // the daemon's content-addressed cache keys are stable).
    Request req;
    req.op = Op::Study;
    req.preset = "x";
    std::string line = encodeRequest(req);
    EXPECT_EQ(line.find("protocol"), std::string::npos);
    EXPECT_EQ(line.find("hierarchy"), std::string::npos);

    Request back = parseRequest(line);
    EXPECT_TRUE(back.protocol.empty());
    EXPECT_TRUE(back.hierarchy.empty());
    core::StudyConfig config = back.studyConfig();
    EXPECT_EQ(config.protocol, sim::CoherenceProtocol::WriteInvalidate);
    EXPECT_FALSE(config.hierarchy.twoLevel());
}

TEST(ServeProtocol, BadMachineAxesBecomeProtocolErrors)
{
    Request req;
    req.op = Op::Study;
    req.preset = "x";
    req.protocol = "moesi";
    EXPECT_THROW(req.studyConfig(), ProtocolError);

    req.protocol = "";
    req.hierarchy = "incl:65536:4096";
    EXPECT_THROW(req.studyConfig(), ProtocolError);
}

TEST(ServeProtocol, ResponseHeaderRoundTrip)
{
    ResponseHeader header;
    header.status = "ok";
    header.cache = "hit";
    header.tier = "disk";
    header.hash = "0123456789abcdef";
    header.payloadBytes = 4242;

    std::string line = encodeResponseHeader(header);
    ASSERT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1);

    ResponseHeader back = parseResponseHeader(
        std::string_view(line).substr(0, line.size() - 1));
    EXPECT_EQ(back.status, "ok");
    EXPECT_EQ(back.cache, "hit");
    EXPECT_EQ(back.tier, "disk");
    EXPECT_EQ(back.hash, "0123456789abcdef");
    EXPECT_FALSE(back.timedOut);
    EXPECT_EQ(back.payloadBytes, 4242u);
}

TEST(ServeProtocol, StudyResponseHeaderMapsOutcomes)
{
    Response res;
    res.status = Status::Ok;
    res.outcome = Outcome::Join;
    res.hash = "ffff000011112222";
    res.payload = "{}\n";
    ResponseHeader header = studyResponseHeader(res);
    EXPECT_EQ(header.status, "ok");
    EXPECT_EQ(header.cache, "join");
    EXPECT_EQ(header.tier, "");
    EXPECT_EQ(header.payloadBytes, 3u);

    res.status = Status::Overloaded;
    res.error = "queue full";
    header = studyResponseHeader(res);
    EXPECT_EQ(header.status, "overloaded");
    EXPECT_EQ(header.cache, "");
    EXPECT_EQ(header.payloadBytes, 0u)
        << "non-ok responses carry no payload";
}

TEST(ServeProtocol, EndToEndOverUnixSocket)
{
    ServerConfig config;
    config.socketPath = socketPath();
    config.service.cache.dir = "";
    config.service.concurrency = 1;
    Server server(config, &syntheticJob);
    server.start();

    int fd = connectUnix(config.socketPath);

    // ping
    Request ping;
    ping.op = Op::Ping;
    Reply reply = roundTrip(fd, ping);
    EXPECT_EQ(reply.header.status, "ok");
    EXPECT_TRUE(reply.payload.empty());

    // study: miss, then memory hit, byte-identical payloads
    Request study;
    study.op = Op::Study;
    study.preset = "tiny";
    Reply first = roundTrip(fd, study);
    ASSERT_EQ(first.header.status, "ok");
    EXPECT_EQ(first.header.cache, "miss");
    EXPECT_EQ(first.payload.size(), first.header.payloadBytes);
    EXPECT_FALSE(first.payload.empty());

    Reply second = roundTrip(fd, study);
    ASSERT_EQ(second.header.status, "ok");
    EXPECT_EQ(second.header.cache, "hit");
    EXPECT_EQ(second.header.tier, "memory");
    EXPECT_EQ(second.payload, first.payload);

    // unknown preset -> bad_request, connection stays usable
    Request bad;
    bad.op = Op::Study;
    bad.preset = "nope";
    Reply rejected = roundTrip(fd, bad);
    EXPECT_EQ(rejected.header.status, "bad_request");
    EXPECT_EQ(roundTrip(fd, ping).header.status, "ok");

    // stats payload parses and reflects the exchange
    Request stats;
    stats.op = Op::Stats;
    Reply statsReply = roundTrip(fd, stats);
    ASSERT_EQ(statsReply.header.status, "ok");
    wsg::stats::JsonValue parsed =
        wsg::stats::parseJson(statsReply.payload);
    EXPECT_EQ(parsed.at("schema").asString(), "wsg-serve-stats-v1");
    EXPECT_DOUBLE_EQ(parsed.at("mem_hits").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(parsed.at("misses").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(parsed.at("bad_requests").asNumber(), 1.0);

    // shutdown drains the server; wait() returns
    Request shutdown;
    shutdown.op = Op::Shutdown;
    EXPECT_EQ(roundTrip(fd, shutdown).header.status, "ok");
    ::close(fd);
    server.wait();
}

TEST(ServeProtocol, ConnectToMissingSocketThrows)
{
    EXPECT_THROW(connectUnix(socketPath() + ".absent"), ProtocolError);
}
