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
    req.axis("sample_rate") = "0.25";
    req.analyzeRaces = true;
    req.timeoutSeconds = 30.0;

    std::string line = encodeRequest(req);
    ASSERT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1) << "must be one line";

    Request back = parseRequest(
        std::string_view(line).substr(0, line.size() - 1));
    EXPECT_EQ(back.op, Op::Study);
    EXPECT_EQ(back.preset, "fig5-fft-radix8");
    EXPECT_EQ(back.axis("sample_rate"), "0.25");
    EXPECT_EQ(back.axis("sample_size"), "");
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
    // A wrong JSON type is malformed (the server drops the connection).
    for (const char *key : {"sample_size", "points_per_octave",
                            "timeout_seconds"})
        EXPECT_THROW(parseRequest(std::string(R"({"op":"study",)") +
                                  R"("preset":"x",")" + key +
                                  R"(":"4"})"),
                     ProtocolError)
            << key;
    EXPECT_THROW(parseRequest(R"({"op":"study","preset":"x",)"
                              R"("protocol":4})"),
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
    req.axis("sample_rate") = "0.5";
    req.axis("sample_size") = "128";
    EXPECT_THROW(req.studyConfig(), ProtocolError);

    req.axis("sample_size").clear();
    core::StudyConfig config = req.studyConfig();
    EXPECT_EQ(config.sampling.mode, approx::SamplingMode::FixedRate);
    EXPECT_DOUBLE_EQ(config.sampling.rate, 0.5);
}

TEST(ServeProtocol, MachineAxesRoundTripAndMapToStudyConfig)
{
    Request req;
    req.op = Op::Study;
    req.preset = "x";
    req.axis("protocol") = "mesi";
    req.axis("hierarchy") = "excl:4096:65536";

    Request back = parseRequest(encodeRequest(req));
    EXPECT_EQ(back.axis("protocol"), "mesi");
    EXPECT_EQ(back.axis("hierarchy"), "excl:4096:65536");

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
    EXPECT_TRUE(back.axis("protocol").empty());
    EXPECT_TRUE(back.axis("hierarchy").empty());
    core::StudyConfig config = back.studyConfig();
    EXPECT_EQ(config.protocol, sim::CoherenceProtocol::WriteInvalidate);
    EXPECT_FALSE(config.hierarchy.twoLevel());
}

TEST(ServeProtocol, BadMachineAxesBecomeProtocolErrors)
{
    Request req;
    req.op = Op::Study;
    req.preset = "x";
    req.axis("protocol") = "moesi";
    EXPECT_THROW(req.studyConfig(), ProtocolError);

    req.axis("protocol") = "";
    req.axis("hierarchy") = "incl:65536:4096";
    EXPECT_THROW(req.studyConfig(), ProtocolError);

    // Well-typed values the study rejects are bad requests, caught by
    // studyConfig() (so the server answers on a live connection), with
    // a message naming the wire key.
    auto rejects = [](const std::string &line, const std::string &why) {
        Request bad = parseRequest(line);
        try {
            bad.studyConfig();
            ADD_FAILURE() << line << " was accepted";
        } catch (const ProtocolError &e) {
            EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
                << line << ": " << e.what();
        }
    };
    const std::string study = R"({"op":"study","preset":"x",)";
    rejects(study + R"("sample_size":1e30})",
            "sample_size needs a positive line count, got "
            "'1000000000000000019884624838656'");
    rejects(study + R"("sample_size":2.5})",
            "sample_size needs a positive line count, got '2.5'");
    rejects(study + R"("sample_size":-3})", "sample_size needs");
    rejects(study + R"("sample_size":18446744073709551616})",
            "sample_size needs");
    rejects(study + R"("sample_rate":-0.5})",
            "sample_rate needs a rate in (0, 1], got '-0.5'");
    rejects(study + R"("sample_rate":1.5})", "sample_rate needs");
    rejects(study + R"("sample_rate":0.5,"sample_size":64})",
            "sample_rate and sample_size are mutually exclusive");
    rejects(study + R"("profiler":"aet","sample_rate":0.5})",
            "profiler aet does not compose with sampling");
    rejects(study + R"("points_per_octave":4.7})",
            "points_per_octave must be an integer in [1, 64]");
    rejects(study + R"("points_per_octave":4294967300})",
            "points_per_octave must be an integer in [1, 64]");
    rejects(study + R"("points_per_octave":-2})", "points_per_octave");
    rejects(study + R"("timeout_seconds":-1})",
            "timeout_seconds must be >= 0");
    rejects(study + R"("scheduler":"steal:r2"})", "scheduler: ");

    // The largest exact sizes and zero (= the default) still pass.
    EXPECT_EQ(parseRequest(study + R"("sample_size":9007199254740992})")
                  .studyConfig()
                  .sampling.maxLines,
              9007199254740992u);
    EXPECT_FALSE(parseRequest(study + R"("sample_size":0})")
                     .studyConfig()
                     .sampling.enabled());
}

TEST(ServeProtocol, RoundWireNumbersReachTheStudy)
{
    // A numeric wire value reads back in fixed notation: 100000 is
    // "100000", not "1e+05", which size:N would refuse.
    const std::string study = R"({"op":"study","preset":"x",)";
    for (std::uint64_t n : {100000ull, 1000000ull}) {
        std::string text = std::to_string(n);
        Request req = parseRequest(study + R"("sample_size":)" + text + "}");
        EXPECT_EQ(req.axis("sample_size"), text);
        EXPECT_EQ(req.studyConfig().sampling.maxLines, n);
        // The client side writes the same digits back.
        EXPECT_NE(encodeRequest(req).find("\"sample_size\":" + text + "}"),
                  std::string::npos);
    }
    Request rate = parseRequest(study + R"("sample_rate":1e-05})");
    EXPECT_EQ(rate.axis("sample_rate"), "0.00001");
    EXPECT_DOUBLE_EQ(rate.studyConfig().sampling.rate, 1e-05);
    EXPECT_EQ(wireNumberText(1e6), "1000000");
    EXPECT_EQ(wireNumberText(0.25), "0.25");
    EXPECT_EQ(wireNumberText(-3.0), "-3");
}

TEST(ServeProtocol, EncodeRefusesNonNumberTextInNumericAxes)
{
    // Unquoted non-number text would make the request line malformed
    // JSON, and the daemon would drop the connection.
    Request req;
    req.op = Op::Study;
    req.preset = "x";
    for (const char *bad : {"foo", "1,000", "4096}", "inf", "0x10", "+4"}) {
        req.axis("sample_size") = bad;
        EXPECT_THROW(encodeRequest(req), ProtocolError) << bad;
    }
    req.axis("sample_size") = "4096";
    EXPECT_NE(encodeRequest(req).find(R"("sample_size":4096})"),
              std::string::npos);
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

    // a well-typed value the study rejects -> bad_request naming the
    // wire key, and the connection stays usable
    Request fractional = study;
    fractional.axis("sample_size") = "2.5";
    Reply bad_value = roundTrip(fd, fractional);
    EXPECT_EQ(bad_value.header.status, "bad_request");
    EXPECT_NE(bad_value.header.error.find("sample_size"),
              std::string::npos);
    EXPECT_EQ(roundTrip(fd, ping).header.status, "ok");

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

TEST(ServeProtocol, EncodedBytesWithEveryAxisOffDefault)
{
    // The literal wire bytes of study requests that move every study
    // axis (and the sweep resolution) off its default: key order,
    // number formatting and omission rules are all pinned.
    EXPECT_EQ(
        encodeRequest(parseRequest(
            R"({"op":"study","preset":"fig5-fft-radix8@size=small",)"
            R"("points_per_octave":2,"scheduler":"steal:r0.25:s1",)"
            R"("hierarchy":"incl:4096:65536","protocol":"mesi",)"
            R"("profiler":"aet","sample_size":2048})")),
        R"({"op":"study","preset":"fig5-fft-radix8@size=small",)"
        R"("sample_size":2048,"profiler":"aet","protocol":"mesi",)"
        R"("hierarchy":"incl:4096:65536","scheduler":"steal:r0.25:s1",)"
        R"("points_per_octave":2})"
        "\n");
    EXPECT_EQ(
        encodeRequest(parseRequest(
            R"({"op":"study","preset":"fig2-lu-B16","protocol":"mi",)"
            R"("sample_rate":0.125,"hierarchy":"excl:1024:8192",)"
            R"("scheduler":"round-robin","profiler":"tree-mattson"})")),
        R"({"op":"study","preset":"fig2-lu-B16","sample_rate":0.125,)"
        R"("profiler":"tree-mattson","protocol":"mi",)"
        R"("hierarchy":"excl:1024:8192","scheduler":"round-robin"})"
        "\n");
}
