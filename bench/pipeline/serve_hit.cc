/**
 * @file
 * serve-hit: the campaign-rerun and resume path. An in-process
 * serve::Server with a memory-only cache is warmed with the fourteen
 * small-tier presets; then two connections each run a closed loop of
 * study requests drawn from the seeded generator, every one a cache
 * hit. No simulation layer runs after setup, so a sim, memsys or apps
 * change must predict no change here. Two clients plus their two
 * handler threads fit a 4-core host, so no thread waits for a core.
 */

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "core/suite.hh"
#include "pipeline.hh"
#include "replay/splitmix.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "stats/hash.hh"
#include "stats/json_parse.hh"

namespace wsg::pipeline
{

namespace
{

constexpr unsigned kConnections = 2;
/** Requests per connection in one pass. */
constexpr std::uint64_t kPassRequests = 1000;
/** Wall time of one pass on the reference machine (README). */
constexpr double kNominalPassS = 0.12;
/** Requests per connection in each round of a traced run. */
constexpr std::uint64_t kTracedRequests = 10000;
/** Relative to the per-run working directory, which keeps the path
 *  far below the sockaddr_un limit wherever the checkout lives. */
constexpr const char *kSocket = "serve.sock";
/** Width of the windows bestWindow picks from. */
constexpr double kWindowS = 0.5;

/** A client connection, closed on destruction. */
class Connection
{
  public:
    Connection() : fd_(serve::connectUnix(kSocket)) {}
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }

  private:
    int fd_;
};

/** A started server whose cache holds every small-tier preset. */
struct Warmed
{
    std::unique_ptr<serve::Server> server;
    std::vector<std::string> presets;
    /** Expected payload of each preset (digest-checked at setup). */
    std::vector<std::string> payloads;
};

serve::Request
studyRequest(const std::string &preset)
{
    serve::Request req;
    req.op = serve::Op::Study;
    req.preset = preset;
    return req;
}

Warmed
setUp(Outcome &out)
{
    Warmed warmed;
    serve::ServerConfig config;
    config.socketPath = kSocket;
    config.service.cache.dir = ""; // memory only
    // One worker computes the warm-up studies (they arrive one at a
    // time anyway), so the same thread's heap holds their garbage on
    // every run and peak_rss_mib repeats.
    config.service.concurrency = 1;
    warmed.server = std::make_unique<serve::Server>(config);
    warmed.server->start();
    Connection conn;
    for (const std::string &name : core::figureSuiteNames()) {
        std::string preset = name + "@size=small";
        serve::Reply reply =
            serve::roundTrip(conn.fd(), studyRequest(preset));
        std::string err =
            reply.header.status != "ok"
                ? preset + ": warm-up status " + reply.header.status
                : checkPinned(preset, reply.payload);
        out.check(err.empty(), err);
        warmed.presets.push_back(preset);
        warmed.payloads.push_back(reply.payload);
    }
    return warmed;
}

/** What one client thread saw. */
struct ClientLog
{
    std::vector<double> latencies;
    std::vector<double> doneAt;
    /** Preset index of each request (spans name their study). */
    std::vector<std::size_t> presets;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
};

void
runClient(const Warmed &warmed, std::uint64_t seed, unsigned conn_id,
          std::uint64_t requests, ClientLog &log)
{
    try {
        Connection conn;
        replay::SplitMix64 rng(stats::fnv1a64(
            "serve/" + std::to_string(seed) + "/" +
            std::to_string(conn_id)));
        for (std::uint64_t i = 0; i < requests; ++i) {
            std::size_t k = rng.nextBelow(warmed.presets.size());
            serve::Request req = studyRequest(warmed.presets[k]);
            double t0 = nowSeconds();
            serve::Reply reply = serve::roundTrip(conn.fd(), req);
            double t1 = nowSeconds();
            log.latencies.push_back(t1 - t0);
            log.doneAt.push_back(t1);
            log.presets.push_back(k);
            if (reply.header.status != "ok" ||
                reply.header.cache != "hit" ||
                reply.payload != warmed.payloads[k]) {
                ++log.failed;
                if (log.errors.size() < 4)
                    log.errors.push_back(warmed.presets[k] +
                                         ": response is not the cached "
                                         "report (status " +
                                         reply.header.status + ")");
            }
        }
    } catch (const std::exception &e) {
        ++log.failed;
        log.errors.push_back(std::string("client: ") + e.what());
    }
}

/** One closed-loop round: every connection issues @p requests. */
struct Round
{
    std::vector<ClientLog> logs;
    double startS = 0.0;
    double wallS = 0.0;
};

Round
runRound(const Warmed &warmed, std::uint64_t seed, std::uint64_t requests,
         Outcome &out)
{
    Round round;
    round.logs.resize(kConnections);
    round.startS = nowSeconds();
    {
        std::vector<std::jthread> clients;
        for (unsigned c = 0; c < kConnections; ++c)
            clients.emplace_back(runClient, std::cref(warmed), seed, c,
                                 requests, std::ref(round.logs[c]));
    }
    round.wallS = nowSeconds() - round.startS;
    for (const ClientLog &log : round.logs) {
        out.attempted += log.latencies.size();
        out.failed += log.failed;
        for (const std::string &e : log.errors)
            if (out.errors.size() < 16)
                out.errors.push_back(e);
    }
    return round;
}

std::vector<double>
latencies(const Round &round)
{
    std::vector<double> all;
    for (const ClientLog &log : round.logs)
        all.insert(all.end(), log.latencies.begin(), log.latencies.end());
    return all;
}

/** A round's speed: completion rate and median latency. */
struct Speed
{
    double requestsPerS = 0.0;
    double medianLatencyS = 0.0;
};

/**
 * The round's best fixed-width window while every connection was still
 * running: its highest completion rate and lowest median latency. Other
 * tenants of the host slow whole stretches of a run (README, "Noise");
 * the best window is the one they disturbed least. Falls back to the
 * whole round when fewer than three windows fit.
 */
Speed
bestWindow(const Round &round)
{
    double end = std::numeric_limits<double>::infinity();
    for (const ClientLog &log : round.logs)
        end = std::min(end, log.doneAt.empty() ? round.startS
                                               : log.doneAt.back());
    auto windows = static_cast<std::size_t>((end - round.startS) / kWindowS);
    if (windows < 3) {
        std::vector<double> lat = latencies(round);
        return {static_cast<double>(lat.size()) / round.wallS, median(lat)};
    }
    std::vector<std::vector<double>> by_window(windows);
    for (const ClientLog &log : round.logs) {
        for (std::size_t i = 0; i < log.doneAt.size(); ++i) {
            auto w = static_cast<std::size_t>((log.doneAt[i] - round.startS) /
                                              kWindowS);
            if (w < windows)
                by_window[w].push_back(log.latencies[i]);
        }
    }
    Speed best{0.0, std::numeric_limits<double>::infinity()};
    for (const std::vector<double> &lat : by_window) {
        if (lat.empty())
            continue;
        best.requestsPerS = std::max(
            best.requestsPerS, static_cast<double>(lat.size()) / kWindowS);
        best.medianLatencyS = std::min(best.medianLatencyS, median(lat));
    }
    return best;
}

Outcome
measure(const Options &options)
{
    Outcome out;
    std::vector<double> setups;
    Warmed warmed;
    for (int i = 0; i < setupRepeats(options); ++i) {
        // Stop the previous server first: its shutdown unlinks the
        // socket path the next one binds.
        warmed.server.reset();
        double t0 = nowSeconds();
        warmed = setUp(out);
        setups.push_back(nowSeconds() - t0);
    }

    out.passes = passesFor(options, kNominalPassS);
    std::uint64_t requests = out.passes * kPassRequests;
    Round round = runRound(warmed, options.seed, requests, out);
    std::vector<double> lat = latencies(round);
    Speed best = bestWindow(round);
    out.metrics["setup_s"] = median(setups);
    out.metrics["ops_per_s"] = best.requestsPerS;
    out.metrics["op_ms_p50"] = best.medianLatencyS * 1e3;
    out.metrics["peak_rss_mib"] = peakRssMib();
    std::ostringstream note;
    note << "requests " << lat.size() << " over " << kConnections
         << " connections in " << round.wallS
         << " s; whole round: latency_ms_p50 " << median(lat) * 1e3
         << ", latency_ms_p99 " << quantile(lat, 0.99) * 1e3;
    out.notes.push_back(note.str());
    return out;
}

Outcome
traced(const Options &options)
{
    Outcome out;
    Warmed warmed = setUp(out);
    std::uint64_t requests = options.smoke ? kPassRequests : kTracedRequests;
    Round untraced = runRound(warmed, options.seed, requests, out);
    LayerTotals totals;
    Round traced = runRound(warmed, options.seed, requests, out);

    // Round trips are the coarse spans here: one per request, kept
    // individually, named by the preset they asked for.
    for (unsigned c = 0; c < kConnections; ++c) {
        const ClientLog &log = traced.logs[c];
        for (std::size_t i = 0; i < log.latencies.size(); ++i) {
            auto end_ns = static_cast<std::uint64_t>(log.doneAt[i] * 1e9);
            auto start_ns = end_ns - static_cast<std::uint64_t>(
                                         log.latencies[i] * 1e9);
            totals.spans.coarse(warmed.presets[log.presets[i]],
                                "serve.round_trip",
                                "client" + std::to_string(c), start_ns,
                                end_ns);
            totals.clientSpanS += log.latencies[i];
            totals.reportBytes +=
                warmed.payloads[log.presets[i]].size();
        }
    }
    std::vector<double> lat = latencies(traced);
    totals.clientP50Ms = median(lat) * 1e3;
    totals.clientP99Ms = quantile(lat, 0.99) * 1e3;

    Connection conn;
    serve::Request req;
    req.op = serve::Op::Stats;
    stats::JsonValue stats =
        stats::parseJson(serve::roundTrip(conn.fd(), req).payload);
    const stats::JsonValue &outcomes = stats.at("outcomes");
    totals.serviceP50Ms = stats.at("p50_seconds").asNumber() * 1e3;
    totals.serveHits =
        static_cast<std::uint64_t>(outcomes.at("hit").asNumber());
    totals.serveMisses =
        static_cast<std::uint64_t>(outcomes.at("miss").asNumber());
    totals.serveRejections =
        static_cast<std::uint64_t>(outcomes.at("overloaded").asNumber());

    out.passes = 1;
    totals.report(out, kConnections * traced.wallS,
                  kConnections * untraced.wallS);
    if (!options.spansPath.empty())
        totals.spans.write(options.spansPath, options.workload);
    return out;
}

} // namespace

Outcome
runServeHit(const Options &options)
{
    return options.traced ? traced(options) : measure(options);
}

} // namespace wsg::pipeline
