/**
 * @file
 * Load generator for the wsg-served study daemon: measures cache hit
 * rate, client-observed p50/p95 latency, and request coalescing at
 * 1, 8 and 32 concurrent clients over the 14-study figure suite.
 *
 * For each client level the bench hosts a fresh in-process Server
 * (memory-only cache, so levels don't warm each other) and spawns K
 * client threads, each holding its own socket connection. Every client
 * walks the suite presets twice in the same order, so the first pass
 * exercises cold-start behaviour — one client computes each study and
 * the K-1 others coalesce onto the in-flight computation — and the
 * second pass is served entirely from cache. Latencies are measured
 * client-side around each round trip; coalescing counts come from the
 * daemon's /stats.
 *
 * The studies themselves are scaled down (--sample-size below) so the
 * bench measures *serving* behaviour, not simulation throughput; pass
 * --exact to serve the full unsampled studies instead.
 *
 * Flags:
 *   --clients K      run only this client count (repeatable;
 *                    default 1, 8, 32)
 *   --exact          no sampling: serve the full figure studies
 *   --sample-size N  fixed-size sampling budget (default 4096 lines)
 *
 * The closing table is quoted by EXPERIMENTS.md ("Serving the suite").
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "approx/sampling.hh"
#include "bench_util.hh"
#include "core/suite.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "stats/table.hh"
#include "stats/units.hh"

using namespace wsg;

namespace
{

struct LevelResult
{
    unsigned clients = 0;
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;
    std::uint64_t joins = 0;
    std::uint64_t computes = 0;
    std::uint64_t rejections = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double wall = 0.0;
};

double
percentile(std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

LevelResult
runLevel(unsigned clients, const serve::Request &base,
         unsigned passes)
{
    std::string socket = "/tmp/wsg_serve_load_" +
                         std::to_string(::getpid()) + "_" +
                         std::to_string(clients) + ".sock";
    serve::ServerConfig config;
    config.socketPath = socket;
    config.service.cache.dir = ""; // memory-only: no cross-level warmup
    config.service.maxQueueDepth = 64;
    serve::Server server(config);
    server.start();

    std::vector<std::string> presets = core::figureSuiteNames();
    std::mutex mutex;
    std::vector<double> latencies;
    LevelResult level;
    level.clients = clients;

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            int fd = serve::connectUnix(socket);
            std::vector<double> mine;
            std::uint64_t hits = 0, joins = 0, computes = 0,
                          rejections = 0;
            for (unsigned pass = 0; pass < passes; ++pass) {
                for (const std::string &preset : presets) {
                    serve::Request req = base;
                    req.op = serve::Op::Study;
                    req.preset = preset;
                    auto s0 = std::chrono::steady_clock::now();
                    serve::Reply reply = serve::roundTrip(fd, req);
                    mine.push_back(
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - s0)
                            .count());
                    if (reply.header.status == "overloaded")
                        ++rejections;
                    else if (reply.header.cache == "hit")
                        ++hits;
                    else if (reply.header.cache == "join")
                        ++joins;
                    else
                        ++computes;
                }
            }
            ::close(fd);
            std::lock_guard<std::mutex> lock(mutex);
            latencies.insert(latencies.end(), mine.begin(), mine.end());
            level.hits += hits;
            level.joins += joins;
            level.computes += computes;
            level.rejections += rejections;
        });
    }
    for (std::thread &t : threads)
        t.join();
    level.wall = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    level.requests = latencies.size();
    std::sort(latencies.begin(), latencies.end());
    level.p50 = percentile(latencies, 0.50);
    level.p95 = percentile(latencies, 0.95);

    server.requestShutdown();
    server.wait();
    return level;
}

std::string
formatMs(double seconds)
{
    std::ostringstream os;
    os.precision(3);
    os << seconds * 1e3 << " ms";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<unsigned> levels;
    serve::Request base;
    base.axis("sample_size") = "4096";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--clients" && i + 1 < argc) {
            levels.push_back(
                static_cast<unsigned>(std::stoul(argv[++i])));
        } else if (arg == "--exact") {
            base.axis("sample_size").clear();
        } else if (arg == "--sample-size" && i + 1 < argc) {
            // Checked as a size:N label and sent as canonical digits
            // ("007" goes out as the JSON number 7).
            try {
                base.axis("sample_size") =
                    std::to_string(approx::parseSamplingLabel(
                                       std::string("size:") + argv[++i])
                                       .maxLines);
            } catch (const std::invalid_argument &e) {
                std::cerr << "error: --sample-size: " << e.what() << "\n";
                return 2;
            }
        } else {
            std::cerr << "error: unknown argument '" << arg
                      << "' (flags: --clients K, --exact, "
                         "--sample-size N)\n";
            return 2;
        }
    }
    if (levels.empty())
        levels = {1, 8, 32};

    bench::banner("the serving layer (wsg-served)",
                  "cache hit rate, latency and coalescing under "
                  "concurrent clients");
    std::cout << "two passes over the " << core::figureSuiteNames().size()
              << "-study suite per client; fresh daemon per level\n\n";

    std::vector<LevelResult> results;
    for (unsigned clients : levels) {
        std::cout << "level: " << clients << " client(s)..."
                  << std::flush;
        results.push_back(runLevel(clients, base, 2));
        std::cout << " done in " << results.back().wall << " s\n";
    }
    std::cout << "\n";

    stats::Table tab("serving the suite under load");
    tab.header({"clients", "requests", "hit rate", "coalesced",
                "computed", "rejected", "p50", "p95"});
    for (const LevelResult &r : results) {
        double hit_rate =
            r.requests ? static_cast<double>(r.hits) /
                             static_cast<double>(r.requests)
                       : 0.0;
        tab.addRow({std::to_string(r.clients),
                    std::to_string(r.requests),
                    stats::formatCount(hit_rate * 100.0) + " %",
                    std::to_string(r.joins), std::to_string(r.computes),
                    std::to_string(r.rejections), formatMs(r.p50),
                    formatMs(r.p95)});
    }
    std::cout << tab.render();

    bool sane = true;
    for (const LevelResult &r : results) {
        // Pass 2 is all hits, so the hit count is at least half the
        // answered requests; every compute ran exactly once per preset.
        sane = sane && r.computes == core::figureSuiteNames().size();
        sane = sane && r.hits + r.joins + r.computes + r.rejections ==
                           r.requests;
    }
    std::cout << "\n"
              << (sane ? "load profile consistent"
                       : "UNEXPECTED load profile")
              << " (each study computed exactly once per level)\n";
    return sane ? 0 : 1;
}
