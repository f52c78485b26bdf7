/**
 * @file
 * wsg-submit — client CLI for the wsg-served study daemon.
 *
 * Submit a figure-suite preset and print the study's report JSON
 * (byte-identical to the figure bench's --json artifact), or drive the
 * daemon's control operations.
 *
 * Usage:
 *   wsg-submit --socket PATH PRESET [--out FILE] [--expect hit|miss]
 *              [--sample-rate R | --sample-size N] [--analyze-races]
 *              [--timeout S] [--profiler KIND] [--protocol NAME]
 *              [--hierarchy SPEC] [--scheduler LABEL]
 *              [--points-per-octave N]
 *              [--retries N] [--backoff-ms MS]
 *   wsg-submit --socket PATH --stats | --ping | --shutdown
 *
 * The report (or stats JSON) goes to stdout, or --out FILE; the
 * response disposition ("cache hit (memory)", "computed", …) goes to
 * stderr. --expect asserts the cache disposition, for smoke tests.
 * PRESET may carry a variant suffix ("fig2-lu-B16@size=small@line=32",
 * see core/suite).
 *
 * A typed "overloaded" rejection is retried up to --retries times with
 * jittered exponential backoff starting at --backoff-ms (default: no
 * retries, the historical give-up-at-once behaviour). The backoff
 * schedule is shared with the campaign driver (serve/backoff.hh).
 *
 * Exit codes: 0 success (and --expect satisfied); 1 study failed, bad
 * request, daemon shutting down, or --expect mismatch; 2 usage error;
 * 3 rejected as overloaded after all retries.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

#include "serve/backoff.hh"
#include "serve/protocol.hh"

using namespace wsg;

namespace
{

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr
        << "error: " << error
        << "\nusage: wsg-submit --socket PATH PRESET [--out FILE]"
           " [--expect hit|miss]\n"
           "                  [--sample-rate R | --sample-size N]"
           " [--analyze-races] [--timeout S]\n"
           "                  [--profiler KIND] [--protocol NAME]"
           " [--hierarchy SPEC]\n"
           "                  [--scheduler LABEL]"
           " [--points-per-octave N]"
           " [--retries N] [--backoff-ms MS]\n"
           "       wsg-submit --socket PATH --stats|--ping|--shutdown\n";
    std::exit(2);
}

struct Cli
{
    std::string socket;
    std::string preset;
    std::string out;
    std::string expect;
    serve::Op op = serve::Op::Study;
    serve::Request req;
    serve::RetryPolicy retry;
};

double
parsePositive(const std::string &flag, const std::string &value)
{
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(value, &pos);
    } catch (const std::exception &) {
        usage(flag + " needs a positive number");
    }
    if (pos != value.size() || v <= 0.0)
        usage(flag + " needs a positive number");
    return v;
}

Cli
parseCli(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                usage(std::string(flag) + " needs a value");
            return argv[++i];
        };
        // The axis flags that have a wire key set the request's axes.
        std::size_t k = 0;
        while (k < core::kWireInputCount && arg != core::kAxisInputs[k].flag)
            ++k;
        if (arg == "--socket") {
            cli.socket = next("--socket");
        } else if (arg == "--out") {
            cli.out = next("--out");
        } else if (arg == "--expect") {
            cli.expect = next("--expect");
            if (cli.expect != "hit" && cli.expect != "miss")
                usage("--expect takes 'hit' or 'miss'");
        } else if (arg == "--stats") {
            cli.op = serve::Op::Stats;
        } else if (arg == "--ping") {
            cli.op = serve::Op::Ping;
        } else if (arg == "--shutdown") {
            cli.op = serve::Op::Shutdown;
        } else if (arg == "--analyze-races") {
            cli.req.analyzeRaces = true;
        } else if (arg == "--timeout") {
            cli.req.timeoutSeconds =
                parsePositive(arg, next("--timeout"));
        } else if (arg == "--points-per-octave") {
            cli.req.pointsPerOctave =
                std::floor(parsePositive(arg, next("--points-per-octave")));
        } else if (arg == "--retries") {
            std::string v = next("--retries");
            std::size_t pos = 0;
            unsigned long n = 0;
            try {
                n = std::stoul(v, &pos);
            } catch (const std::exception &) {
                pos = 0;
            }
            if (pos != v.size())
                usage("--retries needs a non-negative integer");
            cli.retry.retries = static_cast<unsigned>(n);
        } else if (arg == "--backoff-ms") {
            cli.retry.baseBackoffMs = static_cast<unsigned>(
                parsePositive(arg, next("--backoff-ms")));
        } else if (k < core::kWireInputCount) {
            std::string &value = cli.req.axes[k];
            value = next(arg.c_str());
            if (core::kAxisInputs[k].numeric)
                value = serve::wireNumberText(parsePositive(arg, value));
        } else if (!arg.empty() && arg[0] == '-') {
            usage("unknown argument '" + arg + "'");
        } else if (cli.preset.empty()) {
            cli.preset = arg;
        } else {
            usage("more than one preset given");
        }
    }
    if (cli.socket.empty())
        usage("--socket is required");
    if (cli.op == serve::Op::Study && cli.preset.empty())
        usage("preset name (or --stats/--ping/--shutdown) required");
    if (cli.op != serve::Op::Study && !cli.preset.empty())
        usage("preset and control ops are mutually exclusive");
    cli.req.op = cli.op;
    cli.req.preset = cli.preset;
    return cli;
}

/** Human-readable disposition for stderr. */
std::string
disposition(const serve::ResponseHeader &header)
{
    if (header.cache == "hit")
        return "cache hit (" + header.tier + ")";
    if (header.cache == "join")
        return "coalesced join";
    if (header.cache == "miss")
        return "computed";
    return header.status;
}

void
emitPayload(const Cli &cli, const std::string &payload)
{
    if (cli.out.empty()) {
        std::cout << payload;
        return;
    }
    std::ofstream out(cli.out, std::ios::binary | std::ios::trunc);
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    if (!out.good()) {
        std::cerr << "error: cannot write " << cli.out << "\n";
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli = parseCli(argc, argv);
    int fd = -1;
    serve::Reply reply;
    serve::RetryOutcome retried;
    try {
        fd = serve::connectUnix(cli.socket);
        reply = serve::roundTripWithRetry(
            fd, cli.req, cli.retry,
            serve::retrySeedKey(cli.preset), &retried);
    } catch (const serve::ProtocolError &e) {
        if (fd >= 0)
            ::close(fd);
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    ::close(fd);

    const serve::ResponseHeader &header = reply.header;
    if (header.status == "overloaded") {
        std::cerr << "overloaded after " << retried.attempts
                  << " attempt(s): " << header.error << "\n";
        return 3;
    }
    if (retried.attempts > 1) {
        std::cerr << "admitted after " << retried.attempts
                  << " attempts (" << retried.backoffMs
                  << " ms of backoff)\n";
    }
    if (header.status != "ok") {
        std::cerr << header.status << ": " << header.error << "\n";
        return 1;
    }

    if (cli.op == serve::Op::Study) {
        std::cerr << disposition(header) << " hash=" << header.hash
                  << " (" << reply.payload.size() << " bytes)\n";
        emitPayload(cli, reply.payload);
        if (!cli.expect.empty()) {
            bool hit = header.cache == "hit";
            bool want_hit = cli.expect == "hit";
            if (hit != want_hit) {
                std::cerr << "error: expected cache " << cli.expect
                          << ", got '" << header.cache << "'\n";
                return 1;
            }
        }
    } else if (cli.op == serve::Op::Stats) {
        emitPayload(cli, reply.payload);
    } else if (cli.op == serve::Op::Ping) {
        std::cerr << "pong\n";
    } else {
        std::cerr << "shutdown acknowledged\n";
    }
    return 0;
}
