/**
 * @file
 * wsg_bench — the pipeline benchmark (see README.md beside this file).
 *
 *   wsg_bench [--workload NAME] [--seed N] [--seconds S]
 *             [--trace 0|1 | --traced] [--smoke]
 *
 * Without --workload every workload runs in turn. Each workload runs in
 * its own child process, so peak_rss_mib is that workload's alone, with
 * a private working directory (.../tmp/<child pid> beside the binary)
 * for its socket and trace files that the parent removes when the child
 * has exited. A workload prints "<workload> <metric> <value> <unit>"
 * lines, then a run record ({"run": {seed, passes, nproc, ...}}), then
 * one result line {"correct", "attempted", "failed", "metrics"}. The
 * exit status is non-zero when any output or count check failed.
 *
 * --trace 1 (--traced) reports the per-layer metrics instead of the
 * end-to-end ones and writes the run's spans to spans-<workload>.json
 * beside the binary. --smoke runs every workload once untraced and once
 * traced on small inputs: the ctest entry.
 */

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <type_traits>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "pipeline.hh"
#include "stats/json_report.hh"

using namespace wsg;
using namespace wsg::pipeline;
namespace fs = std::filesystem;

namespace
{

struct Workload
{
    const char *name;
    Outcome (*run)(const Options &);
};

constexpr Workload kWorkloads[] = {
    {"figures-base", runFiguresBase},
    {"footprint-large", runFootprintLarge},
    {"replay-steal", runReplaySteal},
    {"serve-hit", runServeHit},
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "error: " << error
              << "\nusage: wsg_bench [--workload NAME] [--seed N] "
                 "[--seconds S] [--trace 0|1 | --traced] [--smoke]\n"
                 "workloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    try {
        std::size_t pos = 0;
        T value{};
        if constexpr (std::is_same_v<T, double>)
            value = std::stod(text, &pos);
        else
            value = std::stoull(text, &pos);
        if (pos == text.size())
            return value;
    } catch (const std::exception &) {
    }
    usage(flag + " expects a number, got '" + text + "'");
}

/** Print @p out in the formats of the file comment; returns the exit
 *  status. */
int
printOutcome(const Workload &workload, const Options &options,
             const Outcome &out)
{
    std::ostream &os = std::cout;
    for (const std::string &note : out.notes)
        os << workload.name << " # " << note << "\n";
    for (const std::string &error : out.errors)
        std::cerr << "error: " << workload.name << ": " << error << "\n";

    bool correct = out.failed == 0 && out.attempted > 0;
    std::span<const MetricSpec> table =
        options.traced ? std::span<const MetricSpec>(kPerLayer)
                       : std::span<const MetricSpec>(kEndToEnd);
    for (const MetricSpec &spec : table) {
        os << workload.name << " " << spec.name << " "
           << stats::JsonWriter::formatDouble(out.metrics.at(spec.name))
           << " " << spec.unit << "\n";
    }

    stats::JsonWriter run(os, true);
    run.beginObject();
    run.key("run");
    run.beginObject();
    run.member("workload", workload.name);
    run.member("seed", options.seed);
    run.member("seconds", options.seconds);
    run.member("trace", options.traced);
    run.member("smoke", options.smoke);
    run.member("passes", out.passes);
    run.member("nproc", std::uint64_t{std::thread::hardware_concurrency()});
    run.endObject();
    run.endObject();
    os << "\n";

    stats::JsonWriter result(os, true);
    result.beginObject();
    result.member("correct", correct);
    result.member("attempted", out.attempted);
    result.member("failed", out.failed);
    result.key("metrics");
    result.beginObject();
    for (const MetricSpec &spec : table) {
        result.key(spec.name);
        result.beginObject();
        result.member("value", out.metrics.at(spec.name));
        result.member("unit", spec.unit);
        result.endObject();
    }
    result.endObject();
    result.endObject();
    os << "\n";
    return correct ? 0 : 1;
}

/** Child side of runWorkload; never returns. */
[[noreturn]] void
childMain(const Workload &workload, Options options,
          const fs::path &exe_dir, const fs::path &work_dir)
{
    // Die with the parent rather than outlive an interrupted run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int status = 1;
    try {
        fs::create_directories(work_dir);
        fs::current_path(work_dir);
        options.workload = workload.name;
        if (options.traced)
            options.spansPath =
                (exe_dir / ("spans-" + options.workload + ".json")).string();
        status = printOutcome(workload, options, workload.run(options));
    } catch (const std::exception &e) {
        std::cerr << "error: " << workload.name << ": " << e.what() << "\n";
    }
    std::cout.flush();
    std::fflush(nullptr);
    ::_exit(status);
}

/** Run @p workload in a child process; returns its exit status. */
int
runWorkload(const Workload &workload, const Options &options,
            const fs::path &exe_dir)
{
    std::cout.flush();
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("fork");
        return 1;
    }
    fs::path work_dir = exe_dir / "tmp";
    if (pid == 0)
        childMain(workload, options,
                  exe_dir, work_dir / std::to_string(::getpid()));

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            std::perror("waitpid");
            return 1;
        }
    }
    std::error_code ignored;
    fs::remove_all(work_dir / std::to_string(pid), ignored);
    if (WIFSIGNALED(status)) {
        std::cerr << "error: " << workload.name << " died of signal "
                  << WTERMSIG(status) << "\n";
        return 1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = parseNumber<std::uint64_t>(arg, value());
        } else if (arg == "--seconds") {
            options.seconds = parseNumber<double>(arg, value());
            if (!(options.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (arg == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            options.traced = v == "1";
        } else if (arg == "--traced") {
            options.traced = true;
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }

    std::vector<const Workload *> selected;
    for (const Workload &w : kWorkloads) {
        if (options.workload.empty() || options.workload == w.name)
            selected.push_back(&w);
    }
    if (selected.empty())
        usage("unknown workload '" + options.workload + "'");

    fs::path exe_dir = fs::canonical("/proc/self/exe").parent_path();
    int status = 0;
    for (const Workload *w : selected) {
        if (options.smoke) {
            for (bool traced : {false, true}) {
                Options run = options;
                run.traced = traced;
                status |= runWorkload(*w, run, exe_dir);
            }
        } else {
            status |= runWorkload(*w, options, exe_dir);
        }
    }
    return status == 0 ? 0 : 1;
}
