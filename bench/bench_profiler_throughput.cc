/**
 * @file
 * Profiler bake-off: ingestion throughput and resident memory of every
 * miss-rate-curve construction (tree-Mattson, AET), in both
 * single-reference and batched mode, over real application traces.
 *
 * Each application runs once against a RecordingSink; its reference
 * stream is mapped to cache-line numbers (8 B lines, the SimConfig
 * default) and replayed into a fresh profiler per construction x mode.
 * Reported per row: references ingested, refs/sec, resident bytes per
 * reference, and the speedup over single-reference tree-Mattson on the
 * same trace. Single and batched tree-Mattson must produce identical
 * distance checksums on every trace — the bench fails hard if not.
 *
 * Flags: --smoke shrinks every trace for CI smoke runs.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/barnes/barnes_hut.hh"
#include "apps/cg/grid_cg.hh"
#include "apps/fft/parallel_fft.hh"
#include "apps/lu/blocked_lu.hh"
#include "approx/profiler_factory.hh"
#include "bench_util.hh"
#include "memsys/profiler.hh"
#include "trace/address_space.hh"
#include "trace/sinks.hh"

using namespace wsg;
using memsys::Addr;
using memsys::DistanceSample;
using memsys::ProfilerKind;
using memsys::RefClass;

namespace
{

/** Line size used to map byte addresses to lines (SimConfig default). */
constexpr std::uint64_t kLineBytes = 8;

/** One captured application reference stream, as line numbers. */
struct AppTrace
{
    std::string name;
    std::vector<Addr> lines;
};

std::vector<Addr>
toLines(const std::vector<trace::MemRef> &refs)
{
    std::vector<Addr> lines;
    lines.reserve(refs.size());
    for (const auto &r : refs)
        lines.push_back(r.addr / kLineBytes);
    return lines;
}

AppTrace
captureLu(std::uint32_t n)
{
    trace::SharedAddressSpace space;
    trace::RecordingSink rec;
    apps::lu::LuConfig cfg;
    cfg.n = n;
    cfg.blockSize = 16;
    cfg.procRows = 2;
    cfg.procCols = 2;
    apps::lu::BlockedLu lu(cfg, space, &rec);
    lu.randomize(7);
    lu.factor();
    return {"lu-n" + std::to_string(n), toLines(rec.refs())};
}

AppTrace
captureCg(std::uint32_t n, std::uint32_t iters)
{
    trace::SharedAddressSpace space;
    trace::RecordingSink rec;
    apps::cg::CgConfig cfg;
    cfg.n = n;
    cfg.dims = 2;
    cfg.procX = 2;
    cfg.procY = 2;
    apps::cg::GridCg cg(cfg, space, &rec);
    cg.buildSystem();
    cg.run(iters, 0.0);
    return {"cg-n" + std::to_string(n), toLines(rec.refs())};
}

AppTrace
captureFft(std::uint32_t log_n)
{
    trace::SharedAddressSpace space;
    trace::RecordingSink rec;
    apps::fft::FftConfig cfg;
    cfg.logN = log_n;
    cfg.numProcs = 4;
    cfg.internalRadix = 8;
    apps::fft::ParallelFft fft(cfg, space, &rec);
    for (std::uint64_t i = 0; i < cfg.N(); ++i)
        fft.setInput(i, {std::cos(0.001 * static_cast<double>(i)),
                         std::sin(0.002 * static_cast<double>(i))});
    fft.forward();
    return {"fft-logN" + std::to_string(log_n), toLines(rec.refs())};
}

AppTrace
captureBarnes(std::uint32_t bodies)
{
    trace::SharedAddressSpace space;
    trace::RecordingSink rec;
    apps::barnes::BarnesConfig cfg;
    cfg.numBodies = bodies;
    cfg.numProcs = 4;
    apps::barnes::BarnesHut bh(cfg, space, &rec);
    bh.initPlummer();
    bh.step();
    return {"barnes-" + std::to_string(bodies), toLines(rec.refs())};
}

/** Outcome of one timed ingestion pass. */
struct PassResult
{
    double refsPerSec = 0.0;
    double bytesPerRef = 0.0;
    /** Order-sensitive digest of every classified sample; identical
     *  between the two exact constructions by construction. */
    std::uint64_t checksum = 0;
};

std::uint64_t
digest(std::uint64_t sum, const DistanceSample &s)
{
    std::uint64_t v = s.kind == RefClass::Finite
                          ? s.distance
                          : 0x9e3779b97f4a7c15ull +
                                static_cast<std::uint64_t>(s.kind);
    sum = (sum ^ v) * 0x100000001b3ull;
    return sum;
}

PassResult
runPass(ProfilerKind kind, const std::vector<Addr> &lines, bool batched)
{
    auto prof = approx::makeProfiler(kind);
    PassResult r;
    auto start = std::chrono::steady_clock::now();
    if (batched) {
        constexpr std::size_t kBlock = 256;
        DistanceSample out[kBlock];
        std::size_t i = 0;
        while (i < lines.size()) {
            std::size_t n = std::min(kBlock, lines.size() - i);
            prof->accessBatch(lines.data() + i, n, out);
            for (std::size_t j = 0; j < n; ++j)
                r.checksum = digest(r.checksum, out[j]);
            i += n;
        }
    } else {
        for (Addr line : lines)
            r.checksum = digest(r.checksum, prof->access(line));
    }
    auto end = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(end - start).count();
    double n = static_cast<double>(lines.size());
    r.refsPerSec = secs > 0.0 ? n / secs : 0.0;
    r.bytesPerRef = static_cast<double>(prof->memoryBytes()) / n;
    return r;
}

std::string
fmtRate(double refs_per_sec)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << refs_per_sec / 1e6
       << " Mref/s";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            std::cerr << "usage: " << argv[0] << " [--smoke]\n";
            return 2;
        }
    }

    bench::banner("profiler bake-off",
                  "Ingestion throughput of the miss-rate-curve "
                  "constructions over real app traces");
    bench::ScopeTimer timer("profiler-throughput");

    std::vector<AppTrace> traces;
    if (smoke) {
        traces.push_back(captureLu(64));
        traces.push_back(captureCg(32, 5));
        traces.push_back(captureFft(10));
        traces.push_back(captureBarnes(256));
    } else {
        traces.push_back(captureLu(128));
        traces.push_back(captureCg(96, 20));
        traces.push_back(captureFft(16));
        traces.push_back(captureBarnes(2048));
    }

    struct Row
    {
        std::string trace;
        std::string construction;
        std::string mode;
        std::uint64_t refs;
        PassResult res;
        double speedupVsTree;
    };
    const ProfilerKind kKinds[] = {ProfilerKind::TreeMattson,
                                   ProfilerKind::Aet};

    std::vector<Row> rows;
    bool checksums_ok = true;
    for (const auto &t : traces) {
        double tree_single = 0.0;
        std::uint64_t tree_sum = 0;
        for (ProfilerKind kind : kKinds) {
            for (bool batched : {false, true}) {
                PassResult res = runPass(kind, t.lines, batched);
                if (kind == ProfilerKind::TreeMattson) {
                    if (!batched) {
                        tree_single = res.refsPerSec;
                        tree_sum = res.checksum;
                    } else if (res.checksum != tree_sum) {
                        std::cerr << "FAIL: tree-mattson single vs "
                                     "batched checksum mismatch on "
                                  << t.name << "\n";
                        checksums_ok = false;
                    }
                }
                rows.push_back({t.name, profilerKindName(kind),
                                batched ? "batched" : "single",
                                t.lines.size(), res,
                                res.refsPerSec / tree_single});
            }
        }
        std::cout << "captured " << t.name << ": " << t.lines.size()
                  << " refs\n";
    }

    std::cout << "\n"
              << std::left << std::setw(14) << "trace" << std::setw(14)
              << "construction" << std::setw(9) << "mode" << std::right
              << std::setw(10) << "refs" << std::setw(14) << "refs/sec"
              << std::setw(12) << "bytes/ref" << std::setw(10)
              << "vs tree" << "\n"
              << std::string(83, '-') << "\n";
    for (const auto &r : rows) {
        std::cout << std::left << std::setw(14) << r.trace
                  << std::setw(14) << r.construction << std::setw(9)
                  << r.mode << std::right << std::setw(10) << r.refs
                  << std::setw(14) << fmtRate(r.res.refsPerSec)
                  << std::setw(12) << std::fixed << std::setprecision(2)
                  << r.res.bytesPerRef << std::setw(9)
                  << std::setprecision(2) << r.speedupVsTree << "x\n";
    }

    if (!checksums_ok) {
        std::cerr << "\nsingle and batched tree-mattson disagree; see "
                     "above\n";
        return 1;
    }
    std::cout << "\nsingle and batched tree-mattson checksums agree on "
                 "every trace\n";
    return 0;
}
