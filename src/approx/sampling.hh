/**
 * @file
 * Spatially-hashed sampling configuration — the admission policy of the
 * approximate miss-rate-curve subsystem.
 *
 * The exact instrument (one Mattson profiler per processor) costs
 * O(log n) time and one live stack entry per distinct line, which is the
 * bottleneck between the laptop-scale studies and the paper's
 * prototypical 1 GB / 1024-PE problems. SHARDS-style spatial sampling
 * (Waldspurger et al.; surveyed by Byrne et al.) recovers the full
 * miss-rate-versus-cache-size curve from a small fraction of the
 * references: a line is sampled iff hash(lineAddr) < rate * 2^64, so
 * *every* reference to a sampled line is kept (reuse pairs survive
 * intact) and measured stack distances scale by 1/rate.
 *
 * Because admission depends only on the line address — no RNG state, no
 * reference order — sampling is deterministic: the same trace yields the
 * same sampled profile at any worker count, preserving the study
 * runner's byte-identical parallel == serial guarantee.
 */

#ifndef WSG_APPROX_SAMPLING_HH
#define WSG_APPROX_SAMPLING_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "memsys/profiler.hh"
#include "trace/memref.hh"

namespace wsg::approx
{

using trace::Addr;

/** Which admission policy a sampled profiler runs. */
enum class SamplingMode : std::uint8_t
{
    /** Exact profiling; every reference is admitted. */
    None,
    /** Admit iff hash(line) < rate * 2^64; rate is fixed for the run. */
    FixedRate,
    /**
     * Bound the number of distinct tracked lines: start at rate 1 and
     * adaptively lower the admission threshold, evicting the
     * above-threshold lines, whenever the budget is exceeded. Memory is
     * O(maxLines) regardless of footprint; the effective rate is
     * whatever the budget affords.
     */
    FixedSize,
};

/** Sampling policy parameters, carried from CLI through sim to stats. */
struct SamplingConfig
{
    SamplingMode mode = SamplingMode::None;
    /** FixedRate: admission probability in (0, 1]. */
    double rate = 0.01;
    /** FixedSize: distinct-line budget per profiler (> 0). */
    std::uint64_t maxLines = 8192;
    /**
     * XORed into the line address before hashing, selecting an
     * independent deterministic draw of sampled lines. The default (0)
     * is the canonical draw; distinct salts give uncorrelated samples
     * of the same trace, which is how the accuracy harness measures
     * single-draw variance without any RNG.
     */
    std::uint64_t hashSalt = 0;

    bool enabled() const { return mode != SamplingMode::None; }

    /** @throws std::invalid_argument on out-of-range parameters. */
    void
    validate() const
    {
        if (mode == SamplingMode::FixedRate &&
            !(rate > 0.0 && rate <= 1.0)) {
            throw std::invalid_argument(
                "SamplingConfig: fixed-rate sampling needs rate in "
                "(0, 1], got " +
                std::to_string(rate));
        }
        if (mode == SamplingMode::FixedSize && maxLines == 0) {
            throw std::invalid_argument(
                "SamplingConfig: fixed-size sampling needs a non-zero "
                "line budget");
        }
    }
};

/** Human-readable mode name (also the JSON spelling). */
inline const char *
samplingModeName(SamplingMode mode)
{
    switch (mode) {
      case SamplingMode::FixedRate: return "fixed-rate";
      case SamplingMode::FixedSize: return "fixed-size";
      case SamplingMode::None: break;
    }
    return "none";
}

/**
 * Parse a sampling label: "exact", "rate:R" with R in (0, 1], or
 * "size:N" with N a positive line count of at most 2^64 - 1. Labels
 * name sampling points in campaign grids and entry names, and the
 * runner flags and wire keys spell their values through them.
 * @throws std::invalid_argument on any other text.
 */
SamplingConfig parseSamplingLabel(const std::string &label);

/** Canonical label of @p config: "exact", "rate:" + the shortest
 *  round-trip rate, or "size:" + the line budget. */
std::string samplingLabel(const SamplingConfig &config);

/**
 * 64-bit finalizing mixer (splitmix64). Line numbers are sequential and
 * low-entropy; the mixer spreads them uniformly over [0, 2^64) so the
 * "hash < rate * 2^64" test samples an unbiased rate-fraction of lines.
 */
constexpr std::uint64_t
mixAddr(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Admission threshold: admit iff mixAddr(line) < threshold. */
constexpr std::uint64_t kAdmitAll = ~std::uint64_t{0};

/** Threshold for a target rate (rate >= 1 admits everything). */
inline std::uint64_t
thresholdForRate(double rate)
{
    if (rate >= 1.0)
        return kAdmitAll;
    if (rate <= 0.0)
        return 0;
    // 2^64 as a double is exact; the product truncates toward zero.
    return static_cast<std::uint64_t>(rate * 18446744073709551616.0);
}

/** Effective admission rate of a threshold. */
inline double
rateForThreshold(std::uint64_t threshold)
{
    if (threshold == kAdmitAll)
        return 1.0;
    return static_cast<double>(threshold) / 18446744073709551616.0;
}

/**
 * Run-level sampling observability, reported per study and serialized
 * into the wsg-study-report-v3 artifact. In exact mode the counters
 * still describe the profilers (sampledRefs == totalRefs, rate 1), so
 * the same record doubles as the exact run's profiler-cost report.
 */
struct SamplingDiagnostics
{
    SamplingConfig config;
    /** Which miss-rate-curve construction the profilers ran. */
    memsys::ProfilerKind profiler = memsys::ProfilerKind::TreeMattson;
    /** Final admission rate, reference-weighted across processors
     *  (fixed-rate: the configured rate; fixed-size: whatever the
     *  budget converged to). */
    double effectiveRate = 1.0;
    /** References delivered to the profilers (warm-up included — the
     *  profilers see every reference to keep their state correct). */
    std::uint64_t totalRefs = 0;
    /** References the admission filter let through. */
    std::uint64_t sampledRefs = 0;
    /** Distinct lines currently tracked across all profilers. */
    std::uint64_t sampledLines = 0;
    /** Approximate resident bytes of all profilers (stack entries +
     *  Fenwick trees) — the memory the sampling exists to bound. */
    std::uint64_t profilerBytes = 0;
};

} // namespace wsg::approx

#endif // WSG_APPROX_SAMPLING_HH
