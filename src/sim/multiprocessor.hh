/**
 * @file
 * Trace-driven multiprocessor memory-system simulator.
 *
 * This is the paper's experimental apparatus (Section 2.2): "we simulate a
 * cache-coherent, shared-address-space multiprocessor architecture, with
 * each processor having a single level of cache and an equal fraction of
 * the total main memory".
 *
 * Every processor owns a stack-distance profiler, so one application run
 * produces the exact fully-associative-LRU miss-rate curve over *all*
 * cache sizes. Every curve reads its miss counts through one path
 * (finiteMisses): each processor's histogram counted at that
 * processor's capacityToThreshold, summed, plus the cold/coherence
 * floor — the memsys::Profiler contract, for every construction.
 *
 * A write-invalidate directory sits across the processors: a write by
 * processor p removes the line from every other processor's stack, so
 * the next access by a previous sharer is a Coherence miss — a miss at
 * every cache size, i.e.\ the paper's inherent-communication floor.
 *
 * Warm-up control (setMeasuring) implements the paper's cold-start
 * exclusion: references always update cache and directory state, but only
 * measured references contribute to the statistics.
 *
 * Optionally a concrete cache (set-associative / direct-mapped) can be
 * attached per processor to study associativity effects (Section 6.4).
 *
 * The directory is a two-level paged table keyed by line number: a
 * page holds 64 consecutive lines' DirEntry records, zero-initialised
 * (all-zero means "untouched"), allocated on the first touch of any of
 * its lines and found through a flat open-addressing page map behind a
 * last-page cache. Neighbouring lines therefore share host cache lines
 * and a page costs one allocation instead of 64 hash nodes. The price
 * is paid by sparse traces: a line with no touched neighbour in its
 * page still holds a whole page, 64 x 40 B = 2.5 KB per isolated line.
 *
 * Miss classification (Dubois-style): the directory tracks, per line, a
 * bitmap of the 8-byte *words* ever written plus, per invalidated
 * processor, the words written by others since its invalidation. A
 * coherence miss whose accessed words intersect that remotely-written
 * set is *true sharing* (the processor consumes a value another
 * processor produced); otherwise it is *false sharing* — an artifact of
 * the line granularity that vanishes at 8-byte lines. Together with the
 * cold / capacity split from the stack-distance profiles this yields
 * the four-way breakdown cold + capacity + true + false == total
 * misses at every cache size (readMissClassCurves). When a
 * SharedAddressSpace is attached (attachAddressSpace), every measured
 * reference is additionally attributed to the named application array
 * it touched (arraySummaries).
 *
 * Sampling mode (SimConfig::sampling): each profiler becomes a
 * SHARDS-style spatially-sampled instrument (src/approx) that tracks
 * only the lines whose address hash falls under the admission
 * threshold. The directory stays exact — every write still looks up
 * the full sharer set — but invalidations are delivered through the
 * same admission filter, so sampled lines experience precisely the
 * coherence they would see unsampled while unsampled lines never gain
 * stack state. Curves are then *estimates*: sampled miss counts scaled
 * by the effective rate (approx::ApproxCurve), accurate to a few
 * percent at rates around 1% and byte-deterministic at any worker
 * count because admission depends only on line addresses.
 */

#ifndef WSG_SIM_MULTIPROCESSOR_HH
#define WSG_SIM_MULTIPROCESSOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "approx/approx_curve.hh"
#include "approx/sampled_stack_distance.hh"
#include "approx/sampling.hh"
#include "memsys/cache.hh"
#include "memsys/hierarchy.hh"
#include "memsys/profiler.hh"
#include "sim/coherence.hh"
#include "stats/curve.hh"
#include "stats/histogram.hh"
#include "trace/address_space.hh"
#include "trace/memref.hh"

namespace wsg::sim
{

using trace::Addr;
using trace::MemRef;
using trace::ProcId;

/** Machine configuration for a simulation run. */
struct SimConfig
{
    /** Number of processors; at most 64 (a directory entry is a u64). */
    std::uint32_t numProcs = 1;
    /** Cache line size in bytes (power of two). The paper's FLOP-based
     *  metrics count double-word misses, so 8 is the default. */
    std::uint32_t lineBytes = 8;
    CoherenceProtocol protocol = CoherenceProtocol::WriteInvalidate;
    /** Profiler sampling policy; default is exact profiling. */
    approx::SamplingConfig sampling{};
    /**
     * Which miss-rate-curve construction each processor runs: exact
     * tree-Mattson (the default), or Aet, which trades exactness of the
     * finite-distance part for O(1) per-reference cost and does not
     * compose with sampling.
     */
    memsys::ProfilerKind profiler = memsys::ProfilerKind::TreeMattson;
    /**
     * Per-node concrete cache hierarchy. The profiler-based curves are
     * unaffected (they sweep all sizes by construction); a two-level
     * spec attaches one TwoLevelCache per processor, so the concrete
     * miss counters and hierarchyStats() describe that machine point.
     */
    memsys::NodeHierarchySpec hierarchy{};
};

/** Per-processor statistics gathered while measuring. */
struct ProcStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** References the sampling filter admitted (== reads/writes when
     *  profiling exactly). Cold/coherence counters and the distance
     *  histograms only ever describe admitted references. */
    std::uint64_t sampledReads = 0;
    std::uint64_t sampledWrites = 0;
    std::uint64_t readCold = 0;
    std::uint64_t readCoherence = 0;
    std::uint64_t writeCold = 0;
    std::uint64_t writeCoherence = 0;
    /**
     * Dubois split of the coherence counters: every admitted coherence
     * miss is exactly one of true sharing (the accessed words intersect
     * the words other processors wrote since this processor lost the
     * line) or false sharing (they do not — a line-granularity
     * artifact), so readTrueSharing + readFalseSharing == readCoherence
     * and likewise for writes. With 8-byte lines a line is one word and
     * the false-sharing counters are structurally zero.
     */
    std::uint64_t readTrueSharing = 0;
    std::uint64_t readFalseSharing = 0;
    std::uint64_t writeTrueSharing = 0;
    std::uint64_t writeFalseSharing = 0;
    /** Stack distances of Finite read / write references. */
    stats::Histogram readDistances;
    stats::Histogram writeDistances;
    /** Concrete-cache results (valid when a cache is attached). */
    std::uint64_t concreteReadMisses = 0;
    std::uint64_t concreteWriteMisses = 0;
    /** Update messages sent by this processor's writes (WriteUpdate
     *  protocol only): one per other sharer per shared-line write. */
    std::uint64_t updatesSent = 0;
    /** Copies this processor's accesses purged from other processors
     *  (invalidating protocols): one per victim per invalidation. */
    std::uint64_t invalidationsSent = 0;
    /** Ownership-upgrade messages (write while Shared). MESI's silent
     *  Exclusive->Modified transition is the only protocol difference
     *  visible in a profiling simulator, so this counter is what
     *  separates MESI from MSI. */
    std::uint64_t upgradesSent = 0;
};

/** How to build miss-rate curves out of a finished simulation. */
struct CurveSpec
{
    /** Cache sizes (bytes) to evaluate; must be multiples of lineBytes. */
    std::vector<std::uint64_t> cacheSizesBytes;
    /** Include cold misses in the miss counts. */
    bool includeCold = false;
    /**
     * Sampling policy the statistics were collected under. Must match
     * the simulator's SimConfig::sampling mode (checked: a mismatch
     * throws std::invalid_argument, because scaling sampled counts as
     * exact — or vice versa — silently corrupts the curve).
     * analyzeWorkingSets wires this automatically.
     */
    approx::SamplingConfig sampling{};
};

/**
 * Estimated read-miss counts by category at one cache size. Exact runs
 * carry integer-valued doubles; sampled runs carry 1/rate-scaled
 * estimates. The invariant total() == cold + capacity + trueSharing +
 * falseSharing holds by construction, and in exact mode total() equals
 * the exact read-miss count at that size, cold misses included.
 */
struct MissClassPoint
{
    double cold = 0.0;
    /** Finite-distance misses at this size (the only size-dependent
     *  category; the others are inherent to the reference stream). */
    double capacity = 0.0;
    double trueSharing = 0.0;
    double falseSharing = 0.0;

    double
    total() const
    {
        return cold + capacity + trueSharing + falseSharing;
    }
    /** Inherent communication (the paper's miss-rate floor). */
    double sharing() const { return trueSharing + falseSharing; }
};

/** Per-category read-miss curves over a cache-size sweep. */
struct MissClassCurves
{
    std::vector<std::uint64_t> cacheSizesBytes;
    /** One point per swept size, in cacheSizesBytes order. */
    std::vector<MissClassPoint> points;

    bool empty() const { return points.empty(); }
};

/**
 * Size-independent miss attribution for one processor or one named
 * application array: reference counts plus the cold and sharing
 * classifications (capacity misses depend on the cache size and live in
 * MissClassCurves instead). Raw admitted counts — under sampling, scale
 * by 1/effective-rate to estimate full-trace magnitudes.
 */
struct SharingSummary
{
    /** Array segment name, or "p<i>" for processor summaries. */
    std::string name;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readCold = 0;
    std::uint64_t writeCold = 0;
    std::uint64_t readTrueSharing = 0;
    std::uint64_t readFalseSharing = 0;
    std::uint64_t writeTrueSharing = 0;
    std::uint64_t writeFalseSharing = 0;

    std::uint64_t
    sharingMisses() const
    {
        return readTrueSharing + readFalseSharing + writeTrueSharing +
               writeFalseSharing;
    }
};

/**
 * The multiprocessor. Feed it MemRefs (it is a MemorySink); query curves
 * and stats when the application finishes.
 */
class Multiprocessor : public trace::MemorySink
{
  public:
    explicit Multiprocessor(const SimConfig &config);

    /** MemorySink interface: split into lines, run coherence, profile. */
    void access(const MemRef &ref) override;

    /** Batched delivery: identical to n access() calls, minus the
     *  virtual dispatch per reference. */
    void accessBatch(const MemRef *refs, std::size_t n) override;

    /** Warm-up control: when false, references update state only. */
    void setMeasuring(bool measuring) { measuring_ = measuring; }
    bool measuring() const { return measuring_; }

    /**
     * Attach one concrete cache per processor. The factory is called once
     * per processor. Concrete caches see the same line stream and the same
     * invalidations as the profilers.
     */
    void attachCaches(
        const std::function<std::unique_ptr<memsys::Cache>()> &factory);

    /**
     * Attach the application's address space so measured references are
     * attributed to the named array segments (arraySummaries). The
     * space must outlive the simulator; segments allocated after the
     * attach are picked up automatically (attribution resolves lazily
     * against the live segment table). Attribution never perturbs the
     * profilers or the directory, so curves and aggregate counters are
     * byte-identical with or without an attached space.
     */
    void
    attachAddressSpace(const trace::SharedAddressSpace *space)
    {
        space_ = space;
        lastSegmentBytes_ = 0;
    }

    const SimConfig &config() const { return config_; }
    const ProcStats &procStats(ProcId pid) const { return stats_[pid]; }

    /** Sum of per-processor counters/histograms. */
    ProcStats aggregateStats() const;

    /**
     * Aggregate read-miss-rate curve: x = cache size in bytes, y = read
     * misses / read references across all processors.
     */
    stats::Curve readMissRateCurve(const CurveSpec &spec,
                                   const std::string &name) const;

    /**
     * Per-processor read-miss-rate curve — the paper's working sets are
     * *per-processor*; comparing these across PEs shows whether the
     * partition gives every processor the same locality.
     */
    stats::Curve procReadMissRateCurve(ProcId pid, const CurveSpec &spec,
                                       const std::string &name) const;

    /**
     * Aggregate misses-per-FLOP curve: x = cache size in bytes, y =
     * double-word read misses / @p total_flops. Line sizes larger than a
     * double word scale the miss count by lineBytes/8 so the metric stays
     * "double-word misses" as in the paper.
     */
    stats::Curve missesPerFlopCurve(const CurveSpec &spec,
                                    std::uint64_t total_flops,
                                    const std::string &name) const;

    /**
     * Aggregate memory-traffic curve: bytes moved between cache and the
     * rest of the system per FLOP, versus cache size. A read miss moves
     * one line in; a write miss moves a line in (write-allocate) and —
     * since written lines are eventually evicted dirty — one line back
     * out, so traffic = (readMisses + 2 * writeMisses) * lineBytes.
     * This is the bandwidth demand the grain-size discussion (Section
     * 2.3) weighs against the machine's sustainable rates.
     */
    stats::Curve trafficPerFlopCurve(const CurveSpec &spec,
                                     std::uint64_t total_flops,
                                     const std::string &name) const;

    /**
     * Per-category read-miss curves (cold / capacity / true-sharing /
     * false-sharing) over the spec's cache sizes. Under sampling every
     * category is the admitted count scaled by 1/rate (the same
     * SHARDS_adj estimator the rate curves use), so the four categories
     * still sum to the estimated total at every size; in exact mode the
     * sums are integer-exact. The result depends only on the
     * per-processor histograms, so it is byte-identical at any worker
     * count.
     */
    MissClassCurves readMissClassCurves(const CurveSpec &spec) const;

    /**
     * Convenience single point of readMissClassCurves at
     * @p capacity_lines.
     */
    MissClassPoint readMissClassesAt(std::uint64_t capacity_lines) const;

    /** Per-processor attribution summaries ("p0".."pN-1"). */
    std::vector<SharingSummary> procSummaries() const;

    /**
     * Per-array attribution summaries, one per segment of the attached
     * address space (in allocation order; zero-filled for arrays whose
     * references all fell outside measurement), plus a trailing
     * "(unmapped)" bucket when measured references hit addresses no
     * segment covers. Empty when no space is attached.
     */
    std::vector<SharingSummary> arraySummaries() const;

    /** Per-processor footprint in bytes (distinct lines touched; under
     *  sampling an estimate scaled by the effective rate). */
    std::uint64_t footprintBytes(ProcId pid) const;

    /** Largest per-processor footprint — upper end for size sweeps. */
    std::uint64_t maxFootprintBytes() const;

    /** Concrete-cache aggregate read miss rate (caches attached). */
    double concreteReadMissRate() const;

    /**
     * Per-level hit/miss counters summed over the node caches built
     * from SimConfig::hierarchy (zero-valued for single-level runs or
     * externally attached caches).
     */
    memsys::HierarchyStats hierarchyStats() const;

    /**
     * Sampling observability across all profilers: effective rate,
     * admitted/total references, tracked lines, and profiler memory.
     * Meaningful in exact mode too (rate 1, sampled == total) — the
     * profilerBytes field is how the exact-vs-sampled memory saving is
     * measured and reported.
     */
    approx::SamplingDiagnostics samplingDiagnostics() const;

  private:
    /**
     * @param words Bitmap of the 8-byte words this access touches
     *        within the line (bit w = word w; lines wider than 512 B
     *        clamp to 64 words).
     * @param byte_addr First simulated byte this access touches within
     *        the line — the address the array attribution resolves.
     */
    void accessLine(ProcId pid, Addr line, bool is_write,
                    std::uint64_t words, Addr byte_addr);
    /** Throw unless @p spec's sampling mode matches the simulator's. */
    void checkSpecSampling(const CurveSpec &spec) const;
    /**
     * Finite-distance misses at every spec size, summed over processors
     * @p first_pid..@p last_pid (inclusive): each processor's read (or,
     * with @p writes, write) histogram counted at that processor's
     * capacityToThreshold(lines). The one miss-count path of every
     * curve and every profiler construction; for Mattson the sum
     * equals the merged histogram's count exactly. Raw sampled
     * units — the curves add the floor and scale.
     */
    std::vector<std::uint64_t> finiteMisses(const CurveSpec &spec,
                                            bool writes,
                                            ProcId first_pid,
                                            ProcId last_pid) const;
    /** aggregateStats without the histogram merge. */
    ProcStats aggregateCounters() const;
    /** Estimator denominators (see approx::SampledCounts). */
    double expectedSampledReads() const;
    double expectedSampledWrites() const;
    /** Aggregate SampledCounts for the read / write stream. */
    approx::SampledCounts readCounts(const ProcStats &agg) const;
    approx::SampledCounts writeCounts(const ProcStats &agg) const;
    /** Per-array counter slot for @p byte_addr, or nullptr when no
     *  space is attached. Grows the slot table lazily so segments
     *  allocated after attachAddressSpace are covered. */
    SharingSummary *arraySlot(Addr byte_addr);

    SimConfig config_;
    bool measuring_ = true;
    /** Protocol state machine (shared, stateless; never null). */
    const CoherencePolicy *policy_;
    std::vector<approx::SampledStackDistanceProfiler> profilers_;
    std::vector<ProcStats> stats_;
    std::vector<std::unique_ptr<memsys::Cache>> caches_;
    /** Non-owning views of caches_ when they are TwoLevelCaches built
     *  from config_.hierarchy, for hierarchyStats(). */
    std::vector<const memsys::TwoLevelCache *> nodeCaches_;

    /** Directory entry per line; all-zero means never touched. */
    struct DirEntry
    {
        /** Protocol state (sharer mask + exclusive holder), owned by
         *  the CoherencePolicy's transitions. */
        LineState state;
        /** Bitmask of processors invalidated off the line and not yet
         *  returned; each has a live pending_ word-mask entry. Always
         *  disjoint from state.sharers. */
        std::uint64_t pendingProcs = 0;
        /** Bitmap of the words ever written (any processor) — the
         *  producer set a first-touch coherence miss is split against. */
        std::uint64_t writtenWords = 0;
        /** Last writer + 1; 0 = never written through the simulator. */
        std::uint32_t writerPlusOne = 0;
    };

    /**
     * The directory: DirEntry records in pages of kPageLines
     * consecutive lines, allocated zero-initialised on first touch.
     * Pages are found through an open-addressing map from page number
     * to page, with the most recently used page cached in front of it.
     */
    class LineDirectory
    {
      public:
        LineDirectory() = default;
        /** Moves leave the source empty, not caching a page it no
         *  longer owns. */
        LineDirectory(LineDirectory &&other) noexcept
        {
            *this = std::move(other);
        }
        LineDirectory &
        operator=(LineDirectory &&other) noexcept
        {
            slots_ = std::exchange(other.slots_, {});
            pageCount_ = std::exchange(other.pageCount_, 0);
            lastPage_ = std::exchange(other.lastPage_, ~Addr{0});
            lastEntries_ = std::exchange(other.lastEntries_, nullptr);
            return *this;
        }

        DirEntry &
        operator[](Addr line)
        {
            Addr page = line >> kPageShift;
            if (page != lastPage_)
                findPage(page);
            return (*lastEntries_)[line & (kPageLines - 1)];
        }

      private:
        static constexpr unsigned kPageShift = 6;
        static constexpr Addr kPageLines = Addr{1} << kPageShift;
        using Page = std::array<DirEntry, kPageLines>;
        /** One page-map slot; empty while page is null. */
        struct Slot
        {
            Addr pageNumber = 0;
            std::unique_ptr<Page> page;
        };

        /** Point the last-page cache at @p page, allocating it. */
        void findPage(Addr page);
        /** Double the slot table and move every page over. */
        void grow();

        /** Open-addressing (linear probing) page map that owns the
         *  pages; a power of two in size and at most half full. */
        std::vector<Slot> slots_;
        std::size_t pageCount_ = 0;
        /** Page numbers stay below 2^58, so this never matches one. */
        Addr lastPage_ = ~Addr{0};
        Page *lastEntries_ = nullptr;
    };
    LineDirectory directory_;

    /** Key of a pendingWords_ entry: one (line, processor) pair. */
    struct PendingKey
    {
        Addr line;
        ProcId pid;
        bool operator==(const PendingKey &) const = default;
    };
    struct PendingKeyHash
    {
        std::size_t
        operator()(const PendingKey &k) const
        {
            return std::hash<Addr>{}(k.line * 64 + k.pid);
        }
    };
    /**
     * Words written (by anyone else) to a line since a given processor
     * was invalidated off it, keyed by (line, pid); created by the
     * invalidation, accumulated by subsequent writes, and claimed —
     * erased — by that processor's next access, where a non-empty
     * intersection with the accessed words makes the coherence miss
     * true sharing. Bounded by lines * procs but in practice tiny:
     * entries only exist for lines in the invalidated-but-not-yet-
     * reread state.
     */
    std::unordered_map<PendingKey, std::uint64_t, PendingKeyHash>
        pendingWords_;

    /** Attribution state (attachAddressSpace). */
    const trace::SharedAddressSpace *space_ = nullptr;
    /** One slot per segment, indexed like space_->segments(); names are
     *  filled in lazily by arraySummaries(). */
    std::vector<SharingSummary> arrayStats_;
    /** Measured references outside every segment. */
    SharingSummary unmappedStats_;
    /** The segment arraySlot() last matched — index and [base, base +
     *  bytes) — checked before the segment search. Only hits are
     *  cached: segments never move, but an address outside every
     *  segment now may fall in one allocated later. Bytes 0 = none. */
    std::size_t lastSegment_ = 0;
    Addr lastSegmentBase_ = 0;
    std::uint64_t lastSegmentBytes_ = 0;
};

/**
 * Generate a log-spaced cache-size sweep: @p points_per_octave sizes per
 * doubling from @p min_bytes to @p max_bytes inclusive, all rounded to
 * multiples of @p line_bytes.
 */
std::vector<std::uint64_t> sweepSizes(std::uint64_t min_bytes,
                                      std::uint64_t max_bytes,
                                      int points_per_octave = 4,
                                      std::uint32_t line_bytes = 8);

} // namespace wsg::sim

#endif // WSG_SIM_MULTIPROCESSOR_HH
