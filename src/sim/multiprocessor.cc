#include "sim/multiprocessor.hh"

#include "memsys/fully_assoc_lru.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace wsg::sim
{

std::uint64_t
ProcStats::readMissesAt(std::uint64_t capacity_lines,
                        bool include_cold) const
{
    std::uint64_t misses = readDistances.countAtLeast(capacity_lines);
    misses += readCoherence;
    if (include_cold)
        misses += readCold;
    return misses;
}

std::uint64_t
ProcStats::writeMissesAt(std::uint64_t capacity_lines,
                         bool include_cold) const
{
    std::uint64_t misses = writeDistances.countAtLeast(capacity_lines);
    misses += writeCoherence;
    if (include_cold)
        misses += writeCold;
    return misses;
}

Multiprocessor::Multiprocessor(const SimConfig &config)
    : config_(config),
      policy_(&coherencePolicyFor(config.protocol)),
      stats_(config.numProcs)
{
    if (config_.numProcs == 0 || config_.numProcs > 64)
        throw std::invalid_argument(
            "Multiprocessor: numProcs must be in [1, 64] (directory "
            "entries are 64-bit sharer masks); larger machines are "
            "handled by the analytical models");
    if (config_.lineBytes == 0 ||
        (config_.lineBytes & (config_.lineBytes - 1)) != 0) {
        throw std::invalid_argument(
            "Multiprocessor: lineBytes must be a power of two");
    }
    config_.sampling.validate();
    config_.hierarchy.validate(config_.lineBytes);
    profilers_.reserve(config_.numProcs);
    for (std::uint32_t p = 0; p < config_.numProcs; ++p)
        profilers_.emplace_back(config_.sampling, config_.profiler);
    if (config_.hierarchy.twoLevel()) {
        // One private L1 + per-node L2 pair per processor, behind the
        // concrete-cache hooks: the profiler curves still sweep all
        // sizes, while the concrete counters describe this machine.
        memsys::InclusionPolicy inclusion =
            config_.hierarchy.kind ==
                    memsys::HierarchyKind::TwoLevelInclusive
                ? memsys::InclusionPolicy::Inclusive
                : memsys::InclusionPolicy::Exclusive;
        attachCaches([&] {
            return std::make_unique<memsys::TwoLevelCache>(
                std::make_unique<memsys::FullyAssocLru>(
                    config_.hierarchy.l1Bytes / config_.lineBytes),
                std::make_unique<memsys::FullyAssocLru>(
                    config_.hierarchy.l2Bytes / config_.lineBytes),
                inclusion);
        });
        for (const auto &cache : caches_)
            nodeCaches_.push_back(
                static_cast<const memsys::TwoLevelCache *>(cache.get()));
    }
}

void
Multiprocessor::attachCaches(
    const std::function<std::unique_ptr<memsys::Cache>()> &factory)
{
    caches_.clear();
    nodeCaches_.clear();
    caches_.reserve(config_.numProcs);
    for (std::uint32_t p = 0; p < config_.numProcs; ++p)
        caches_.push_back(factory());
}

void
Multiprocessor::access(const MemRef &ref)
{
    if (ref.pid >= config_.numProcs)
        throw std::out_of_range(
            "Multiprocessor::access: pid exceeds configured processor "
            "count");
    Addr ref_last = ref.addr + std::max(ref.bytes, 1u) - 1;
    if (ref_last < ref.addr)
        throw std::out_of_range(
            "Multiprocessor::access: reference wraps past the top of "
            "the address space");
    // Caches and profilers operate on line *numbers* so set-indexed
    // organizations see dense indices regardless of the line size.
    // Iterating over line numbers (not byte addresses) keeps a
    // reference to the topmost line from wrapping the loop to 0.
    Addr first_line = ref.addr / config_.lineBytes;
    Addr last_line = ref_last / config_.lineBytes;
    for (Addr ln = first_line;; ++ln) {
        // Bitmap of the 8-byte words this access covers within the
        // line, for the true/false-sharing split. Lines of 8 bytes or
        // less are a single word; lines wider than 512 B clamp to
        // 64-word granularity.
        Addr line = ln * config_.lineBytes;
        Addr lo = std::max(ref.addr, line);
        Addr hi = std::min(ref_last, line + config_.lineBytes - 1);
        std::uint64_t lo_w = std::min<std::uint64_t>((lo - line) / 8, 63);
        std::uint64_t hi_w = std::min<std::uint64_t>((hi - line) / 8, 63);
        std::uint64_t words =
            (hi_w - lo_w == 63)
                ? ~std::uint64_t{0}
                : ((std::uint64_t{1} << (hi_w - lo_w + 1)) - 1) << lo_w;
        accessLine(ref.pid, ln, ref.isWrite(), words, lo);
        if (ln == last_line)
            break;
    }
}

void
Multiprocessor::accessBatch(const MemRef *refs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        access(refs[i]);
}

void
Multiprocessor::accessLine(ProcId pid, Addr line, bool is_write,
                           std::uint64_t words, Addr byte_addr)
{
    DirEntry &entry = directory_[line];
    std::uint64_t self = std::uint64_t{1} << pid;

    // Claim the words others wrote to this line while this processor
    // was invalidated off it — the evidence the Dubois split judges an
    // invalidation-induced coherence miss by. Claimed on every access
    // (measuring or not) so the pending state tracks the profiler's
    // tombstones exactly. The flag (not the mask) records the claim:
    // MI's read-triggered invalidations leave zero-word pending masks,
    // which must still classify against the pending interval rather
    // than fall back to the line's lifetime write set.
    bool was_invalidated = (entry.pendingProcs & self) != 0;
    std::uint64_t invalidated_words = 0;
    if (was_invalidated) {
        auto it = pendingWords_.find(PendingKey{line, pid});
        invalidated_words = it->second;
        pendingWords_.erase(it);
        entry.pendingProcs &= ~self;
    }

    // The protocol decides the transition; the simulator carries out
    // the purges and keeps the Dubois pending-word bookkeeping in sync
    // with the tombstones the purges create.
    CoherenceActions actions = policy_->onAccess(entry.state, pid,
                                                 is_write);
    std::uint64_t victims = actions.invalidateMask;
    while (victims) {
        unsigned victim =
            static_cast<unsigned>(std::countr_zero(victims));
        victims &= victims - 1;
        profilers_[victim].invalidate(line);
        if (!caches_.empty())
            caches_[victim]->invalidate(line);
    }
    if (is_write &&
        config_.protocol != CoherenceProtocol::WriteUpdate) {
        // Every processor now holding a stale copy — just invalidated
        // or still away from an earlier invalidation — accumulates
        // this write's words in its pending mask.
        std::uint64_t stale =
            (entry.pendingProcs | actions.invalidateMask) & ~self;
        std::uint64_t it_mask = stale;
        while (it_mask) {
            unsigned p =
                static_cast<unsigned>(std::countr_zero(it_mask));
            it_mask &= it_mask - 1;
            pendingWords_[PendingKey{line, p}] |= words;
        }
        entry.pendingProcs = stale;
    } else if (actions.invalidateMask != 0) {
        // Read-triggered invalidation (MI): the victims enter the
        // pending state with empty word masks — nothing was written,
        // so their return misses are pure protocol artifacts.
        std::uint64_t it_mask = actions.invalidateMask;
        while (it_mask) {
            unsigned p =
                static_cast<unsigned>(std::countr_zero(it_mask));
            it_mask &= it_mask - 1;
            pendingWords_.try_emplace(PendingKey{line, p}, 0);
        }
        entry.pendingProcs |= actions.invalidateMask;
    }
    if (measuring_) {
        ProcStats &st = stats_[pid];
        st.updatesSent += actions.updates;
        st.invalidationsSent += static_cast<std::uint64_t>(
            std::popcount(actions.invalidateMask));
        st.upgradesSent += actions.upgrade ? 1 : 0;
    }

    approx::SampledSample sampled = profilers_[pid].access(line);
    memsys::DistanceSample sample = sampled.sample;

    // A first-ever touch of a line that some *other* processor produced
    // is inherent communication, not a cold miss: on a real machine it
    // is a remote fetch at any cache size. (Invalidation-induced misses
    // are already classified Coherence by the profiler.)
    if (sampled.admitted && sample.kind == memsys::RefClass::Cold &&
        entry.writerPlusOne != 0 && entry.writerPlusOne != pid + 1) {
        sample.kind = memsys::RefClass::Coherence;
    }
    // True sharing iff the accessed words intersect the remotely
    // produced ones. For an invalidation-induced miss those are the
    // pending words claimed above; for a first touch of a remotely
    // written line they are all words ever written (a first touch means
    // this profiler never accessed the line, so every one of those
    // writes was another processor's). Evaluated before this access's
    // own write merges into writtenWords.
    bool true_sharing =
        (words & (was_invalidated ? invalidated_words
                                  : entry.writtenWords)) != 0;
    if (is_write) {
        entry.writtenWords |= words;
        entry.writerPlusOne = pid + 1;
    }

    bool concrete_miss = false;
    if (!caches_.empty()) {
        concrete_miss =
            caches_[pid]->access(line) == memsys::AccessOutcome::Miss;
    }

    if (!measuring_)
        return;

    // reads/writes count every measured reference exactly — they are
    // the denominators the estimator rescales against. Classification
    // is only known for admitted references.
    ProcStats &st = stats_[pid];
    SharingSummary *arr = arraySlot(byte_addr);
    if (is_write) {
        ++st.writes;
        if (arr)
            ++arr->writes;
        if (sampled.admitted) {
            ++st.sampledWrites;
            switch (sample.kind) {
              case memsys::RefClass::Finite:
                st.writeDistances.addSample(sample.distance);
                break;
              case memsys::RefClass::Cold:
                ++st.writeCold;
                if (arr)
                    ++arr->writeCold;
                break;
              case memsys::RefClass::Coherence:
                ++st.writeCoherence;
                if (true_sharing) {
                    ++st.writeTrueSharing;
                    if (arr)
                        ++arr->writeTrueSharing;
                } else {
                    ++st.writeFalseSharing;
                    if (arr)
                        ++arr->writeFalseSharing;
                }
                break;
            }
        }
        if (concrete_miss)
            ++st.concreteWriteMisses;
    } else {
        ++st.reads;
        if (arr)
            ++arr->reads;
        if (sampled.admitted) {
            ++st.sampledReads;
            switch (sample.kind) {
              case memsys::RefClass::Finite:
                st.readDistances.addSample(sample.distance);
                break;
              case memsys::RefClass::Cold:
                ++st.readCold;
                if (arr)
                    ++arr->readCold;
                break;
              case memsys::RefClass::Coherence:
                ++st.readCoherence;
                if (true_sharing) {
                    ++st.readTrueSharing;
                    if (arr)
                        ++arr->readTrueSharing;
                } else {
                    ++st.readFalseSharing;
                    if (arr)
                        ++arr->readFalseSharing;
                }
                break;
            }
        }
        if (concrete_miss)
            ++st.concreteReadMisses;
    }
}

namespace
{

/** Home slot of @p page in a page map of @p mask + 1 slots. Fibonacci
 *  hashing spreads runs of consecutive page numbers. */
std::size_t
pageSlot(Addr page, std::size_t mask)
{
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >> 32) &
           mask;
}

} // namespace

void
Multiprocessor::LineDirectory::findPage(Addr page)
{
    if (2 * (pageCount_ + 1) > slots_.size())
        grow();
    std::size_t mask = slots_.size() - 1;
    std::size_t i = pageSlot(page, mask);
    while (slots_[i].page && slots_[i].pageNumber != page)
        i = (i + 1) & mask;
    if (!slots_[i].page) {
        slots_[i].pageNumber = page;
        slots_[i].page = std::make_unique<Page>();
        ++pageCount_;
    }
    lastPage_ = page;
    lastEntries_ = slots_[i].page.get();
}

void
Multiprocessor::LineDirectory::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(std::max<std::size_t>(16, 2 * old.size()));
    std::size_t mask = slots_.size() - 1;
    for (Slot &slot : old) {
        if (!slot.page)
            continue;
        std::size_t i = pageSlot(slot.pageNumber, mask);
        while (slots_[i].page)
            i = (i + 1) & mask;
        slots_[i] = std::move(slot);
    }
}

SharingSummary *
Multiprocessor::arraySlot(Addr byte_addr)
{
    if (!space_ || !measuring_)
        return nullptr;
    std::ptrdiff_t idx = space_->findSegmentIndex(byte_addr);
    if (idx < 0)
        return &unmappedStats_;
    if (static_cast<std::size_t>(idx) >= arrayStats_.size())
        arrayStats_.resize(space_->segments().size());
    return &arrayStats_[static_cast<std::size_t>(idx)];
}

namespace
{

/**
 * Evaluate y(cache size) at every sweep point — through the spec's
 * parallel-for hook when one is attached — and assemble the curve in
 * index order so the result is identical either way.
 */
stats::Curve
evalCurvePoints(const CurveSpec &spec, const std::string &name,
                const std::function<double(std::uint64_t)> &y_at)
{
    stats::Curve curve(name);
    std::vector<double> ys(spec.cacheSizesBytes.size(), 0.0);
    auto eval_point = [&](std::size_t i) {
        ys[i] = y_at(spec.cacheSizesBytes[i]);
    };
    if (spec.parallelFor) {
        spec.parallelFor(ys.size(), eval_point);
    } else {
        for (std::size_t i = 0; i < ys.size(); ++i)
            eval_point(i);
    }
    for (std::size_t i = 0; i < ys.size(); ++i)
        curve.addPoint(static_cast<double>(spec.cacheSizesBytes[i]),
                       ys[i]);
    return curve;
}

} // namespace

ProcStats
Multiprocessor::aggregateStats() const
{
    ProcStats agg;
    for (const auto &st : stats_) {
        agg.reads += st.reads;
        agg.writes += st.writes;
        agg.sampledReads += st.sampledReads;
        agg.sampledWrites += st.sampledWrites;
        agg.readCold += st.readCold;
        agg.readCoherence += st.readCoherence;
        agg.writeCold += st.writeCold;
        agg.writeCoherence += st.writeCoherence;
        agg.readTrueSharing += st.readTrueSharing;
        agg.readFalseSharing += st.readFalseSharing;
        agg.writeTrueSharing += st.writeTrueSharing;
        agg.writeFalseSharing += st.writeFalseSharing;
        agg.readDistances.merge(st.readDistances);
        agg.writeDistances.merge(st.writeDistances);
        agg.concreteReadMisses += st.concreteReadMisses;
        agg.concreteWriteMisses += st.concreteWriteMisses;
        agg.updatesSent += st.updatesSent;
        agg.invalidationsSent += st.invalidationsSent;
        agg.upgradesSent += st.upgradesSent;
    }
    return agg;
}

void
Multiprocessor::checkSpecSampling(const CurveSpec &spec) const
{
    if (spec.sampling.mode != config_.sampling.mode) {
        throw std::invalid_argument(
            "CurveSpec: sampling mode does not match the simulator's "
            "(scaling sampled counts as exact, or vice versa, corrupts "
            "the curve; set CurveSpec::sampling = "
            "Multiprocessor::config().sampling)");
    }
}

double
Multiprocessor::expectedSampledReads() const
{
    switch (config_.sampling.mode) {
      case approx::SamplingMode::FixedSize: {
        // SHARDS_adj: early references were admitted at rates above the
        // final one; normalizing by refs * final_rate (per processor)
        // removes that inflation.
        double expected = 0.0;
        for (std::uint32_t p = 0; p < config_.numProcs; ++p)
            expected += static_cast<double>(stats_[p].reads) *
                        profilers_[p].effectiveRate();
        return expected;
      }
      case approx::SamplingMode::FixedRate: {
        // Divide by the *expected* sample count (refs * rate), not the
        // actual one: sampled misses scale with the fraction of *lines*
        // admitted, so E[misses] = rate * misses regardless of how many
        // references those lines happened to carry. Normalizing by the
        // actual count would fold the (correlated) reference-weight
        // fluctuation of this hash draw into the whole curve level.
        std::uint64_t reads = 0;
        for (const ProcStats &st : stats_)
            reads += st.reads;
        return static_cast<double>(reads) * config_.sampling.rate;
      }
      case approx::SamplingMode::None: break;
    }
    std::uint64_t reads = 0;
    for (const ProcStats &st : stats_)
        reads += st.reads;
    return static_cast<double>(reads);
}

double
Multiprocessor::expectedSampledWrites() const
{
    switch (config_.sampling.mode) {
      case approx::SamplingMode::FixedSize: {
        double expected = 0.0;
        for (std::uint32_t p = 0; p < config_.numProcs; ++p)
            expected += static_cast<double>(stats_[p].writes) *
                        profilers_[p].effectiveRate();
        return expected;
      }
      case approx::SamplingMode::FixedRate: {
        std::uint64_t writes = 0;
        for (const ProcStats &st : stats_)
            writes += st.writes;
        return static_cast<double>(writes) * config_.sampling.rate;
      }
      case approx::SamplingMode::None: break;
    }
    std::uint64_t writes = 0;
    for (const ProcStats &st : stats_)
        writes += st.writes;
    return static_cast<double>(writes);
}

approx::SampledCounts
Multiprocessor::readCounts(const ProcStats &agg) const
{
    approx::SampledCounts counts;
    counts.distances = &agg.readDistances;
    counts.cold = agg.readCold;
    counts.coherence = agg.readCoherence;
    counts.sampledRefs = agg.sampledReads;
    counts.totalRefs = agg.reads;
    counts.expectedSampledRefs = expectedSampledReads();
    return counts;
}

approx::SampledCounts
Multiprocessor::writeCounts(const ProcStats &agg) const
{
    approx::SampledCounts counts;
    counts.distances = &agg.writeDistances;
    counts.cold = agg.writeCold;
    counts.coherence = agg.writeCoherence;
    counts.sampledRefs = agg.sampledWrites;
    counts.totalRefs = agg.writes;
    counts.expectedSampledRefs = expectedSampledWrites();
    return counts;
}

std::uint64_t
Multiprocessor::aetReadMisses(std::uint64_t capacity_lines,
                              bool include_cold) const
{
    std::uint64_t misses = 0;
    for (std::uint32_t p = 0; p < config_.numProcs; ++p) {
        misses += stats_[p].readDistances.countAtLeast(
            profilers_[p].capacityToThreshold(capacity_lines));
        misses += stats_[p].readCoherence;
        if (include_cold)
            misses += stats_[p].readCold;
    }
    return misses;
}

std::uint64_t
Multiprocessor::aetWriteMisses(std::uint64_t capacity_lines,
                               bool include_cold) const
{
    std::uint64_t misses = 0;
    for (std::uint32_t p = 0; p < config_.numProcs; ++p) {
        misses += stats_[p].writeDistances.countAtLeast(
            profilers_[p].capacityToThreshold(capacity_lines));
        misses += stats_[p].writeCoherence;
        if (include_cold)
            misses += stats_[p].writeCold;
    }
    return misses;
}

stats::Curve
Multiprocessor::readMissRateCurve(const CurveSpec &spec,
                                  const std::string &name) const
{
    checkSpecSampling(spec);
    ProcStats agg = aggregateStats();
    if (agg.reads == 0)
        return stats::Curve(name);
    approx::ApproxCurve scaler(samplingDiagnostics());
    approx::SampledCounts counts = readCounts(agg);
    if (config_.profiler == memsys::ProfilerKind::Aet) {
        return evalCurvePoints(spec, name, [&](std::uint64_t bytes) {
            std::uint64_t lines = std::max<std::uint64_t>(
                1, bytes / config_.lineBytes);
            return scaler.missRateFromMisses(
                counts, aetReadMisses(lines, spec.includeCold));
        });
    }
    return evalCurvePoints(spec, name, [&](std::uint64_t bytes) {
        std::uint64_t lines = std::max<std::uint64_t>(
            1, bytes / config_.lineBytes);
        return scaler.missRate(counts, lines, spec.includeCold);
    });
}

stats::Curve
Multiprocessor::procReadMissRateCurve(ProcId pid, const CurveSpec &spec,
                                      const std::string &name) const
{
    checkSpecSampling(spec);
    const ProcStats &st = stats_[pid];
    if (st.reads == 0)
        return stats::Curve(name);
    approx::ApproxCurve scaler(samplingDiagnostics());
    approx::SampledCounts counts;
    counts.distances = &st.readDistances;
    counts.cold = st.readCold;
    counts.coherence = st.readCoherence;
    counts.sampledRefs = st.sampledReads;
    counts.totalRefs = st.reads;
    switch (config_.sampling.mode) {
      case approx::SamplingMode::FixedSize:
        counts.expectedSampledRefs =
            static_cast<double>(st.reads) *
            profilers_[pid].effectiveRate();
        break;
      case approx::SamplingMode::FixedRate:
        counts.expectedSampledRefs =
            static_cast<double>(st.reads) * config_.sampling.rate;
        break;
      case approx::SamplingMode::None:
        counts.expectedSampledRefs = static_cast<double>(st.reads);
        break;
    }
    if (config_.profiler == memsys::ProfilerKind::Aet) {
        return evalCurvePoints(spec, name, [&](std::uint64_t bytes) {
            std::uint64_t lines = std::max<std::uint64_t>(
                1, bytes / config_.lineBytes);
            std::uint64_t misses = st.readDistances.countAtLeast(
                profilers_[pid].capacityToThreshold(lines));
            misses += st.readCoherence;
            if (spec.includeCold)
                misses += st.readCold;
            return scaler.missRateFromMisses(counts, misses);
        });
    }
    return evalCurvePoints(spec, name, [&](std::uint64_t bytes) {
        std::uint64_t lines = std::max<std::uint64_t>(
            1, bytes / config_.lineBytes);
        return scaler.missRate(counts, lines, spec.includeCold);
    });
}

stats::Curve
Multiprocessor::missesPerFlopCurve(const CurveSpec &spec,
                                   std::uint64_t total_flops,
                                   const std::string &name) const
{
    checkSpecSampling(spec);
    ProcStats agg = aggregateStats();
    if (total_flops == 0)
        return stats::Curve(name);
    // The paper counts *double-word* misses; a wider line miss fetches
    // lineBytes/8 double words.
    double words_per_line =
        static_cast<double>(config_.lineBytes) / 8.0;
    approx::ApproxCurve scaler(samplingDiagnostics());
    approx::SampledCounts counts = readCounts(agg);
    if (config_.profiler == memsys::ProfilerKind::Aet) {
        return evalCurvePoints(spec, name, [&](std::uint64_t bytes) {
            std::uint64_t lines = std::max<std::uint64_t>(
                1, bytes / config_.lineBytes);
            return scaler.missCountFromMisses(
                       counts,
                       aetReadMisses(lines, spec.includeCold)) *
                   words_per_line / static_cast<double>(total_flops);
        });
    }
    return evalCurvePoints(spec, name, [&](std::uint64_t bytes) {
        std::uint64_t lines = std::max<std::uint64_t>(
            1, bytes / config_.lineBytes);
        return scaler.missCount(counts, lines, spec.includeCold) *
               words_per_line / static_cast<double>(total_flops);
    });
}

stats::Curve
Multiprocessor::trafficPerFlopCurve(const CurveSpec &spec,
                                    std::uint64_t total_flops,
                                    const std::string &name) const
{
    checkSpecSampling(spec);
    ProcStats agg = aggregateStats();
    if (total_flops == 0)
        return stats::Curve(name);
    approx::ApproxCurve scaler(samplingDiagnostics());
    approx::SampledCounts reads = readCounts(agg);
    approx::SampledCounts writes = writeCounts(agg);
    if (config_.profiler == memsys::ProfilerKind::Aet) {
        return evalCurvePoints(spec, name, [&](std::uint64_t bytes) {
            std::uint64_t lines = std::max<std::uint64_t>(
                1, bytes / config_.lineBytes);
            double fills = scaler.missCountFromMisses(
                reads, aetReadMisses(lines, spec.includeCold));
            double wmisses = scaler.missCountFromMisses(
                writes, aetWriteMisses(lines, spec.includeCold));
            return (fills + 2.0 * wmisses) * config_.lineBytes /
                   static_cast<double>(total_flops);
        });
    }
    return evalCurvePoints(spec, name, [&](std::uint64_t bytes) {
        std::uint64_t lines = std::max<std::uint64_t>(
            1, bytes / config_.lineBytes);
        double fills =
            scaler.missCount(reads, lines, spec.includeCold);
        double wmisses =
            scaler.missCount(writes, lines, spec.includeCold);
        return (fills + 2.0 * wmisses) * config_.lineBytes /
               static_cast<double>(total_flops);
    });
}

MissClassCurves
Multiprocessor::readMissClassCurves(const CurveSpec &spec) const
{
    checkSpecSampling(spec);
    ProcStats agg = aggregateStats();
    approx::ApproxCurve scaler(samplingDiagnostics());
    approx::SampledCounts counts = readCounts(agg);
    MissClassCurves out;
    out.cacheSizesBytes = spec.cacheSizesBytes;
    out.points.reserve(spec.cacheSizesBytes.size());
    for (std::uint64_t bytes : spec.cacheSizesBytes) {
        std::uint64_t lines =
            std::max<std::uint64_t>(1, bytes / config_.lineBytes);
        MissClassPoint p;
        p.cold = scaler.scaledCount(counts, agg.readCold);
        p.capacity = scaler.scaledCount(
            counts,
            config_.profiler == memsys::ProfilerKind::Aet
                ? aetReadMisses(lines, false) - agg.readCoherence
                : agg.readDistances.countAtLeast(lines));
        p.trueSharing =
            scaler.scaledCount(counts, agg.readTrueSharing);
        p.falseSharing =
            scaler.scaledCount(counts, agg.readFalseSharing);
        out.points.push_back(p);
    }
    return out;
}

MissClassPoint
Multiprocessor::readMissClassesAt(std::uint64_t capacity_lines) const
{
    CurveSpec spec;
    spec.cacheSizesBytes = {capacity_lines * config_.lineBytes};
    spec.sampling = config_.sampling;
    return readMissClassCurves(spec).points.front();
}

std::vector<SharingSummary>
Multiprocessor::procSummaries() const
{
    std::vector<SharingSummary> out;
    out.reserve(config_.numProcs);
    for (std::uint32_t p = 0; p < config_.numProcs; ++p) {
        const ProcStats &st = stats_[p];
        SharingSummary s;
        // Bind to an lvalue: the const char* + string&& overload trips
        // GCC 12's -Wrestrict false positive (PR 105651).
        std::string pid = std::to_string(p);
        s.name = "p" + pid;
        s.reads = st.reads;
        s.writes = st.writes;
        s.readCold = st.readCold;
        s.writeCold = st.writeCold;
        s.readTrueSharing = st.readTrueSharing;
        s.readFalseSharing = st.readFalseSharing;
        s.writeTrueSharing = st.writeTrueSharing;
        s.writeFalseSharing = st.writeFalseSharing;
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<SharingSummary>
Multiprocessor::arraySummaries() const
{
    std::vector<SharingSummary> out;
    if (!space_)
        return out;
    const auto &segments = space_->segments();
    out.resize(segments.size());
    for (std::size_t i = 0; i < segments.size(); ++i) {
        if (i < arrayStats_.size())
            out[i] = arrayStats_[i];
        out[i].name = segments[i].name;
    }
    if (unmappedStats_.reads + unmappedStats_.writes > 0) {
        out.push_back(unmappedStats_);
        out.back().name = "(unmapped)";
    }
    return out;
}

std::uint64_t
Multiprocessor::footprintBytes(ProcId pid) const
{
    return profilers_[pid].estimatedTouchedLines() * config_.lineBytes;
}

approx::SamplingDiagnostics
Multiprocessor::samplingDiagnostics() const
{
    approx::SamplingDiagnostics diag;
    diag.config = config_.sampling;
    diag.profiler = config_.profiler;
    double weighted_rate = 0.0;
    for (const auto &prof : profilers_) {
        diag.totalRefs += prof.totalRefs();
        diag.sampledRefs += prof.sampledRefs();
        diag.sampledLines += prof.trackedLines();
        diag.profilerBytes += prof.memoryBytes();
        weighted_rate += prof.effectiveRate() *
                         static_cast<double>(prof.totalRefs());
    }
    diag.effectiveRate =
        diag.totalRefs > 0
            ? weighted_rate / static_cast<double>(diag.totalRefs)
            : (config_.sampling.mode == approx::SamplingMode::FixedRate
                   ? config_.sampling.rate
                   : 1.0);
    return diag;
}

std::uint64_t
Multiprocessor::maxFootprintBytes() const
{
    std::uint64_t m = 0;
    for (std::uint32_t p = 0; p < config_.numProcs; ++p)
        m = std::max(m, footprintBytes(p));
    return m;
}

memsys::HierarchyStats
Multiprocessor::hierarchyStats() const
{
    memsys::HierarchyStats agg;
    for (const memsys::TwoLevelCache *node : nodeCaches_) {
        agg.accesses += node->stats().accesses;
        agg.l1Misses += node->stats().l1Misses;
        agg.l2Misses += node->stats().l2Misses;
    }
    return agg;
}

double
Multiprocessor::concreteReadMissRate() const
{
    ProcStats agg = aggregateStats();
    if (agg.reads == 0)
        return 0.0;
    return static_cast<double>(agg.concreteReadMisses) /
           static_cast<double>(agg.reads);
}

std::vector<std::uint64_t>
sweepSizes(std::uint64_t min_bytes, std::uint64_t max_bytes,
           int points_per_octave, std::uint32_t line_bytes)
{
    std::vector<std::uint64_t> sizes;
    if (min_bytes < line_bytes)
        min_bytes = line_bytes;
    double factor = std::exp2(1.0 / points_per_octave);
    double x = static_cast<double>(min_bytes);
    while (x <= static_cast<double>(max_bytes) * 1.0001) {
        auto bytes = static_cast<std::uint64_t>(std::llround(x));
        bytes = (bytes / line_bytes) * line_bytes;
        if (bytes >= line_bytes &&
            (sizes.empty() || bytes > sizes.back())) {
            sizes.push_back(bytes);
        }
        x *= factor;
    }
    if (sizes.empty() || sizes.back() < max_bytes)
        sizes.push_back((max_bytes / line_bytes) * line_bytes);
    return sizes;
}

} // namespace wsg::sim
