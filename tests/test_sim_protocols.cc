/**
 * @file
 * Tests for the pluggable coherence protocols (sim/coherence.hh): the
 * MI/MSI/MESI/write-update policy semantics in lockstep on identical
 * synthetic streams, the protocol ordering invariants (MESI misses ==
 * MSI misses <= MI misses; MESI's win is upgrades, not misses), the
 * write-invalidate == MSI aliasing that preserves every golden
 * artifact, and the miss-class sum identity under every protocol.
 */

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/runners.hh"
#include "mattson_misses.hh"
#include "sim/coherence.hh"
#include "sim/multiprocessor.hh"

using namespace wsg;
using namespace wsg::sim;

// ---------------------------------------------------------------------
// Name / parse round trips.
// ---------------------------------------------------------------------

TEST(ProtocolNames, RoundTrip)
{
    for (CoherenceProtocol p :
         {CoherenceProtocol::WriteInvalidate,
          CoherenceProtocol::WriteUpdate, CoherenceProtocol::Mi,
          CoherenceProtocol::Msi, CoherenceProtocol::Mesi})
        EXPECT_EQ(parseCoherenceProtocol(coherenceProtocolName(p)), p);
}

TEST(ProtocolNames, ShortFormsAndErrors)
{
    EXPECT_EQ(parseCoherenceProtocol("wi"),
              CoherenceProtocol::WriteInvalidate);
    EXPECT_EQ(parseCoherenceProtocol("wu"),
              CoherenceProtocol::WriteUpdate);
    EXPECT_THROW(parseCoherenceProtocol("moesi"),
                 std::invalid_argument);
    EXPECT_THROW(parseCoherenceProtocol(""), std::invalid_argument);
}

TEST(ProtocolNames, UnknownNameErrorMentionsNameAndAlternatives)
{
    // The message is part of the CLI contract: it must echo the bad
    // name and list every accepted spelling.
    try {
        parseCoherenceProtocol("dragon");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "unknown coherence protocol 'dragon' (expected "
                     "write-invalidate, write-update, mi, msi or mesi)");
    }
}

// ---------------------------------------------------------------------
// 64-processor boundary: the directory entry is a single u64, so
// pid 63 is the last representable processor and a full sharer mask is
// ~0 — both must work without shift overflow or sign trouble.
// ---------------------------------------------------------------------

TEST(LineStateBoundary, FullSharerMaskAndPid63Exclusive)
{
    const CoherencePolicy &msi = coherencePolicyFor(CoherenceProtocol::Msi);
    LineState line;
    for (std::uint32_t pid = 0; pid < 64; ++pid)
        msi.onAccess(line, pid, /*is_write=*/false);
    EXPECT_EQ(line.sharers, ~std::uint64_t{0});
    EXPECT_EQ(line.exclusivePlusOne, 0u);

    // pid 63 writes: every other processor is invalidated, the write is
    // an upgrade (63 already shared the line), and the exclusive-holder
    // encoding reaches its maximum value 64 without wrapping.
    CoherenceActions actions = msi.onAccess(line, 63, /*is_write=*/true);
    EXPECT_EQ(actions.invalidateMask,
              ~std::uint64_t{0} ^ (std::uint64_t{1} << 63));
    EXPECT_TRUE(actions.upgrade);
    EXPECT_EQ(line.sharers, std::uint64_t{1} << 63);
    EXPECT_EQ(line.exclusivePlusOne, 64u);

    // A later read by pid 0 demotes 63 out of exclusive cleanly.
    msi.onAccess(line, 0, /*is_write=*/false);
    EXPECT_EQ(line.sharers, (std::uint64_t{1} << 63) | 1u);
    EXPECT_EQ(line.exclusivePlusOne, 0u);
}

TEST(LineStateBoundary, SixtyFourProcessorMachineCountsInvalidations)
{
    Multiprocessor mp({64, 8, CoherenceProtocol::Msi});
    for (std::uint32_t pid = 0; pid < 64; ++pid)
        mp.read(pid, 0, 8);
    mp.write(63, 0, 8);
    ProcStats agg = mp.aggregateStats();
    EXPECT_EQ(agg.invalidationsSent, 63u);
    EXPECT_EQ(agg.upgradesSent, 1u);
    EXPECT_EQ(mp.procStats(63).invalidationsSent, 63u);
}

TEST(HierarchySpec, LabelParseRoundTrip)
{
    for (const std::string &label :
         {std::string("single"), std::string("incl:4096:65536"),
          std::string("excl:1024:8192")}) {
        memsys::NodeHierarchySpec spec =
            memsys::parseHierarchySpec(label);
        EXPECT_EQ(memsys::hierarchyLabel(spec), label);
    }
    // "" is accepted as the default spelling of "single".
    EXPECT_EQ(memsys::hierarchyLabel(memsys::parseHierarchySpec("")),
              "single");
}

TEST(HierarchySpec, MalformedRejected)
{
    for (const char *bad :
         {"three-level", "incl:", "incl:4096", "incl:4096:",
          "incl:x:y", "excl:65536:4096", "incl:4096:4096"})
        EXPECT_THROW(memsys::parseHierarchySpec(bad),
                     std::invalid_argument)
            << bad;
}

// ---------------------------------------------------------------------
// Lockstep protocol comparison on identical synthetic streams.
// ---------------------------------------------------------------------

namespace
{

/** Drive one deterministic shared-access stream; same bytes for every
 *  protocol, so counters are directly comparable. */
ProcStats
runStream(CoherenceProtocol protocol, std::uint64_t seed,
          std::uint32_t line_bytes = 32)
{
    Multiprocessor mp({4, line_bytes, protocol});
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 30000; ++i) {
        auto pid = static_cast<ProcId>(rng() % 4);
        trace::Addr addr = (rng() % 512) * 8;
        if (rng() % 3 == 0)
            mp.write(pid, addr, 8);
        else
            mp.read(pid, addr, 8);
    }
    return mp.aggregateStats();
}

constexpr std::uint64_t kSeeds[] = {1, 17, 4242};

} // namespace

TEST(Protocols, WriteInvalidateIsMsiFieldIdentical)
{
    // The paper's write-invalidate model *is* MSI; the alias must be
    // exact on every counter, or the golden artifacts would drift.
    for (std::uint64_t seed : kSeeds) {
        ProcStats wi = runStream(CoherenceProtocol::WriteInvalidate,
                                 seed);
        ProcStats msi = runStream(CoherenceProtocol::Msi, seed);
        EXPECT_EQ(wi.reads, msi.reads);
        EXPECT_EQ(wi.writes, msi.writes);
        EXPECT_EQ(wi.readCold, msi.readCold);
        EXPECT_EQ(wi.writeCold, msi.writeCold);
        EXPECT_EQ(wi.readCoherence, msi.readCoherence);
        EXPECT_EQ(wi.writeCoherence, msi.writeCoherence);
        EXPECT_EQ(wi.readTrueSharing, msi.readTrueSharing);
        EXPECT_EQ(wi.readFalseSharing, msi.readFalseSharing);
        EXPECT_EQ(wi.writeTrueSharing, msi.writeTrueSharing);
        EXPECT_EQ(wi.writeFalseSharing, msi.writeFalseSharing);
        EXPECT_EQ(wi.updatesSent, msi.updatesSent);
        EXPECT_EQ(wi.invalidationsSent, msi.invalidationsSent);
        EXPECT_EQ(wi.upgradesSent, msi.upgradesSent);
    }
}

TEST(Protocols, MesiMatchesMsiMissForMissDiffersOnlyInUpgrades)
{
    // The Exclusive state never changes which lines are where — reads
    // and invalidations evolve identically to MSI — so every miss
    // counter matches. What E buys is *silent* private-write upgrades.
    for (std::uint64_t seed : kSeeds) {
        ProcStats msi = runStream(CoherenceProtocol::Msi, seed);
        ProcStats mesi = runStream(CoherenceProtocol::Mesi, seed);
        EXPECT_EQ(mesi.readCold, msi.readCold);
        EXPECT_EQ(mesi.writeCold, msi.writeCold);
        EXPECT_EQ(mesi.readCoherence, msi.readCoherence);
        EXPECT_EQ(mesi.writeCoherence, msi.writeCoherence);
        EXPECT_EQ(mesi.readTrueSharing, msi.readTrueSharing);
        EXPECT_EQ(mesi.readFalseSharing, msi.readFalseSharing);
        EXPECT_EQ(mesi.writeTrueSharing, msi.writeTrueSharing);
        EXPECT_EQ(mesi.writeFalseSharing, msi.writeFalseSharing);
        EXPECT_EQ(mesi.invalidationsSent, msi.invalidationsSent);
        EXPECT_LE(mesi.upgradesSent, msi.upgradesSent);
    }
}

TEST(Protocols, MiCoherenceDominatesMsi)
{
    // MI has no shared state: a read invalidates every other holder,
    // so read-shared lines ping-pong and coherence misses can only go
    // up relative to MSI. Invalidation traffic likewise.
    for (std::uint64_t seed : kSeeds) {
        ProcStats msi = runStream(CoherenceProtocol::Msi, seed);
        ProcStats mi = runStream(CoherenceProtocol::Mi, seed);
        EXPECT_GE(mi.readCoherence, msi.readCoherence);
        EXPECT_GE(mi.writeCoherence, msi.writeCoherence);
        EXPECT_GE(mi.invalidationsSent, msi.invalidationsSent);
        // This stream genuinely read-shares lines, so the dominance
        // is strict — MI must be visibly worse, not trivially equal.
        EXPECT_GT(mi.readCoherence + mi.writeCoherence,
                  msi.readCoherence + msi.writeCoherence);
    }
}

TEST(Protocols, WriteUpdateHasNoInvalidationMissesOnlyUpdates)
{
    // Write-update never invalidates, so the only coherence misses it
    // sees are first-touch fetches of remotely produced lines — the
    // inherent communication every protocol pays. Scripted: the
    // producer-consumer first touch costs one miss under WU and MSI
    // alike, but the second round trip costs only under MSI.
    {
        Multiprocessor wu({2, 64, CoherenceProtocol::WriteUpdate});
        wu.write(0, 0, 8);
        wu.read(1, 0, 8);  // first touch: inherent communication
        wu.write(0, 0, 8); // update, not invalidation
        wu.read(1, 0, 8);  // still cached: hit
        EXPECT_EQ(wu.procStats(1).readCoherence, 1u);

        Multiprocessor msi({2, 64, CoherenceProtocol::Msi});
        msi.write(0, 0, 8);
        msi.read(1, 0, 8);
        msi.write(0, 0, 8);
        msi.read(1, 0, 8); // invalidation-induced miss
        EXPECT_EQ(msi.procStats(1).readCoherence, 2u);
    }
    for (std::uint64_t seed : kSeeds) {
        ProcStats wu = runStream(CoherenceProtocol::WriteUpdate, seed);
        ProcStats msi = runStream(CoherenceProtocol::Msi, seed);
        EXPECT_EQ(wu.invalidationsSent, 0u);
        EXPECT_EQ(wu.upgradesSent, 0u);
        EXPECT_GT(wu.updatesSent, 0u);
        EXPECT_LE(wu.readCoherence, msi.readCoherence);
        EXPECT_LE(wu.writeCoherence, msi.writeCoherence);
    }
    // Invalidating protocols never send updates.
    EXPECT_EQ(runStream(CoherenceProtocol::Msi, 1).updatesSent, 0u);
    EXPECT_EQ(runStream(CoherenceProtocol::Mi, 1).updatesSent, 0u);
}

TEST(Protocols, PrivateStreamsAreFreeUnderMesiButUpgradeUnderMsi)
{
    // Each processor reads then writes its own disjoint region — the
    // single-writer pattern E exists for. MESI grants E on the read
    // and upgrades silently; MSI grants S and pays an upgrade per
    // read-then-written line. Neither protocol sees sharing misses.
    auto run = [](CoherenceProtocol protocol) {
        Multiprocessor mp({4, 32, protocol});
        for (std::uint32_t pid = 0; pid < 4; ++pid) {
            trace::Addr base = pid * 65536;
            for (int i = 0; i < 256; ++i) {
                mp.read(static_cast<ProcId>(pid), base + i * 8, 8);
                mp.write(static_cast<ProcId>(pid), base + i * 8, 8);
            }
        }
        return mp.aggregateStats();
    };
    ProcStats mesi = run(CoherenceProtocol::Mesi);
    ProcStats msi = run(CoherenceProtocol::Msi);
    EXPECT_EQ(mesi.readCoherence + mesi.writeCoherence, 0u);
    EXPECT_EQ(msi.readCoherence + msi.writeCoherence, 0u);
    EXPECT_EQ(mesi.upgradesSent, 0u);
    EXPECT_GT(msi.upgradesSent, 0u);
}

TEST(Protocols, SumIdentityHoldsUnderEveryProtocol)
{
    // cold + capacity + true + false == total read misses at every
    // swept size, whatever the protocol (WU contributes no sharing at
    // all; MI contributes read-invalidation pendings with empty word
    // masks — classified false sharing — and the identity still
    // closes).
    for (CoherenceProtocol protocol :
         {CoherenceProtocol::WriteInvalidate,
          CoherenceProtocol::WriteUpdate, CoherenceProtocol::Mi,
          CoherenceProtocol::Msi, CoherenceProtocol::Mesi}) {
        SCOPED_TRACE(coherenceProtocolName(protocol));
        Multiprocessor mp({4, 32, protocol});
        std::mt19937_64 rng(909);
        for (int i = 0; i < 30000; ++i) {
            auto pid = static_cast<ProcId>(rng() % 4);
            trace::Addr addr = (rng() % 2048) * 8;
            if (rng() % 4 == 0)
                mp.write(pid, addr, 8);
            else
                mp.read(pid, addr, 8);
        }
        CurveSpec spec;
        spec.cacheSizesBytes = sweepSizes(32, 1 << 20, 4, 32);
        MissClassCurves mc = mp.readMissClassCurves(spec);
        ProcStats agg = mp.aggregateStats();
        EXPECT_EQ(agg.readTrueSharing + agg.readFalseSharing,
                  agg.readCoherence);
        for (std::size_t i = 0; i < mc.points.size(); ++i) {
            std::uint64_t lines = spec.cacheSizesBytes[i] / 32;
            EXPECT_EQ(mc.points[i].total(),
                      static_cast<double>(test::mattsonReadMisses(
                          agg, lines, /*include_cold=*/true)))
                << "at cache size " << spec.cacheSizesBytes[i];
        }
    }
}

// ---------------------------------------------------------------------
// Write-invalidate == MSI at study scale, across all nine apps.
// ---------------------------------------------------------------------

namespace
{

/** Run all nine instrumented applications small, under @p protocol. */
std::vector<std::pair<std::string, core::StudyResult>>
nineAppStudies(CoherenceProtocol protocol)
{
    core::StudyConfig sc;
    sc.minCacheBytes = 16;
    sc.protocol = protocol;

    apps::lu::LuConfig lu;
    lu.n = 64;
    lu.blockSize = 8;
    lu.procRows = 2;
    lu.procCols = 2;

    apps::cg::CgConfig cg;
    cg.n = 64;
    cg.dims = 2;
    cg.procX = 2;
    cg.procY = 2;

    apps::cg::UnstructuredConfig ucg;
    ucg.numVertices = 256;
    ucg.neighbors = 4;
    ucg.numProcs = 4;

    apps::fft::FftConfig fft;
    fft.logN = 10;
    fft.numProcs = 4;
    fft.internalRadix = 8;

    apps::fft::Fft2dConfig fft2d; // 32x32, 4 procs
    apps::fft::Fft3dConfig fft3d; // 8x8x8, 4 procs

    apps::barnes::BarnesConfig barnes;
    barnes.numBodies = 256;
    barnes.numProcs = 4;

    apps::volrend::VolumeDims dims;
    dims.nx = dims.ny = dims.nz = 32;
    apps::volrend::RenderConfig render;
    render.imageWidth = 32;
    render.imageHeight = 32;
    render.numProcs = 4;

    std::vector<std::pair<std::string, core::StudyResult>> studies;
    studies.emplace_back("lu", core::runLuStudy(lu, sc));
    studies.emplace_back("cholesky", core::runCholeskyStudy(lu, sc));
    studies.emplace_back("cg", core::runCgStudy(cg, 2, 1, sc));
    studies.emplace_back("ucg",
                         core::runUnstructuredStudy(ucg, 2, 1, sc));
    studies.emplace_back("fft", core::runFftStudy(fft, 1, 1, sc));
    studies.emplace_back("fft2d",
                         core::runFft2dStudy(fft2d, 1, 1, sc));
    studies.emplace_back("fft3d",
                         core::runFft3dStudy(fft3d, 1, 1, sc));
    studies.emplace_back(
        "barnes", core::runBarnesStudy(barnes, 1, 1, sc, 32));
    studies.emplace_back(
        "volrend", core::runVolrendStudy(dims, render, 1, 1, sc, 16));
    return studies;
}

} // namespace

TEST(ProtocolStudies, WriteInvalidateEqualsMsiOnAllNineApps)
{
    auto wi = nineAppStudies(CoherenceProtocol::WriteInvalidate);
    auto msi = nineAppStudies(CoherenceProtocol::Msi);
    ASSERT_EQ(wi.size(), msi.size());
    for (std::size_t s = 0; s < wi.size(); ++s) {
        SCOPED_TRACE(wi[s].first);
        const core::StudyResult &a = wi[s].second;
        const core::StudyResult &b = msi[s].second;

        const ProcStats &aa = a.aggregate;
        const ProcStats &bb = b.aggregate;
        EXPECT_EQ(aa.reads, bb.reads);
        EXPECT_EQ(aa.writes, bb.writes);
        EXPECT_EQ(aa.readCold, bb.readCold);
        EXPECT_EQ(aa.writeCold, bb.writeCold);
        EXPECT_EQ(aa.readCoherence, bb.readCoherence);
        EXPECT_EQ(aa.writeCoherence, bb.writeCoherence);
        EXPECT_EQ(aa.readTrueSharing, bb.readTrueSharing);
        EXPECT_EQ(aa.readFalseSharing, bb.readFalseSharing);
        EXPECT_EQ(aa.writeTrueSharing, bb.writeTrueSharing);
        EXPECT_EQ(aa.writeFalseSharing, bb.writeFalseSharing);
        EXPECT_EQ(aa.updatesSent, bb.updatesSent);
        EXPECT_EQ(aa.invalidationsSent, bb.invalidationsSent);
        EXPECT_EQ(aa.upgradesSent, bb.upgradesSent);

        // Curves, knees and floor are bit-identical, not just close.
        EXPECT_EQ(a.floorRate, b.floorRate);
        EXPECT_EQ(a.maxFootprintBytes, b.maxFootprintBytes);
        ASSERT_EQ(a.curve.points().size(), b.curve.points().size());
        for (std::size_t i = 0; i < a.curve.points().size(); ++i)
            EXPECT_EQ(a.curve.points()[i].y, b.curve.points()[i].y);
        ASSERT_EQ(a.workingSets.size(), b.workingSets.size());
        for (std::size_t i = 0; i < a.workingSets.size(); ++i)
            EXPECT_EQ(a.workingSets[i].sizeBytes,
                      b.workingSets[i].sizeBytes);

        // The only observable difference is the label they carry.
        EXPECT_EQ(a.protocol, CoherenceProtocol::WriteInvalidate);
        EXPECT_EQ(b.protocol, CoherenceProtocol::Msi);
    }
}
