/**
 * @file
 * Tests for the binary trace file writer/reader.
 */

#include <array>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <random>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/multiprocessor.hh"
#include "trace/crc32.hh"
#include "trace/format_detail.hh"
#include "trace/sinks.hh"
#include "trace/streaming_reader.hh"
#include "trace/trace_file.hh"
#include "trace/varint.hh"

using namespace wsg::trace;

namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Keyed by test name AND pid: ctest runs each TEST_F as its
        // own process, possibly concurrently (-j), and parallel ctest
        // invocations from different build trees share TempDir() —
        // any fixed name lets one test's TearDown unlink a file
        // another test is still replaying.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "wsg_trace_" +
                std::string(info->name()) + "_" +
                std::to_string(::getpid()) + ".bin";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

} // namespace

TEST_F(TraceFileTest, RoundTripsRecordsExactly)
{
    std::vector<MemRef> refs;
    std::mt19937_64 rng(3);
    for (int i = 0; i < 1000; ++i) {
        MemRef r;
        r.addr = rng();
        r.bytes = static_cast<std::uint32_t>(rng() % 64 + 1);
        r.pid = static_cast<ProcId>(rng() % 8);
        r.type = rng() % 2 ? RefType::Write : RefType::Read;
        refs.push_back(r);
    }

    {
        TraceWriter writer(path_, 8);
        for (const auto &r : refs)
            writer.access(r);
        EXPECT_EQ(writer.recordsWritten(), refs.size());
    }

    TraceReader reader(path_);
    EXPECT_EQ(reader.numProcs(), 8u);
    MemRef r;
    std::size_t i = 0;
    while (reader.next(r)) {
        ASSERT_LT(i, refs.size());
        EXPECT_EQ(r.addr, refs[i].addr);
        EXPECT_EQ(r.bytes, refs[i].bytes);
        EXPECT_EQ(r.pid, refs[i].pid);
        EXPECT_EQ(static_cast<int>(r.type),
                  static_cast<int>(refs[i].type));
        ++i;
    }
    EXPECT_EQ(i, refs.size());
}

TEST_F(TraceFileTest, ReplayDeliversEverything)
{
    {
        TraceWriter writer(path_, 2);
        for (int i = 0; i < 100; ++i)
            writer.read(static_cast<ProcId>(i % 2),
                        static_cast<Addr>(i * 8), 8);
    }
    RecordingSink sink;
    TraceReader reader(path_);
    EXPECT_EQ(reader.replay(sink), 100u);
    EXPECT_EQ(sink.refs().size(), 100u);
    EXPECT_EQ(sink.refs()[7].addr, 56u);
}

TEST_F(TraceFileTest, SimulationFromTraceMatchesLive)
{
    // The whole point of trace files: replaying the trace through a
    // fresh simulator reproduces the live run's statistics exactly.
    std::mt19937_64 rng(11);
    wsg::sim::Multiprocessor live({4, 8});
    {
        TraceWriter writer(path_, 4);
        TeeSink tee(writer, live);
        for (int i = 0; i < 20000; ++i) {
            ProcId p = static_cast<ProcId>(rng() % 4);
            Addr a = (rng() % 4096) * 8;
            if (rng() % 4 == 0)
                tee.write(p, a, 8);
            else
                tee.read(p, a, 8);
        }
    }

    wsg::sim::Multiprocessor replayed({4, 8});
    TraceReader reader(path_);
    reader.replay(replayed);

    auto a = live.aggregateStats();
    auto b = replayed.aggregateStats();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.readCold, b.readCold);
    EXPECT_EQ(a.readCoherence, b.readCoherence);
    for (std::uint64_t c : {1ull, 16ull, 256ull, 4096ull})
        EXPECT_EQ(a.readMissesAt(c), b.readMissesAt(c)) << c;
}

TEST_F(TraceFileTest, RejectsMissingAndCorruptFiles)
{
    EXPECT_THROW(TraceReader("/nonexistent/file.bin"),
                 std::runtime_error);
    {
        std::ofstream bad(path_, std::ios::binary);
        bad << "NOTATRACEFILE###";
    }
    EXPECT_THROW(TraceReader reader(path_), std::runtime_error);
}

TEST_F(TraceFileTest, EmptyTraceIsValid)
{
    {
        TraceWriter writer(path_, 1);
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.recordCount(), 0u);
    EXPECT_TRUE(reader.finalized());
    MemRef r;
    EXPECT_FALSE(reader.next(r));
}

namespace
{

/** One packed v2 record (a sync record stores its object in addr). */
detail::PackedRecord
packed(std::uint8_t type, ProcId pid, std::uint64_t addr,
       std::uint32_t bytes = 8)
{
    detail::PackedRecord r{};
    r.addr = addr;
    r.bytes = bytes;
    r.pid = static_cast<std::uint16_t>(pid);
    r.type = type;
    return r;
}

/**
 * Write a finalized packed v2 trace holding @p records and return its
 * byte size. TraceWriter emits v3 only; v2 stays a read-only format,
 * so its files are assembled here from the on-disk structures.
 */
std::uint64_t
writePackedTrace(const std::string &path, std::uint32_t num_procs,
                 const std::vector<detail::PackedRecord> &records)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    detail::HeaderV1 h{};
    std::memcpy(h.magic, kTraceMagic, sizeof(kTraceMagic));
    h.version = kTraceVersionPacked;
    h.numProcs = num_procs;
    detail::HeaderV2Ext ext{};
    ext.recordCount = records.size();
    out.write(reinterpret_cast<const char *>(&h), sizeof(h));
    out.write(reinterpret_cast<const char *>(&ext), sizeof(ext));
    out.write(reinterpret_cast<const char *>(records.data()),
              static_cast<std::streamsize>(records.size() *
                                           sizeof(records[0])));
    return sizeof(h) + sizeof(ext) + records.size() * sizeof(records[0]);
}

/**
 * Write a small valid v2 trace of stride-8 reads and return its byte
 * size. The corruption tests below poke bytes at fixed v2 offsets
 * (32-byte header + 16-byte records), which v3 does not have.
 */
std::uint64_t
writeSmallPackedTrace(const std::string &path, int records)
{
    std::vector<detail::PackedRecord> body;
    for (int i = 0; i < records; ++i)
        body.push_back(packed(detail::kRecRead, static_cast<ProcId>(i % 2),
                              static_cast<std::uint64_t>(i) * 8));
    return writePackedTrace(path, 2, body);
}

/** The same stride-8 reads as a v3 trace; returns its byte size. */
std::uint64_t
writeSmallTrace(const std::string &path, int records)
{
    TraceWriter writer(path, 2);
    for (int i = 0; i < records; ++i)
        writer.read(static_cast<ProcId>(i % 2),
                    static_cast<Addr>(i * 8), 8);
    writer.close();
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return static_cast<std::uint64_t>(in.tellg());
}

/** Truncate the file at @p path to @p bytes. */
void
truncateFile(const std::string &path, std::uint64_t bytes)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> data(bytes);
    in.read(data.data(), static_cast<std::streamsize>(bytes));
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(bytes));
}

/** Overwrite 8 bytes at @p offset with @p value. */
void
patchU64(const std::string &path, std::uint64_t offset,
         std::uint64_t value)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

} // namespace

TEST_F(TraceFileTest, RecordsFinalizedCountInHeader)
{
    writeSmallPackedTrace(path_, 7);
    TraceReader reader(path_);
    EXPECT_EQ(reader.recordCount(), 7u);
    EXPECT_TRUE(reader.finalized());
}

TEST_F(TraceFileTest, RejectsPartialTrailingRecord)
{
    // Classic lost-write truncation: the file ends mid-record.
    std::uint64_t size = writeSmallPackedTrace(path_, 5);
    truncateFile(path_, size - 7);
    try {
        TraceReader reader(path_);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("partial trailing record"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(TraceFileTest, RejectsRecordCountMismatch)
{
    // Whole records lost (e.g. a torn copy): the finalized header
    // count disagrees with the file size.
    std::uint64_t size = writeSmallPackedTrace(path_, 5);
    truncateFile(path_, size - 2 * 16);
    try {
        TraceReader reader(path_);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("record count mismatch"), std::string::npos)
            << what;
        EXPECT_NE(what.find("header says 5"), std::string::npos) << what;
        EXPECT_NE(what.find("holds 3"), std::string::npos) << what;
    }
}

TEST_F(TraceFileTest, RejectsTruncatedHeader)
{
    writeSmallPackedTrace(path_, 1);
    truncateFile(path_, 20); // v2 magic intact, header cut short
    EXPECT_THROW(TraceReader reader(path_), std::runtime_error);
}

TEST_F(TraceFileTest, AcceptsUnfinalizedTraceFromCrashedWriter)
{
    // A writer that never reached close() leaves the sentinel count;
    // the trace must stay replayable (crash forensics), just flagged.
    writeSmallPackedTrace(path_, 4);
    patchU64(path_, 16, ~std::uint64_t{0});
    TraceReader reader(path_);
    EXPECT_FALSE(reader.finalized());
    EXPECT_EQ(reader.recordCount(), 4u);
    RecordingSink sink;
    EXPECT_EQ(reader.replay(sink), 4u);
}

TEST_F(TraceFileTest, RoundTripsSyncEventsAndSegmentTable)
{
    SharedAddressSpace space;
    Addr base = space.allocate("cg.x", 256);
    {
        TraceWriter writer(path_, 4);
        writer.attachAddressSpace(&space);
        writer.write(1, base, 8);
        writer.barrier(7);
        writer.lockAcquire(2, 0xAB);
        writer.read(3, base + 8, 8);
        writer.lockRelease(2, 0xAB);
        EXPECT_EQ(writer.recordsWritten(), 5u);
    }

    TraceReader reader(path_);
    EXPECT_EQ(reader.recordCount(), 5u);
    ASSERT_EQ(reader.segments().size(), 1u);
    EXPECT_EQ(reader.segments()[0].name, "cg.x");
    EXPECT_EQ(reader.segments()[0].base, base);
    EXPECT_EQ(reader.segments()[0].bytes, 256u);

    RecordingSink sink;
    EXPECT_EQ(reader.replay(sink), 5u);
    ASSERT_EQ(sink.refs().size(), 2u);
    EXPECT_EQ(sink.refs()[0].pid, 1u);
    EXPECT_EQ(sink.refs()[1].addr, base + 8);
    ASSERT_EQ(sink.syncs().size(), 3u);
    EXPECT_EQ(static_cast<int>(sink.syncs()[0].kind),
              static_cast<int>(SyncKind::Barrier));
    EXPECT_EQ(sink.syncs()[0].object, 7u);
    EXPECT_EQ(static_cast<int>(sink.syncs()[1].kind),
              static_cast<int>(SyncKind::LockAcquire));
    EXPECT_EQ(sink.syncs()[1].pid, 2u);
    EXPECT_EQ(sink.syncs()[1].object, 0xABu);
    EXPECT_EQ(static_cast<int>(sink.syncs()[2].kind),
              static_cast<int>(SyncKind::LockRelease));
}

TEST_F(TraceFileTest, NextSkipsSyncRecords)
{
    {
        TraceWriter writer(path_, 2);
        writer.barrier();
        writer.read(0, 0x10, 8);
        writer.barrier();
        writer.write(1, 0x20, 8);
    }
    TraceReader reader(path_);
    MemRef r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.addr, 0x10u);
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.addr, 0x20u);
    EXPECT_FALSE(reader.next(r));
}

TEST_F(TraceFileTest, RejectsSyncRecordWithOutOfRangeProcessorId)
{
    // A flipped pid in a *sync* record would silently corrupt a
    // happens-before analysis (it indexes per-processor clocks), so
    // the reader must reject it as corruption rather than deliver it.
    writePackedTrace(path_, 2,
                     {packed(detail::kRecRead, 0, 0x10),
                      packed(detail::kRecLockAcquire, 1, 0xAB, 0),
                      packed(detail::kRecRead, 1, 0x18)});
    // Record layout (detail::PackedRecord): 32-byte v2 header, 16-byte
    // records with the 2-byte pid at offset 12. Patch the lock
    // record's pid (record index 1) to a processor the header does
    // not declare.
    {
        std::fstream f(path_,
                       std::ios::binary | std::ios::in | std::ios::out);
        std::uint16_t bad_pid = 9;
        f.seekp(32 + 1 * 16 + 12);
        f.write(reinterpret_cast<const char *>(&bad_pid),
                sizeof(bad_pid));
    }

    TraceReader reader(path_);
    RecordingSink sink;
    try {
        reader.replay(sink);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("out-of-range processor id 9"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("declares 2 processors"), std::string::npos)
            << what;
        EXPECT_NE(what.find("at record 1"), std::string::npos) << what;
    }
    // The record before the corrupt one was still delivered.
    EXPECT_EQ(sink.refs().size(), 1u);
}

TEST_F(TraceFileTest, RejectsUnknownRecordType)
{
    writePackedTrace(path_, 2, {packed(detail::kRecRead, 0, 0x10)});
    {
        std::fstream f(path_,
                       std::ios::binary | std::ios::in | std::ios::out);
        std::uint8_t bad_type = 0x7F;
        f.seekp(32 + 14); // type byte of record 0
        f.write(reinterpret_cast<const char *>(&bad_type),
                sizeof(bad_type));
    }
    TraceReader reader(path_);
    TraceRecord record;
    EXPECT_THROW(reader.nextRecord(record), std::runtime_error);
}

TEST_F(TraceFileTest, RejectsUnsupportedVersion)
{
    writeSmallPackedTrace(path_, 1);
    std::fstream f(path_,
                   std::ios::binary | std::ios::in | std::ios::out);
    std::uint32_t bad_version = 99;
    f.seekp(8);
    f.write(reinterpret_cast<const char *>(&bad_version),
            sizeof(bad_version));
    f.close();
    EXPECT_THROW(TraceReader reader(path_), std::runtime_error);
}

// ---------------------------------------------------------------------
// Streaming v3: the block-framed default format.
// ---------------------------------------------------------------------

namespace
{

/** Read the little-endian u32 at @p offset (e.g. the version field). */
std::uint32_t
readU32At(const std::string &path, std::uint64_t offset)
{
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(offset));
    std::uint32_t value = 0;
    in.read(reinterpret_cast<char *>(&value), sizeof(value));
    return value;
}

/** XOR one byte at @p offset (minimal bit-rot injection). */
void
corruptByte(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
}

} // namespace

TEST_F(TraceFileTest, WritesStreamingV3ByDefault)
{
    {
        TraceWriter writer(path_, 2);
        writer.read(0, 0x10, 8);
    }
    EXPECT_EQ(readU32At(path_, 8), 3u); // version field
}

TEST_F(TraceFileTest, ExplicitPackedV2StillRoundTrips)
{
    // v2 is read-only: a packed file assembled from the on-disk
    // structures must still replay through TraceReader.
    writePackedTrace(path_, 2,
                     {packed(detail::kRecRead, 0, 0x10),
                      packed(detail::kRecBarrier, 0, 3, 0),
                      packed(detail::kRecWrite, 1, 0x20)});
    EXPECT_EQ(readU32At(path_, 8), 2u); // version field
    TraceReader reader(path_);
    EXPECT_EQ(reader.recordCount(), 3u);
    RecordingSink sink;
    EXPECT_EQ(reader.replay(sink), 3u);
    EXPECT_EQ(sink.refs().size(), 2u);
    EXPECT_EQ(sink.syncs().size(), 1u);
}

TEST_F(TraceFileTest, StreamingCompressesBelowPackedSize)
{
    // Sequential stride-8 reads delta-encode to a few bytes each; the
    // v3 file must land well under the packed 16 bytes per record.
    const int records = 10000;
    writeSmallTrace(path_, records);
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    auto size = static_cast<std::uint64_t>(in.tellg());
    EXPECT_LT(size, 32u + static_cast<std::uint64_t>(records) * 16u);

    TraceReader reader(path_);
    EXPECT_EQ(reader.recordCount(), static_cast<std::uint64_t>(records));
    EXPECT_TRUE(reader.finalized());
    MemRef r;
    std::uint64_t seen = 0;
    while (reader.next(r)) {
        EXPECT_EQ(r.addr, seen * 8);
        ++seen;
    }
    EXPECT_EQ(seen, static_cast<std::uint64_t>(records));
}

TEST_F(TraceFileTest, StreamingSplitsLongTracesIntoBoundedBlocks)
{
    // Enough records to overflow the 64 KiB flush target several
    // times: the reader must see multiple blocks, none outlandishly
    // larger than the target (peak replay memory is one block).
    const int records = 120000;
    writeSmallTrace(path_, records);

    StreamingTraceReader reader(path_);
    EXPECT_GT(reader.blockCount(), 1u);
    EXPECT_LE(reader.maxBlockBytes(), (std::size_t{1} << 16) + 64);
    RecordingSink sink;
    EXPECT_EQ(reader.replay(sink),
              static_cast<std::uint64_t>(records));
    EXPECT_EQ(reader.blocksRead(), reader.blockCount());
}

TEST_F(TraceFileTest, StreamingReaderRefusesPackedTraces)
{
    // The format-agnostic entry point is TraceReader; the raw
    // streaming reader names it when handed the wrong version.
    writeSmallPackedTrace(path_, 3);
    try {
        StreamingTraceReader reader(path_);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("use TraceReader"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(TraceFileTest, StreamingRejectsTornBlockFrame)
{
    // Torn write, variant 1: the file ends inside a 12-byte block
    // frame. Same open-time rejection contract as v2's partial
    // trailing record.
    writeSmallTrace(path_, 5);
    truncateFile(path_, 32 + 6);
    patchU64(path_, 16, ~std::uint64_t{0});  // crashed-writer header
    patchU64(path_, 24, 0);                  // no segment table
    try {
        TraceReader reader(path_);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("partial trailing block"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(TraceFileTest, StreamingRejectsTornBlockPayload)
{
    // Torn write, variant 2: a whole frame whose declared payload runs
    // past end-of-file.
    std::uint64_t size =
        writeSmallTrace(path_, 5);
    truncateFile(path_, size - 3);
    patchU64(path_, 16, ~std::uint64_t{0});
    patchU64(path_, 24, 0);
    try {
        TraceReader reader(path_);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("partial trailing block"), std::string::npos)
            << what;
        EXPECT_NE(what.find("payload bytes"), std::string::npos) << what;
    }
}

TEST_F(TraceFileTest, StreamingAcceptsUnfinalizedWholeBlocks)
{
    // A crashed v3 writer leaves whole flushed blocks and a sentinel
    // count; like v2, the trace must stay replayable, just flagged.
    writeSmallTrace(path_, 7);
    patchU64(path_, 16, ~std::uint64_t{0});
    patchU64(path_, 24, 0);
    TraceReader reader(path_);
    EXPECT_FALSE(reader.finalized());
    EXPECT_EQ(reader.recordCount(), 7u); // recovered from block frames
    RecordingSink sink;
    EXPECT_EQ(reader.replay(sink), 7u);
}

TEST_F(TraceFileTest, StreamingRejectsRecordCountMismatch)
{
    // A finalized header that disagrees with the sum of the block
    // frames means records were lost (torn copy) — reject at open.
    writeSmallTrace(path_, 5);
    patchU64(path_, 16, 999);
    try {
        TraceReader reader(path_);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("record count mismatch"), std::string::npos)
            << what;
        EXPECT_NE(what.find("header says 999"), std::string::npos)
            << what;
        EXPECT_NE(what.find("holds 5"), std::string::npos) << what;
    }
}

TEST_F(TraceFileTest, StreamingDetectsPayloadCorruptionPerBlock)
{
    // Open succeeds (the frame walk is structural); the CRC catches
    // the flipped bit when the block is actually loaded, naming it.
    writeSmallTrace(path_, 50);
    corruptByte(path_, 32 + 12 + 5); // inside block 0's payload
    TraceReader reader(path_);
    MemRef r;
    try {
        while (reader.next(r)) {
        }
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("CRC mismatch in block 0"),
                  std::string::npos)
            << what;
    }
}

TEST_F(TraceFileTest, StreamingRejectsSyncWithOutOfRangeProcessorId)
{
    // The v3 writer does not police pids (the producing sink does), so
    // a corrupt pid can be written directly; the reader must reject it
    // with the same contract as v2.
    {
        TraceWriter writer(path_, 2);
        writer.read(0, 0x10, 8);
        writer.lockAcquire(9, 0xAB);
    }
    TraceReader reader(path_);
    RecordingSink sink;
    try {
        reader.replay(sink);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("out-of-range processor id 9"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("declares 2 processors"), std::string::npos)
            << what;
        EXPECT_NE(what.find("at record 1"), std::string::npos) << what;
    }
    EXPECT_EQ(sink.refs().size(), 1u);
}

// ---------------------------------------------------------------------
// The v3 codec: CRC, varint bounds, pinned writer bytes, batched replay.
// ---------------------------------------------------------------------

namespace
{

/** The textbook one-byte-per-lookup CRC-32, kept as the reference the
 *  slice-by-8 implementation must agree with. */
std::uint32_t
bytewiseCrc32(const unsigned char *p, std::size_t n)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
    return crc ^ 0xFFFFFFFFu;
}

/**
 * Write a finalized v3 trace whose body is one block holding the
 * crafted @p payload of @p records records, framed with its true CRC:
 * the block passes every structural and CRC check, so whatever the
 * reader rejects is rejected for the record bytes alone.
 */
void
writeCraftedBlock(const std::string &path, std::uint32_t num_procs,
                  const std::string &payload, std::uint32_t records)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    detail::HeaderV1 h{};
    std::memcpy(h.magic, kTraceMagic, sizeof(kTraceMagic));
    h.version = kTraceVersionStreaming;
    h.numProcs = num_procs;
    detail::HeaderV2Ext ext{};
    ext.recordCount = records;
    detail::BlockFrame frame{};
    frame.payloadBytes = static_cast<std::uint32_t>(payload.size());
    frame.recordCount = records;
    frame.crc = crc32(payload.data(), payload.size());
    out.write(reinterpret_cast<const char *>(&h), sizeof(h));
    out.write(reinterpret_cast<const char *>(&ext), sizeof(ext));
    out.write(reinterpret_cast<const char *>(&frame), sizeof(frame));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/** Append one v3 data record (tag, address delta, size, pid). */
void
appendDataRecord(std::string &payload, std::int64_t delta,
                 std::uint64_t bytes, std::uint64_t pid)
{
    payload.push_back(static_cast<char>(detail::kRecRead));
    appendVarint(payload, zigzagEncode(delta));
    appendVarint(payload, bytes);
    appendVarint(payload, pid);
}

/**
 * Expect replaying @p path to throw a diagnostic containing @p why and
 * naming record @p record; return the references delivered before it.
 */
std::size_t
expectRejectedAt(const std::string &path, const std::string &why,
                 std::uint64_t record)
{
    TraceReader reader(path);
    RecordingSink sink;
    try {
        reader.replay(sink);
        ADD_FAILURE() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find(why), std::string::npos) << what;
        std::string at = "at record " + std::to_string(record);
        std::size_t pos = what.find(at);
        std::size_t next = pos + at.size();
        EXPECT_TRUE(pos != std::string::npos &&
                    (next == what.size() ||
                     !std::isdigit(static_cast<unsigned char>(what[next]))))
            << what;
    }
    return sink.refs().size();
}

/** expectRejectedAt for the block/record diagnostic of block 0. */
std::size_t
expectMalformedAt(const std::string &path, std::uint64_t record)
{
    return expectRejectedAt(path, "malformed record in block 0", record);
}

/** Encoded length of @p v as a varint. */
std::size_t
varintLen(std::uint64_t v)
{
    std::size_t n = 1;
    for (; v >= 0x80; v >>= 7)
        ++n;
    return n;
}

/** FNV-1a 64 of a whole file: a digest independent of the codec. */
std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint64_t h = 0xcbf29ce484222325ull;
    char c = 0;
    while (in.get(c)) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Write a deterministic multi-block v3 trace through TraceWriter:
 * strided and random addresses (negative and multi-byte deltas),
 * multi-byte sizes and lock ids, all three sync kinds, and a segment
 * table. The writer's block geometry is tracked alongside, so a
 * barrier lands as the first record of block 1.
 * @return the record index of that boundary barrier.
 */
std::uint64_t
writeGoldenTrace(const std::string &path)
{
    SharedAddressSpace space;
    Addr a = space.allocate("golden.a", std::size_t{1} << 20);
    Addr b = space.allocate("golden.b", 4096);
    TraceWriter writer(path, 4);
    writer.attachAddressSpace(&space);

    std::mt19937_64 rng(17);
    std::size_t block_bytes = 0;
    Addr prev = 0;
    std::uint64_t boundary = 0;
    auto wrote = [&](std::size_t bytes) {
        block_bytes += bytes;
        if (block_bytes < detail::kStreamBlockTargetBytes)
            return;
        block_bytes = 0;
        prev = 0;
        if (boundary == 0) {
            boundary = writer.recordsWritten();
            writer.barrier(0xB10C);
            block_bytes = 1 + varintLen(0) + varintLen(0xB10C);
        }
    };
    const std::uint32_t sizes[] = {4, 8, 8, 8, 64, 300};
    Addr cursor = a;
    for (int i = 0; i < 30000; ++i) {
        std::uint64_t pick = rng() % 100;
        if (pick < 3) {
            ProcId pid = static_cast<ProcId>(rng() % 4);
            std::uint64_t lock = 0x10000 + rng() % 0x100000;
            writer.lockAcquire(pid, lock);
            wrote(1 + varintLen(pid) + varintLen(lock));
            writer.lockRelease(pid, lock);
            wrote(1 + varintLen(pid) + varintLen(lock));
            continue;
        }
        if (pick < 4) {
            writer.barrier(static_cast<std::uint64_t>(i));
            wrote(1 + varintLen(0) + varintLen(static_cast<std::uint64_t>(i)));
            continue;
        }
        Addr addr = 0;
        if (pick < 80) {
            cursor += 8;
            if (cursor >= a + (std::size_t{1} << 20))
                cursor = a;
            addr = cursor;
        } else if (pick < 90) {
            addr = b + (rng() % 512) * 8;
        } else {
            addr = a + (rng() % (std::size_t{1} << 17)) * 8;
        }
        std::uint32_t bytes = sizes[rng() % 6];
        ProcId pid = static_cast<ProcId>(rng() % 4);
        if (rng() % 3 == 0)
            writer.write(pid, addr, bytes);
        else
            writer.read(pid, addr, bytes);
        std::int64_t delta = static_cast<std::int64_t>(addr - prev);
        std::size_t len = 1 + varintLen(zigzagEncode(delta)) +
                          varintLen(bytes) + varintLen(pid);
        prev = addr;
        wrote(len);
    }
    writer.close();
    return boundary;
}

/** One delivered event: a batch of references or a sync. */
struct Delivery
{
    std::vector<MemRef> refs;
    bool isSync = false;
    SyncEvent sync{};
};

/** Logs every call it receives, one Delivery per call. */
class DeliveryLog : public MemorySink
{
  public:
    void access(const MemRef &ref) override { accessBatch(&ref, 1); }

    void
    accessBatch(const MemRef *refs, std::size_t n) override
    {
        log.push_back(Delivery{{refs, refs + n}, false, {}});
    }

    void
    sync(const SyncEvent &event) override
    {
        log.push_back(Delivery{{}, true, event});
    }

    std::vector<Delivery> log;
};

void
expectSameDeliveries(const std::vector<Delivery> &a,
                     const std::vector<Delivery> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].isSync, b[i].isSync) << "delivery " << i;
        if (a[i].isSync) {
            EXPECT_EQ(static_cast<int>(a[i].sync.kind),
                      static_cast<int>(b[i].sync.kind));
            EXPECT_EQ(a[i].sync.pid, b[i].sync.pid);
            EXPECT_EQ(a[i].sync.object, b[i].sync.object);
            continue;
        }
        ASSERT_EQ(a[i].refs.size(), b[i].refs.size()) << "delivery " << i;
        for (std::size_t j = 0; j < a[i].refs.size(); ++j) {
            const MemRef &x = a[i].refs[j];
            const MemRef &y = b[i].refs[j];
            ASSERT_TRUE(x.addr == y.addr && x.bytes == y.bytes &&
                        x.pid == y.pid && x.type == y.type)
                << "delivery " << i << " ref " << j;
        }
    }
}

} // namespace

TEST(TraceCrc32, MatchesCheckValueAndBytewiseReference)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);

    std::array<unsigned char, 320> buf{};
    std::mt19937_64 rng(5);
    for (auto &byte : buf)
        byte = static_cast<unsigned char>(rng());
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t n = 0; n <= 300; ++n) {
            ASSERT_EQ(crc32(buf.data() + offset, n),
                      bytewiseCrc32(buf.data() + offset, n))
                << "offset " << offset << " length " << n;
        }
    }
}

TEST(TraceVarint, RejectsEncodingsWiderThan64Bits)
{
    auto decode = [](std::string bytes, std::uint64_t &out) {
        const auto *p = reinterpret_cast<const unsigned char *>(bytes.data());
        return readVarint(p, p + bytes.size(), out);
    };
    std::uint64_t v = 0;
    ASSERT_TRUE(decode(std::string(9, '\x80') + '\x01', v));
    EXPECT_EQ(v, std::uint64_t{1} << 63);
    ASSERT_TRUE(decode(std::string(9, '\xFF') + '\x01', v));
    EXPECT_EQ(v, ~std::uint64_t{0});
    EXPECT_FALSE(decode(std::string(9, '\x80') + '\x02', v));
    EXPECT_FALSE(decode(std::string(9, '\x80') + '\x7F', v));
    EXPECT_FALSE(decode(std::string(10, '\x80') + '\x00', v));
}

TEST_F(TraceFileTest, StreamingRejectsAddressDeltaWiderThan64Bits)
{
    // 80x9 02 sets bit 64: a decoder that drops it would replay
    // address 0 instead of rejecting the record.
    std::string payload;
    appendDataRecord(payload, 8, 8, 0);
    payload.push_back(static_cast<char>(detail::kRecRead));
    payload += std::string(9, '\x80') + '\x02';
    appendVarint(payload, 8);
    appendVarint(payload, 0);
    writeCraftedBlock(path_, 2, payload, 2);
    EXPECT_EQ(expectMalformedAt(path_, 1), 1u);
}

TEST_F(TraceFileTest, StreamingRejectsDataFieldsWiderThan32Bits)
{
    // pid 2^32+1 must not replay as pid 1, nor a 2^32-byte access as
    // an empty one.
    std::string payload;
    appendDataRecord(payload, 8, 8, 1);
    appendDataRecord(payload, 8, 8, (std::uint64_t{1} << 32) + 1);
    writeCraftedBlock(path_, 2, payload, 2);
    EXPECT_EQ(expectMalformedAt(path_, 1), 1u);

    payload.clear();
    appendDataRecord(payload, 8, std::uint64_t{1} << 32, 0);
    writeCraftedBlock(path_, 2, payload, 1);
    EXPECT_EQ(expectMalformedAt(path_, 0), 0u);
}

TEST_F(TraceFileTest, StreamingWriterBytesArePinned)
{
    // The on-disk v3 bytes are a contract: traces captured by any
    // build must replay on any other. Size and digest were recorded
    // from the bytewise-CRC, string-buffer writer this one replaced.
    std::uint64_t boundary = writeGoldenTrace(path_);
    ASSERT_GT(boundary, 0u);
    // Block 0's frame (right after the 32-byte header) counts exactly
    // the records before the boundary barrier.
    EXPECT_EQ(readU32At(path_, 32 + 4), boundary);
    StreamingTraceReader reader(path_);
    EXPECT_GE(reader.blockCount(), 3u);
    EXPECT_EQ(reader.segments().size(), 2u);

    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    EXPECT_EQ(static_cast<std::uint64_t>(in.tellg()), 151276u);
    EXPECT_EQ(fileDigest(path_), 0xbf64ccccdb09f592ull);
}

TEST_F(TraceFileTest, StreamingReplayBatchesLikeBatchingSink)
{
    // replay() hands over runs in place of per-record access(); what a
    // sink sees must be exactly what nextRecord() fed through a
    // BatchingSink produces: same references, same sync positions,
    // same batch boundaries, none above the batch capacity. The golden
    // trace has a sync every ~30 records and one at a block boundary;
    // the second trace has 1000-reference runs that fill whole batches
    // and cross block boundaries.
    auto replayBoth = [&] {
        DeliveryLog batched;
        TraceReader reader(path_);
        EXPECT_EQ(reader.replay(batched), reader.recordCount());

        DeliveryLog reference;
        {
            BatchingSink batcher(reference);
            TraceReader records(path_);
            TraceRecord record;
            while (records.nextRecord(record)) {
                if (record.kind == TraceRecord::Kind::Data)
                    batcher.access(record.ref);
                else
                    batcher.sync(record.syncEvent);
            }
        }
        expectSameDeliveries(batched.log, reference.log);
        for (const Delivery &d : batched.log)
            EXPECT_LE(d.refs.size(), BatchingSink::kCapacity);
        return batched.log;
    };

    std::uint64_t boundary = writeGoldenTrace(path_);
    std::uint64_t seen = 0;
    bool boundary_sync = false;
    for (const Delivery &d : replayBoth()) {
        boundary_sync |= d.isSync && seen == boundary;
        seen += d.isSync ? 1 : d.refs.size();
    }
    EXPECT_TRUE(boundary_sync);

    {
        TraceWriter writer(path_, 2);
        for (int i = 0; i < 60000; ++i) {
            writer.write(static_cast<ProcId>(i % 2),
                         static_cast<Addr>(i) * 40, 8);
            if (i % 1000 == 999) {
                writer.barrier(static_cast<std::uint64_t>(i));
                writer.lockAcquire(1, 0xAB);
            }
        }
    }
    ASSERT_GT(StreamingTraceReader(path_).blockCount(), 2u);
    std::size_t full = 0;
    for (const Delivery &d : replayBoth())
        full += d.refs.size() == BatchingSink::kCapacity ? 1 : 0;
    EXPECT_GT(full, 0u);
}

TEST_F(TraceFileTest, StreamingReplayDeliversRunBeforeMalformedRecord)
{
    // A bad record at index 300 sits mid-run (256 + 44): the partial
    // run must reach the sink before the exception, exactly as 300
    // single-record deliveries would have.
    std::string head;
    for (int i = 0; i < 300; ++i)
        appendDataRecord(head, 8, 8, 0);
    std::string tail;
    for (int i = 0; i < 100; ++i)
        appendDataRecord(tail, 8, 8, 0);

    writeCraftedBlock(path_, 2, head + '\x7F' + tail, 401);
    EXPECT_EQ(expectRejectedAt(path_, "unknown record type 127", 300),
              300u);

    std::string overflow = std::string(1, '\x01') +
                           std::string(9, '\x80') + '\x02' + '\x08' +
                           '\x00';
    writeCraftedBlock(path_, 2, head + overflow + tail, 401);
    EXPECT_EQ(expectMalformedAt(path_, 300), 300u);
}
