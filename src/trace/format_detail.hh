/**
 * @file
 * Shared on-disk structures and header/segment-table parsing for the
 * `.wsgtrace` family of formats. Internal to src/trace: trace_file.cc
 * (packed v1/v2 and the format dispatcher) and streaming_reader.cc
 * (block-framed v3) both consume these so a header or segment-table
 * rule is stated exactly once.
 *
 * All versions share the same leading layout: a 16-byte HeaderV1
 * ("WSGTRACE", version, processor count), and from v2 on a 16-byte
 * HeaderV2Ext (record count finalized on close, segment-table offset).
 * What differs is the body between the header and the segment table —
 * packed 16-byte records in v1/v2, CRC-framed compressed blocks in v3.
 */

#ifndef WSG_TRACE_FORMAT_DETAIL_HH
#define WSG_TRACE_FORMAT_DETAIL_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/address_space.hh"
#include "trace/memref.hh"
#include "trace/varint.hh"

namespace wsg::trace::detail
{

/** Magic bytes identifying a wsg trace file (every version). */
constexpr char kTraceFileMagic[8] = {'W', 'S', 'G', 'T',
                                     'R', 'A', 'C', 'E'};

/** Header record-count value of a writer that never finalized. */
constexpr std::uint64_t kUnfinalizedCount = ~std::uint64_t{0};

/** Packed v1/v2 on-disk record: 16 bytes, little-endian (host order;
 *  the tool chain targets a single host family). */
struct PackedRecord
{
    std::uint64_t addr;
    std::uint32_t bytes;
    std::uint16_t pid;
    std::uint8_t type;
    std::uint8_t pad;
};
static_assert(sizeof(PackedRecord) == 16,
              "trace record must pack to 16 B");

/** On-disk record type, shared by the packed records of v1/v2 and the
 *  per-record tag bytes of v3. 0/1 mirror RefType; 2..4 are sync
 *  events. */
enum RecordType : std::uint8_t
{
    kRecRead = 0,
    kRecWrite = 1,
    kRecBarrier = 2,
    kRecLockAcquire = 3,
    kRecLockRelease = 4,
    kRecTypeCount,
};

inline std::uint8_t
syncRecordType(SyncKind kind)
{
    switch (kind) {
    case SyncKind::Barrier:
        return kRecBarrier;
    case SyncKind::LockAcquire:
        return kRecLockAcquire;
    default:
        return kRecLockRelease;
    }
}

/** Fields shared by every version (the whole v1 header). */
struct HeaderV1
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t numProcs;
};
static_assert(sizeof(HeaderV1) == 16, "trace header must pack to 16 B");

/** v2+ extension: record count (finalized on close) + segment-table
 *  offset (0 = no table; was reserved-and-zero before the table
 *  existed, so older v2 files parse identically). */
struct HeaderV2Ext
{
    std::uint64_t recordCount;
    std::uint64_t segmentTableOffset;
};
static_assert(sizeof(HeaderV2Ext) == 16,
              "v2 header extension must pack to 16 B");

constexpr std::uint64_t kRecordCountOffset = sizeof(HeaderV1);
constexpr std::uint64_t kSegmentTableOffsetOffset =
    sizeof(HeaderV1) + sizeof(std::uint64_t);

/** Segment-table entry prefix (the name's bytes follow it). */
struct SegmentEntry
{
    std::uint64_t base;
    std::uint64_t bytes;
    std::uint32_t nameLen;
};

/**
 * v3 block frame, preceding each compressed payload. The CRC covers
 * the payload bytes only: the frame fields themselves are validated
 * structurally (payload must lie inside the body) by the open-time
 * frame walk.
 */
struct BlockFrame
{
    std::uint32_t payloadBytes;
    std::uint32_t recordCount;
    std::uint32_t crc;
};
static_assert(sizeof(BlockFrame) == 12,
              "v3 block frame must pack to 12 B");

/** Writer flushes a block once its payload reaches this size; the
 *  reader's peak memory is one block, so this bounds replay RSS. */
constexpr std::size_t kStreamBlockTargetBytes = std::size_t{1} << 16;

/** Longest encoded v3 record: a tag byte and at most three varints.
 *  The writer's block buffer holds the flush target plus this much, so
 *  the record that crosses the target always fits. */
constexpr std::size_t kStreamMaxRecordBytes = 1 + 3 * kMaxVarintBytes;

/** Hard upper bound a reader accepts for one block's payload. No
 *  well-formed writer comes near it (flush target + one record); a
 *  frame above it is corruption, caught before allocating. */
constexpr std::size_t kStreamMaxPayloadBytes = std::size_t{1} << 24;

/** Everything the fixed-size headers say, plus derived geometry. */
struct ParsedHeader
{
    std::uint32_t version = 0;
    std::uint32_t numProcs = 0;
    /** Bytes of header actually present (16 for v1, 32 for v2+). */
    std::uint64_t headerBytes = 0;
    /** Raw header record count (kUnfinalizedCount when not patched). */
    std::uint64_t headerCount = kUnfinalizedCount;
    std::uint64_t segmentTableOffset = 0;
    std::uint64_t fileBytes = 0;
    /** First byte past the record body: the segment-table offset when
     *  a table exists, the file size otherwise. */
    std::uint64_t bodyEnd = 0;
};

/**
 * Read and validate the fixed-size header of @p in (opened on
 * @p path), leaving the stream positioned at the start of the body.
 * Accepts versions 1–3 and validates the segment-table offset against
 * the file size; body-layout validation is per-format, left to the
 * caller.
 */
inline ParsedHeader
readTraceHeader(std::ifstream &in, const std::string &path)
{
    ParsedHeader parsed;
    in.seekg(0, std::ios::end);
    parsed.fileBytes = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);

    HeaderV1 h{};
    in.read(reinterpret_cast<char *>(&h), sizeof(h));
    if (!in || std::memcmp(h.magic, kTraceFileMagic,
                           sizeof(kTraceFileMagic)) != 0) {
        throw std::runtime_error("TraceReader: bad magic in " + path);
    }
    if (h.version < 1 || h.version > 3) {
        throw std::runtime_error("TraceReader: unsupported version " +
                                 std::to_string(h.version) + " in " +
                                 path);
    }
    parsed.version = h.version;
    parsed.numProcs = h.numProcs;
    parsed.headerBytes = sizeof(HeaderV1);

    if (h.version >= 2) {
        HeaderV2Ext ext{};
        in.read(reinterpret_cast<char *>(&ext), sizeof(ext));
        if (!in) {
            throw std::runtime_error(
                "TraceReader: truncated header in " + path + " (" +
                std::to_string(parsed.fileBytes) + " bytes, v2 needs " +
                std::to_string(sizeof(HeaderV1) + sizeof(HeaderV2Ext)) +
                ")");
        }
        parsed.headerBytes += sizeof(HeaderV2Ext);
        parsed.headerCount = ext.recordCount;
        parsed.segmentTableOffset = ext.segmentTableOffset;
    }

    parsed.bodyEnd = parsed.fileBytes;
    if (parsed.segmentTableOffset != 0) {
        // At minimum the table holds its 4-byte segment count.
        if (parsed.segmentTableOffset < parsed.headerBytes ||
            parsed.segmentTableOffset + sizeof(std::uint32_t) >
                parsed.fileBytes) {
            throw std::runtime_error(
                "TraceReader: segment table offset " +
                std::to_string(parsed.segmentTableOffset) +
                " is outside " + path + " (" +
                std::to_string(parsed.fileBytes) + " bytes)");
        }
        parsed.bodyEnd = parsed.segmentTableOffset;
    }
    return parsed;
}

/**
 * Decode the segment table @p header points at (no-op when it has
 * none), then reposition @p in at the start of the body.
 */
inline std::vector<Segment>
readSegmentTable(std::ifstream &in, const std::string &path,
                 const ParsedHeader &header)
{
    std::vector<Segment> segments;
    if (header.segmentTableOffset == 0)
        return segments;

    in.seekg(static_cast<std::streamoff>(header.segmentTableOffset));
    std::uint32_t count = 0;
    in.read(reinterpret_cast<char *>(&count), sizeof(count));
    for (std::uint32_t i = 0; in && i < count; ++i) {
        SegmentEntry entry{};
        in.read(reinterpret_cast<char *>(&entry.base),
                sizeof(entry.base));
        in.read(reinterpret_cast<char *>(&entry.bytes),
                sizeof(entry.bytes));
        in.read(reinterpret_cast<char *>(&entry.nameLen),
                sizeof(entry.nameLen));
        if (!in || entry.nameLen > header.fileBytes)
            break;
        std::string name(entry.nameLen, '\0');
        in.read(name.data(),
                static_cast<std::streamsize>(entry.nameLen));
        if (!in)
            break;
        segments.push_back(Segment{name, entry.base, entry.bytes});
    }
    if (!in || segments.size() != count) {
        throw std::runtime_error(
            "TraceReader: malformed segment table in " + path +
            " (declares " + std::to_string(count) +
            " segments, decoded " + std::to_string(segments.size()) +
            ")");
    }
    in.clear();
    in.seekg(static_cast<std::streamoff>(header.headerBytes));
    return segments;
}

} // namespace wsg::trace::detail

#endif // WSG_TRACE_FORMAT_DETAIL_HH
