/**
 * @file
 * Binary trace files: persist a reference stream to disk and replay it
 * later. This decouples trace generation from analysis — the standard
 * workflow of trace-driven simulators — so an expensive application run
 * can be profiled against many machine configurations.
 *
 * Every version opens with a fixed 32-byte header ("WSGTRACE",
 * version, processor count, record count, segment-table offset; v1
 * stops after the first 16 bytes). Record types 0/1 are data
 * reads/writes; types 2/3/4 are synchronization annotations (global
 * barrier, lock acquire, lock release — see trace::SyncEvent), so the
 * file carries the application's intended happens-before structure and
 * an offline race check (analysis::RaceDetector, the wsg-analyze tool)
 * needs nothing but the trace. The record count is patched in when the
 * writer closes; a writer that died mid-run leaves the unfinalized
 * sentinel, which the reader accepts (the body is still
 * size-validated) so a crashed run's trace remains replayable up to
 * its last complete record (v2) or block (v3) boundary.
 *
 * Bodies differ by version:
 *  - v1/v2 (packed): flat 16-byte records (addr, bytes, pid, type).
 *  - v3 (streaming, the only written format): CRC-framed blocks of
 *    delta+varint compressed records — a fraction of the packed size
 *    for real reference streams, readable in O(block) memory, with
 *    corruption detected and reported per block. See
 *    trace/streaming_reader.hh for the block layout.
 *
 * TraceWriter writes v3 only; v1 and v2 are read-only formats, kept so
 * older traces stay replayable. TraceReader reads the version field and
 * handles all three transparently — packed bodies inline, v3 by
 * delegating to a StreamingTraceReader — so consumers never branch on
 * format.
 *
 * When an address space is attached (TraceWriter::attachAddressSpace)
 * the writer appends the named-segment table after the last record on
 * close and points the header's fourth field at it, so offline analyses
 * can attribute addresses to application arrays. A zero offset — which
 * is what pre-segment-table v2 writers left in the then-reserved field
 * — means no table; old files stay readable and old readers ignore the
 * table bytes (they follow the record count).
 *
 * The reader validates up front: a body that is not a whole number of
 * records (v2) or whole sequence of framed blocks (v3) — classic
 * lost-write truncation — a finalized header count that disagrees with
 * the body, and a segment-table offset outside the file all throw
 * std::runtime_error with the numbers spelled out, instead of silently
 * replaying a short or torn trace. Per record, an unknown type byte
 * and a sync event naming a processor id outside the header's
 * processor count are rejected the same way (corrupted sync events
 * would otherwise silently poison a happens-before analysis), and so
 * are a v3 varint wider than 64 bits and a v3 data record whose size
 * or processor id does not fit 32 bits (truncating them would replay
 * a different reference).
 */

#ifndef WSG_TRACE_TRACE_FILE_HH
#define WSG_TRACE_TRACE_FILE_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/address_space.hh"
#include "trace/memref.hh"

namespace wsg::trace
{

class StreamingTraceReader;

/** Magic bytes identifying a wsg trace file. */
constexpr char kTraceMagic[8] = {'W', 'S', 'G', 'T', 'R', 'A', 'C', 'E'};
/** Version of the packed format (flat 16-byte records; read-only). */
constexpr std::uint32_t kTraceVersionPacked = 2;
/** Version of the streaming format (framed blocks). */
constexpr std::uint32_t kTraceVersionStreaming = 3;
/** Version TraceWriter writes (v1/v2 files are still readable). */
constexpr std::uint32_t kTraceVersion = kTraceVersionStreaming;
/** Header record-count value of a writer that never finalized. */
constexpr std::uint64_t kTraceUnfinalizedCount = ~std::uint64_t{0};

/** One decoded trace record: either a data reference or a sync event. */
struct TraceRecord
{
    enum class Kind : std::uint8_t
    {
        Data,
        Sync,
    };
    Kind kind = Kind::Data;
    /** Valid when kind == Data. */
    MemRef ref{};
    /** Valid when kind == Sync. */
    SyncEvent syncEvent{};
};

/** MemorySink that appends every reference and sync event to a v3
 *  trace file. Each record is encoded in place into a fixed block
 *  buffer, which is CRC'd and written out once it reaches the flush
 *  target. */
class TraceWriter : public MemorySink
{
  public:
    /**
     * Open @p path for writing and emit the header (with the record
     * count unfinalized until close()).
     *
     * @param path Output file path.
     * @param num_procs Processor count recorded in the header.
     * @throws std::runtime_error when the file cannot be opened.
     */
    TraceWriter(const std::string &path, std::uint32_t num_procs);

    ~TraceWriter() override;

    void access(const MemRef &ref) override;
    void sync(const SyncEvent &event) override;

    /**
     * Remember @p space so close() appends its named-segment table,
     * making the trace self-describing for per-array attribution. The
     * space must outlive the writer; segments allocated any time
     * before close() are included (the table is serialized at close).
     */
    void
    attachAddressSpace(const SharedAddressSpace *space)
    {
        space_ = space;
    }

    /** Flush any open block, append the segment table (when
     *  attached), patch the header's record count, flush, and close;
     *  further access() calls are invalid. */
    void close();

    /** Records written so far, data and sync alike. */
    std::uint64_t recordsWritten() const { return records_; }

  private:
    /** Append the current block's frame + payload (no-op when the
     *  block is empty) and reset the block state. */
    void flushBlock();

    /** Count the record just encoded; flush at the target size. */
    void endRecord(unsigned char *end);

    std::ofstream out_;
    std::uint64_t records_ = 0;
    const SharedAddressSpace *space_ = nullptr;
    /** The open block: flush target plus one maximal record of room,
     *  of which the first blockBytes_ hold the encoded payload. */
    std::vector<unsigned char> block_;
    std::size_t blockBytes_ = 0;
    std::uint32_t blockRecords_ = 0;
    std::uint64_t prevAddr_ = 0;
};

/** Reads a trace file of any supported version and replays it into a
 *  sink. Packed v1/v2 bodies are read inline; v3 bodies stream through
 *  a StreamingTraceReader in O(block) memory. */
class TraceReader
{
  public:
    /**
     * Open @p path, parse the header (and segment table, if present),
     * and validate the body layout for the file's version.
     * @throws std::runtime_error on open failure, bad magic, an
     *         unsupported version, a truncated header, a torn body
     *         (partial trailing record for v2, partial trailing block
     *         for v3), a finalized record count that disagrees with
     *         the body, or a malformed segment table.
     */
    explicit TraceReader(const std::string &path);

    ~TraceReader();

    /** Processor count recorded when the trace was written. */
    std::uint32_t numProcs() const { return numProcs_; }

    /** Number of records in the file (from the validated body),
     *  counting data and sync records alike. */
    std::uint64_t recordCount() const { return recordCount_; }

    /** False for a trace whose writer never finalized the header
     *  (crashed run) and for legacy v1 traces. */
    bool finalized() const { return finalized_; }

    /** Named segments recorded by the writer (empty when the trace
     *  carries no segment table). */
    const std::vector<Segment> &segments() const { return segments_; }

    /**
     * Read the next record of any kind.
     * @return false at end of the record body.
     * @throws std::runtime_error if the file ends inside a record
     *         (truncated after open-time validation), on a corrupt v3
     *         block (CRC mismatch, overrunning record), on an unknown
     *         record type, or on a sync event whose processor id is
     *         outside the header's processor count.
     */
    bool nextRecord(TraceRecord &record);

    /**
     * Read the next *data* record, silently skipping sync events (the
     * memory-system consumers are sync-oblivious).
     * @return false at end of the record body.
     * @throws std::runtime_error as nextRecord().
     */
    bool next(MemRef &ref);

    /**
     * Replay the remaining records into @p sink: data records via
     * MemorySink::access, sync records via MemorySink::sync.
     * @return the number of records delivered (data + sync).
     */
    std::uint64_t replay(MemorySink &sink);

  private:
    std::ifstream in_;
    std::string path_;
    std::uint32_t numProcs_ = 0;
    std::uint64_t recordCount_ = 0;
    std::uint64_t recordsRead_ = 0;
    bool finalized_ = false;
    std::vector<Segment> segments_;
    /** Engaged for v3 traces; the packed path leaves it null. */
    std::unique_ptr<StreamingTraceReader> stream_;
};

} // namespace wsg::trace

#endif // WSG_TRACE_TRACE_FILE_HH
