/**
 * @file
 * Pull-based reader for the block-framed streaming trace format (v3).
 *
 * A v3 body is a sequence of blocks, each a 12-byte frame (payload
 * size, record count, CRC-32 of the payload) followed by a compressed
 * payload: one tag byte per record (the shared RecordType), data
 * records as zigzag-varint address delta + varint bytes + varint pid,
 * sync records as varint pid + varint object. The delta predictor
 * resets at each block boundary so every block decodes independently.
 *
 * The reader holds exactly one block in memory at a time — peak RSS is
 * O(block), independent of trace length, which is what makes
 * paper-scale replays (billions of references) possible without
 * materializing the trace. Construction walks the block frames once
 * (12 bytes per block, no payloads) to validate the geometry: a tail
 * that is not a whole frame-plus-payload is rejected up front with the
 * numbers spelled out — the v3 analogue of v2's partial-trailing-record
 * check — while an unfinalized trace ending on a block boundary (a
 * crashed writer) stays replayable. Payload corruption is caught per
 * block: the CRC is verified when the block is loaded, and the
 * diagnostic names the block.
 *
 * replay() is the hot path of every trace-driven study. It decodes
 * data records in place into a run of BatchingSink::kCapacity
 * references and hands each full run to MemorySink::accessBatch,
 * flushing the partial run before every sync event; runs carry across
 * block boundaries, so a BatchingSink downstream sees exactly the
 * batches it would build from one access() per record. nextRecord()
 * and replay() share one data-record decoder and every check. When a
 * record is rejected, the references decoded before it are delivered
 * before the exception propagates.
 *
 * Most callers never touch this class directly: TraceReader detects
 * the version byte and delegates v3 traces here, so every existing
 * consumer (wsg-analyze, replay, the race detector) streams v3
 * transparently.
 */

#ifndef WSG_TRACE_STREAMING_READER_HH
#define WSG_TRACE_STREAMING_READER_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/address_space.hh"
#include "trace/memref.hh"
#include "trace/trace_file.hh"

namespace wsg::trace
{

/** Streams a v3 trace file block by block (O(block) peak memory). */
class StreamingTraceReader
{
  public:
    /**
     * Open @p path, parse the header and segment table, and walk the
     * block frames to validate the body geometry.
     * @throws std::runtime_error on open failure, bad magic, a version
     *         other than 3, a truncated header, a torn tail (trailing
     *         bytes that are not a whole frame + payload), an
     *         oversized block frame, a finalized record count that
     *         disagrees with the frames, or a malformed segment table.
     */
    explicit StreamingTraceReader(const std::string &path);

    /** Processor count recorded when the trace was written. */
    std::uint32_t numProcs() const { return numProcs_; }

    /** Total records across all blocks (from the validated frames). */
    std::uint64_t recordCount() const { return recordCount_; }

    /** False when the writer never finalized the header (crashed run
     *  that happened to end on a block boundary). */
    bool finalized() const { return finalized_; }

    /** Named segments recorded by the writer (empty when absent). */
    const std::vector<Segment> &segments() const { return segments_; }

    /** Blocks in the body (known at open from the frame walk). */
    std::uint64_t blockCount() const { return blockCount_; }

    /** Blocks loaded so far. */
    std::uint64_t blocksRead() const { return blocksRead_; }

    /** Largest payload any frame declares — the reader's peak decode
     *  buffer, and so (up to stdio buffering) its peak working set. */
    std::size_t maxBlockBytes() const { return maxBlockBytes_; }

    /**
     * Decode the next record of any kind.
     * @return false at end of the last block.
     * @throws std::runtime_error on a CRC mismatch when a block is
     *         loaded, an unknown tag byte, a record that runs past its
     *         block payload, a varint wider than 64 bits, a data
     *         record whose size or processor id exceeds 32 bits, or a
     *         sync event whose processor id is outside the header's
     *         processor count.
     */
    bool nextRecord(TraceRecord &record);

    /** Next data record, skipping sync events (as TraceReader::next). */
    bool next(MemRef &ref);

    /**
     * Replay all remaining records into @p sink: data records in runs
     * of up to BatchingSink::kCapacity through accessBatch, sync
     * events through sync() after the run before them.
     * @return records delivered (data + sync).
     * @throws std::runtime_error as nextRecord(), after delivering the
     *         references that precede the rejected record.
     */
    std::uint64_t replay(MemorySink &sink);

  private:
    /** Load and CRC-check the next block; false at body end. */
    bool loadNextBlock();

    /** Step to the next record, loading blocks as needed, and consume
     *  its tag byte; false at end of the last block. */
    bool nextTag(std::uint8_t &tag);

    /** Decode the fields of the data record whose @p tag nextTag()
     *  consumed — the one data-record decoder, shared by nextRecord()
     *  and replay(). */
    void decodeData(std::uint8_t tag, MemRef &ref);

    /** Decode the fields of the sync record whose @p tag nextTag()
     *  consumed. */
    void decodeSync(std::uint8_t tag, SyncEvent &event);

    std::ifstream in_;
    std::string path_;
    std::uint32_t numProcs_ = 0;
    std::uint64_t recordCount_ = 0;
    std::uint64_t recordsRead_ = 0;
    bool finalized_ = false;
    std::vector<Segment> segments_;

    std::uint64_t bodyStart_ = 0;
    std::uint64_t bodyEnd_ = 0;
    std::uint64_t blockCount_ = 0;
    std::uint64_t blocksRead_ = 0;
    std::size_t maxBlockBytes_ = 0;

    std::vector<unsigned char> payload_;
    const unsigned char *cur_ = nullptr;
    const unsigned char *end_ = nullptr;
    std::uint32_t blockRecordsLeft_ = 0;
    std::uint64_t prevAddr_ = 0;
};

} // namespace wsg::trace

#endif // WSG_TRACE_STREAMING_READER_HH
