#include "trace/streaming_reader.hh"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "trace/crc32.hh"
#include "trace/format_detail.hh"
#include "trace/sinks.hh"
#include "trace/varint.hh"

namespace wsg::trace
{

namespace
{

[[noreturn]] void
throwMalformedRecord(const std::string &path, std::uint64_t block,
                     std::uint64_t record, const char *what)
{
    throw std::runtime_error(
        "TraceReader: malformed record in block " +
        std::to_string(block) + " of " + path + " (" + what +
        " at record " + std::to_string(record) + ")");
}

} // namespace

StreamingTraceReader::StreamingTraceReader(const std::string &path)
    : in_(path, std::ios::binary), path_(path)
{
    if (!in_)
        throw std::runtime_error("TraceReader: cannot open " + path);

    detail::ParsedHeader header = detail::readTraceHeader(in_, path);
    if (header.version != 3) {
        throw std::runtime_error(
            "StreamingTraceReader: " + path + " is a v" +
            std::to_string(header.version) +
            " trace, not streaming v3 (use TraceReader, which handles "
            "every version)");
    }
    numProcs_ = header.numProcs;
    segments_ = detail::readSegmentTable(in_, path, header);
    bodyStart_ = header.headerBytes;
    bodyEnd_ = header.bodyEnd;

    // Walk the block frames (12 bytes each, payloads skipped) to
    // validate the geometry before any decoding: this is where a torn
    // tail is rejected, mirroring v2's partial-trailing-record check.
    std::uint64_t pos = bodyStart_;
    while (pos < bodyEnd_) {
        std::uint64_t remaining = bodyEnd_ - pos;
        if (remaining < sizeof(detail::BlockFrame)) {
            throw std::runtime_error(
                "TraceReader: truncated trace " + path + ": " +
                std::to_string(remaining) + " bytes after block " +
                std::to_string(blockCount_) +
                " are not a whole block frame (partial trailing "
                "block)");
        }
        detail::BlockFrame frame{};
        in_.seekg(static_cast<std::streamoff>(pos));
        in_.read(reinterpret_cast<char *>(&frame), sizeof(frame));
        if (!in_) {
            throw std::runtime_error(
                "TraceReader: I/O error reading block frame " +
                std::to_string(blockCount_) + " of " + path);
        }
        if (frame.payloadBytes > detail::kStreamMaxPayloadBytes) {
            throw std::runtime_error(
                "TraceReader: block " + std::to_string(blockCount_) +
                " of " + path + " declares an oversized payload of " +
                std::to_string(frame.payloadBytes) + " bytes (limit " +
                std::to_string(detail::kStreamMaxPayloadBytes) + ")");
        }
        if (remaining - sizeof(frame) < frame.payloadBytes) {
            throw std::runtime_error(
                "TraceReader: truncated trace " + path + ": block " +
                std::to_string(blockCount_) + " declares " +
                std::to_string(frame.payloadBytes) +
                " payload bytes but only " +
                std::to_string(remaining - sizeof(frame)) +
                " remain past its frame (partial trailing block)");
        }
        recordCount_ += frame.recordCount;
        maxBlockBytes_ =
            std::max(maxBlockBytes_, std::size_t{frame.payloadBytes});
        ++blockCount_;
        pos += sizeof(frame) + frame.payloadBytes;
    }

    finalized_ = header.headerCount != detail::kUnfinalizedCount;
    if (finalized_ && header.headerCount != recordCount_) {
        throw std::runtime_error(
            "TraceReader: record count mismatch in " + path +
            ": header says " + std::to_string(header.headerCount) +
            " but the file holds " + std::to_string(recordCount_));
    }

    in_.clear();
    in_.seekg(static_cast<std::streamoff>(bodyStart_));
}

bool
StreamingTraceReader::loadNextBlock()
{
    std::uint64_t pos = static_cast<std::uint64_t>(in_.tellg());
    if (pos >= bodyEnd_)
        return false;

    detail::BlockFrame frame{};
    in_.read(reinterpret_cast<char *>(&frame), sizeof(frame));
    payload_.resize(frame.payloadBytes);
    in_.read(reinterpret_cast<char *>(payload_.data()),
             static_cast<std::streamsize>(frame.payloadBytes));
    if (!in_) {
        // Geometry was validated at open; a short read here means the
        // file changed underneath us (or an I/O error).
        throw std::runtime_error(
            "TraceReader: trace " + path_ +
            " ends inside a block (file changed while reading?)");
    }
    std::uint32_t computed = crc32(payload_.data(), payload_.size());
    if (computed != frame.crc) {
        throw std::runtime_error(
            "TraceReader: CRC mismatch in block " +
            std::to_string(blocksRead_) + " of " + path_ +
            " (frame says " + std::to_string(frame.crc) +
            ", payload hashes to " + std::to_string(computed) + ")");
    }
    cur_ = payload_.data();
    end_ = cur_ + payload_.size();
    blockRecordsLeft_ = frame.recordCount;
    prevAddr_ = 0;
    ++blocksRead_;
    return true;
}

inline bool
StreamingTraceReader::nextTag(std::uint8_t &tag)
{
    while (blockRecordsLeft_ == 0) {
        if (cur_ != end_) {
            throwMalformedRecord(path_, blocksRead_ - 1, recordsRead_,
                                 "trailing bytes after last record");
        }
        if (!loadNextBlock())
            return false;
    }
    if (cur_ == end_) {
        throwMalformedRecord(path_, blocksRead_ - 1, recordsRead_,
                             "record count overruns the payload");
    }
    tag = *cur_++;
    if (tag >= detail::kRecTypeCount) {
        throw std::runtime_error(
            "TraceReader: unknown record type " + std::to_string(tag) +
            " at record " + std::to_string(recordsRead_) + " of " +
            path_);
    }
    return true;
}

inline void
StreamingTraceReader::decodeData(std::uint8_t tag, MemRef &ref)
{
    std::uint64_t delta = 0, bytes = 0, pid = 0;
    if (!readVarint(cur_, end_, delta) || !readVarint(cur_, end_, bytes) ||
        !readVarint(cur_, end_, pid)) {
        throwMalformedRecord(path_, blocksRead_ - 1, recordsRead_,
                             "varint runs past the block payload or "
                             "exceeds 64 bits");
    }
    // MemRef carries 32-bit sizes and ids; a wider value is corruption,
    // never something to truncate into a different reference.
    if (bytes > UINT32_MAX || pid > UINT32_MAX) {
        throwMalformedRecord(path_, blocksRead_ - 1, recordsRead_,
                             "size or processor id exceeds 32 bits");
    }
    prevAddr_ += static_cast<std::uint64_t>(zigzagDecode(delta));
    ref.addr = prevAddr_;
    ref.bytes = static_cast<std::uint32_t>(bytes);
    ref.pid = static_cast<std::uint32_t>(pid);
    ref.type = static_cast<RefType>(tag);
    --blockRecordsLeft_;
    ++recordsRead_;
}

void
StreamingTraceReader::decodeSync(std::uint8_t tag, SyncEvent &event)
{
    std::uint64_t pid = 0, object = 0;
    if (!readVarint(cur_, end_, pid) || !readVarint(cur_, end_, object)) {
        throwMalformedRecord(path_, blocksRead_ - 1, recordsRead_,
                             "varint runs past the block payload or "
                             "exceeds 64 bits");
    }
    // Happens-before analysis indexes per-processor clocks with the
    // id, so an out-of-range id is unambiguous corruption.
    if (pid >= numProcs_) {
        throw std::runtime_error(
            "TraceReader: sync event with out-of-range processor id " +
            std::to_string(pid) + " (trace declares " +
            std::to_string(numProcs_) + " processors) at record " +
            std::to_string(recordsRead_) + " of " + path_);
    }
    event.kind = tag == detail::kRecBarrier
                     ? SyncKind::Barrier
                     : (tag == detail::kRecLockAcquire
                            ? SyncKind::LockAcquire
                            : SyncKind::LockRelease);
    event.pid = static_cast<std::uint32_t>(pid);
    event.object = object;
    --blockRecordsLeft_;
    ++recordsRead_;
}

bool
StreamingTraceReader::nextRecord(TraceRecord &record)
{
    std::uint8_t tag = 0;
    if (!nextTag(tag))
        return false;
    if (tag == detail::kRecRead || tag == detail::kRecWrite) {
        record.kind = TraceRecord::Kind::Data;
        decodeData(tag, record.ref);
    } else {
        record.kind = TraceRecord::Kind::Sync;
        decodeSync(tag, record.syncEvent);
    }
    return true;
}

bool
StreamingTraceReader::next(MemRef &ref)
{
    TraceRecord record;
    while (nextRecord(record)) {
        if (record.kind == TraceRecord::Kind::Data) {
            ref = record.ref;
            return true;
        }
    }
    return false;
}

std::uint64_t
StreamingTraceReader::replay(MemorySink &sink)
{
    constexpr std::size_t kRun = BatchingSink::kCapacity;
    std::array<MemRef, kRun> run;
    std::size_t n = 0;
    // Zero the count before handing the run over, so a sink that
    // throws never gets the same references twice from the handler.
    auto deliver = [&] {
        if (n == 0)
            return;
        std::size_t k = n;
        n = 0;
        sink.accessBatch(run.data(), k);
    };

    std::uint64_t count = 0;
    try {
        std::uint8_t tag = 0;
        while (nextTag(tag)) {
            if (tag == detail::kRecRead || tag == detail::kRecWrite) {
                // Count the slot only once it decoded: a throw leaves
                // the run at the records before this one.
                decodeData(tag, run[n]);
                ++n;
                if (n == kRun)
                    deliver();
            } else {
                SyncEvent event;
                decodeSync(tag, event);
                deliver();
                sink.sync(event);
            }
            ++count;
        }
    } catch (...) {
        // Everything before the bad record reaches the sink, exactly
        // as it would have one record at a time.
        deliver();
        throw;
    }
    deliver();
    return count;
}

} // namespace wsg::trace
