#include "trace/trace_file.hh"

#include <stdexcept>

#include "trace/crc32.hh"
#include "trace/format_detail.hh"
#include "trace/streaming_reader.hh"
#include "trace/varint.hh"

namespace wsg::trace
{

TraceWriter::TraceWriter(const std::string &path,
                         std::uint32_t num_procs)
    : out_(path, std::ios::binary | std::ios::trunc),
      block_(detail::kStreamBlockTargetBytes +
             detail::kStreamMaxRecordBytes)
{
    if (!out_)
        throw std::runtime_error("TraceWriter: cannot open " + path);
    detail::HeaderV1 h{};
    std::memcpy(h.magic, kTraceMagic, sizeof(kTraceMagic));
    h.version = kTraceVersionStreaming;
    h.numProcs = num_procs;
    out_.write(reinterpret_cast<const char *>(&h), sizeof(h));
    detail::HeaderV2Ext ext{};
    ext.recordCount = kTraceUnfinalizedCount;
    ext.segmentTableOffset = 0;
    out_.write(reinterpret_cast<const char *>(&ext), sizeof(ext));
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::access(const MemRef &ref)
{
    unsigned char *p = block_.data() + blockBytes_;
    // RefType 0/1 coincide with kRecRead/kRecWrite, so the tag byte is
    // the reference type itself.
    *p++ = static_cast<unsigned char>(ref.type);
    putVarint(p, zigzagEncode(static_cast<std::int64_t>(
                     ref.addr - prevAddr_)));
    prevAddr_ = ref.addr;
    putVarint(p, ref.bytes);
    putVarint(p, ref.pid);
    endRecord(p);
}

void
TraceWriter::sync(const SyncEvent &event)
{
    unsigned char *p = block_.data() + blockBytes_;
    *p++ = detail::syncRecordType(event.kind);
    putVarint(p, event.pid);
    putVarint(p, event.object);
    endRecord(p);
}

void
TraceWriter::endRecord(unsigned char *end)
{
    blockBytes_ = static_cast<std::size_t>(end - block_.data());
    ++blockRecords_;
    ++records_;
    if (blockBytes_ >= detail::kStreamBlockTargetBytes)
        flushBlock();
}

void
TraceWriter::flushBlock()
{
    if (blockRecords_ == 0)
        return;
    detail::BlockFrame frame{};
    frame.payloadBytes = static_cast<std::uint32_t>(blockBytes_);
    frame.recordCount = blockRecords_;
    frame.crc = crc32(block_.data(), blockBytes_);
    out_.write(reinterpret_cast<const char *>(&frame), sizeof(frame));
    out_.write(reinterpret_cast<const char *>(block_.data()),
               static_cast<std::streamsize>(blockBytes_));
    blockBytes_ = 0;
    blockRecords_ = 0;
    // The delta predictor resets per block so each block decodes
    // independently (the reader mirrors this in loadNextBlock).
    prevAddr_ = 0;
}

void
TraceWriter::close()
{
    if (!out_.is_open())
        return;
    flushBlock();
    std::uint64_t table_offset = 0;
    if (space_ != nullptr && !space_->segments().empty()) {
        table_offset = static_cast<std::uint64_t>(out_.tellp());
        std::uint32_t count =
            static_cast<std::uint32_t>(space_->segments().size());
        out_.write(reinterpret_cast<const char *>(&count),
                   sizeof(count));
        for (const Segment &seg : space_->segments()) {
            detail::SegmentEntry entry{};
            entry.base = seg.base;
            entry.bytes = seg.bytes;
            entry.nameLen = static_cast<std::uint32_t>(seg.name.size());
            out_.write(reinterpret_cast<const char *>(&entry.base),
                       sizeof(entry.base));
            out_.write(reinterpret_cast<const char *>(&entry.bytes),
                       sizeof(entry.bytes));
            out_.write(reinterpret_cast<const char *>(&entry.nameLen),
                       sizeof(entry.nameLen));
            out_.write(seg.name.data(),
                       static_cast<std::streamsize>(seg.name.size()));
        }
    }
    out_.seekp(
        static_cast<std::streamoff>(detail::kRecordCountOffset));
    out_.write(reinterpret_cast<const char *>(&records_),
               sizeof(records_));
    out_.seekp(
        static_cast<std::streamoff>(detail::kSegmentTableOffsetOffset));
    out_.write(reinterpret_cast<const char *>(&table_offset),
               sizeof(table_offset));
    out_.close();
}

TraceReader::TraceReader(const std::string &path)
    : in_(path, std::ios::binary), path_(path)
{
    if (!in_)
        throw std::runtime_error("TraceReader: cannot open " + path);

    detail::ParsedHeader header = detail::readTraceHeader(in_, path);
    numProcs_ = header.numProcs;

    if (header.version == kTraceVersionStreaming) {
        // Delegate the whole body to the streaming engine; it re-opens
        // the file and re-validates (cheap — the frame walk reads 12
        // bytes per block), and this reader becomes a thin forwarder.
        in_.close();
        stream_ = std::make_unique<StreamingTraceReader>(path);
        recordCount_ = stream_->recordCount();
        finalized_ = stream_->finalized();
        segments_ = stream_->segments();
        return;
    }

    std::uint64_t body_bytes = header.bodyEnd - header.headerBytes;
    if (body_bytes % sizeof(detail::PackedRecord) != 0) {
        throw std::runtime_error(
            "TraceReader: truncated trace " + path + ": body of " +
            std::to_string(body_bytes) +
            " bytes is not a whole number of " +
            std::to_string(sizeof(detail::PackedRecord)) +
            "-byte records (partial trailing record)");
    }
    recordCount_ = body_bytes / sizeof(detail::PackedRecord);
    finalized_ = header.headerCount != kTraceUnfinalizedCount;
    if (finalized_ && header.headerCount != recordCount_) {
        throw std::runtime_error(
            "TraceReader: record count mismatch in " + path +
            ": header says " + std::to_string(header.headerCount) +
            " but the file holds " + std::to_string(recordCount_));
    }

    segments_ = detail::readSegmentTable(in_, path, header);
}

TraceReader::~TraceReader() = default;

bool
TraceReader::nextRecord(TraceRecord &record)
{
    if (stream_)
        return stream_->nextRecord(record);

    if (recordsRead_ >= recordCount_)
        return false;
    detail::PackedRecord r{};
    in_.read(reinterpret_cast<char *>(&r), sizeof(r));
    if (!in_) {
        // Validated at open; a torn read here means the file changed
        // underneath us (or an I/O error) — never silently truncate.
        throw std::runtime_error(
            "TraceReader: trace " + path_ +
            " ends inside a record (file changed while reading?)");
    }
    ++recordsRead_;

    if (r.type >= detail::kRecTypeCount) {
        throw std::runtime_error(
            "TraceReader: unknown record type " +
            std::to_string(r.type) + " at record " +
            std::to_string(recordsRead_ - 1) + " of " + path_);
    }
    if (r.type == detail::kRecRead || r.type == detail::kRecWrite) {
        record.kind = TraceRecord::Kind::Data;
        record.ref.addr = r.addr;
        record.ref.bytes = r.bytes;
        record.ref.pid = r.pid;
        record.ref.type = static_cast<RefType>(r.type);
        return true;
    }

    // Sync event: validate the processor id against the header —
    // happens-before analysis indexes per-processor clocks with it, so
    // an out-of-range id is unambiguous corruption, not data.
    if (r.pid >= numProcs_) {
        throw std::runtime_error(
            "TraceReader: sync event with out-of-range processor id " +
            std::to_string(r.pid) + " (trace declares " +
            std::to_string(numProcs_) + " processors) at record " +
            std::to_string(recordsRead_ - 1) + " of " + path_);
    }
    record.kind = TraceRecord::Kind::Sync;
    record.syncEvent.kind =
        r.type == detail::kRecBarrier
            ? SyncKind::Barrier
            : (r.type == detail::kRecLockAcquire
                   ? SyncKind::LockAcquire
                   : SyncKind::LockRelease);
    record.syncEvent.pid = r.pid;
    record.syncEvent.object = r.addr;
    return true;
}

bool
TraceReader::next(MemRef &ref)
{
    if (stream_)
        return stream_->next(ref);
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
TraceReader::replay(MemorySink &sink)
{
    if (stream_)
        return stream_->replay(sink);
    std::uint64_t count = 0;
    TraceRecord record;
    while (nextRecord(record)) {
        if (record.kind == TraceRecord::Kind::Data)
            sink.access(record.ref);
        else
            sink.sync(record.syncEvent);
        ++count;
    }
    return count;
}

} // namespace wsg::trace
