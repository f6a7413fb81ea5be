#include "isa/trace_buffer.h"

#include <cstdio>
#include <string>

#include "vm/runtime/vm_error.h"

namespace jrs {

namespace {

/** Disk-I/O staging: pack this many records per fwrite. */
constexpr std::size_t kStageEvents = 64 * 1024;

} // namespace

TraceEvent *
TraceBuffer::slotFor(std::uint64_t index)
{
    const std::size_t chunk = index / kChunkEvents;
    if (chunk == chunks_.size()) {
        // for_overwrite: chunks are written before any read, so
        // skipping value-initialization saves a memset per ~6 MB.
        chunks_.push_back(
            std::make_unique_for_overwrite<TraceEvent[]>(kChunkEvents));
    }
    return chunks_[chunk].get() + index % kChunkEvents;
}

void
TraceBuffer::onEvent(const TraceEvent &ev)
{
    *slotFor(count_) = ev;
    ++count_;
}

TraceEvent
TraceBuffer::at(std::uint64_t index) const
{
    if (index >= count_)
        throw VmError("TraceBuffer index out of range");
    return chunks_[index / kChunkEvents][index % kChunkEvents];
}

std::uint64_t
TraceBuffer::replay(TraceSink &sink) const
{
    std::uint64_t remaining = count_;
    for (const auto &chunk : chunks_) {
        const std::uint64_t n =
            remaining < kChunkEvents ? remaining : kChunkEvents;
        const TraceEvent *p = chunk.get();
        for (std::uint64_t i = 0; i < n; ++i)
            sink.onEvent(p[i]);
        remaining -= n;
        if (remaining == 0)
            break;
    }
    sink.onFinish();
    return count_;
}

void
TraceBuffer::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw VmError("cannot open trace file for writing: " + path);
    std::uint8_t header[kTraceHeaderBytes];
    encodeTraceHeader(header);
    bool ok = std::fwrite(header, 1, sizeof(header), f) == sizeof(header);

    const auto stage =
        std::make_unique<std::uint8_t[]>(kStageEvents
                                         * kTraceRecordBytes);
    std::uint64_t remaining = count_;
    for (const auto &chunk : chunks_) {
        if (!ok || remaining == 0)
            break;
        const std::uint64_t inChunk =
            remaining < kChunkEvents ? remaining : kChunkEvents;
        for (std::uint64_t base = 0; ok && base < inChunk;
             base += kStageEvents) {
            const std::uint64_t n =
                inChunk - base < kStageEvents ? inChunk - base
                                              : kStageEvents;
            for (std::uint64_t i = 0; i < n; ++i) {
                encodeTraceRecord(chunk[base + i],
                                  stage.get() + i * kTraceRecordBytes);
            }
            const std::size_t bytes = n * kTraceRecordBytes;
            ok = std::fwrite(stage.get(), 1, bytes, f) == bytes;
        }
        remaining -= inChunk;
    }
    if (std::fclose(f) != 0)
        ok = false;
    if (!ok)
        throw VmError("trace write failed: " + path);
}

TraceBuffer
TraceBuffer::load(const std::string &path)
{
    TraceBuffer buf;
    replayTraceFile(path, buf);
    return buf;
}

void
TraceBuffer::clear()
{
    chunks_.clear();
    count_ = 0;
}

} // namespace jrs
