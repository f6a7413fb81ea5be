#include "isa/trace_buffer.h"

#include "vm/runtime/vm_error.h"

namespace jrs {

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
TraceBuffer::clear()
{
    chunks_.clear();
    count_ = 0;
}

} // namespace jrs
