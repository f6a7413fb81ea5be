/**
 * @file
 * In-memory recording of a dynamic native stream.
 *
 * TraceBuffer records a stream once so it can be replayed into any
 * number of downstream sinks, any number of times (benchmarks that
 * time the models on a fixed stream, tests). Events are stored as raw
 * 24-byte TraceEvent structs so recording is a copy and replay is a
 * pointer walk. On disk a stream is a JRSTRACE file (trace_io.h) whose
 * records have that same layout: write one with TraceFileWriter, read
 * one back with replayTraceFile into a buffer, and the stream
 * round-trips losslessly at the same 24 bytes per event.
 *
 * Storage is chunked so multi-hundred-MB streams grow without
 * reallocation spikes. A fully recorded buffer is immutable in
 * practice; replay() and at() are const and safe to call concurrently
 * from many threads.
 */
#ifndef JRS_ISA_TRACE_BUFFER_H
#define JRS_ISA_TRACE_BUFFER_H

#include <memory>
#include <vector>

#include "isa/trace_io.h"

namespace jrs {

/** Growable packed event store; see file comment. */
class TraceBuffer : public TraceSink {
  public:
    /** Events per storage chunk (3 MiB each). */
    static constexpr std::size_t kChunkEvents = 128 * 1024;

    TraceBuffer() = default;

    // Chunks are unique_ptrs; moves are cheap, copies are disabled to
    // keep giant streams from being duplicated by accident.
    TraceBuffer(TraceBuffer &&) = default;
    TraceBuffer &operator=(TraceBuffer &&) = default;
    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Append one event (TraceSink). */
    void onEvent(const TraceEvent &ev) override;

    /** Number of recorded events. */
    std::uint64_t size() const { return count_; }

    /** True when no events have been recorded. */
    bool empty() const { return count_ == 0; }

    /** Bytes of event storage currently held in memory. */
    std::uint64_t memoryBytes() const {
        return count_ * sizeof(TraceEvent);
    }

    /** Decode event @p index (bounds-checked; throws VmError). */
    TraceEvent at(std::uint64_t index) const;

    /**
     * Deliver every event to @p sink in recorded order, then call
     * onFinish(). @return the number of events delivered.
     */
    std::uint64_t replay(TraceSink &sink) const;

    /** Drop all events and storage. */
    void clear();

  private:
    TraceEvent *slotFor(std::uint64_t index);

    std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
    std::uint64_t count_ = 0;
};

} // namespace jrs

#endif // JRS_ISA_TRACE_BUFFER_H
