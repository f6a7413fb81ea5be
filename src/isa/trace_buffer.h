/**
 * @file
 * In-memory recording of a dynamic native stream.
 *
 * TraceBuffer is the record-once/replay-many primitive behind the
 * sweep engine: a TraceSink that appends every event and replays the
 * stream into any number of downstream sinks, any number of times.
 * Events are stored as raw TraceEvent structs so recording is a copy
 * and replay is a pointer walk — the hot paths of a sweep. The packed
 * JRSTRACE record codec (trace_io.h) is applied only at the disk
 * boundary in save()/load(), and it covers every TraceEvent field, so
 * a buffer round-trips through a file losslessly.
 *
 * Storage is chunked so multi-hundred-MB streams grow without
 * reallocation spikes. A fully recorded buffer is immutable in
 * practice; replay() and at() are const and safe to call concurrently
 * from many threads.
 */
#ifndef JRS_ISA_TRACE_BUFFER_H
#define JRS_ISA_TRACE_BUFFER_H

#include <memory>
#include <string>
#include <vector>

#include "isa/trace_io.h"

namespace jrs {

/** Growable packed event store; see file comment. */
class TraceBuffer : public TraceSink {
  public:
    /** Events per storage chunk (~6 MB each). */
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

    /** Write the stream as a JRSTRACE file; throws VmError on I/O. */
    void save(const std::string &path) const;

    /**
     * Read a JRSTRACE file recorded by save() (or TraceFileWriter)
     * through replayTraceFile. Throws VmError on missing file, bad
     * magic, version mismatch, a corrupt record, or a partial trailing
     * record (a truncated file).
     */
    static TraceBuffer load(const std::string &path);

    /** Drop all events and storage. */
    void clear();

  private:
    TraceEvent *slotFor(std::uint64_t index);

    std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
    std::uint64_t count_ = 0;
};

} // namespace jrs

#endif // JRS_ISA_TRACE_BUFFER_H
