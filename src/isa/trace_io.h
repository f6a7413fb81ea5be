/**
 * @file
 * Binary trace files — the Shade workflow of recording a run once and
 * analyzing it offline, as the paper's tool chain did.
 *
 * Format: a 16-byte header ("JRSTRACE", u32 version, u32 reserved = 0)
 * followed by fixed-width little-endian records in TraceEvent's own
 * layout:
 *
 *   u64 pc | u64 addr | u8 kind | u8 phase | u8 flags | u8 memSize
 *   | u8 rd | u8 rs1 | u8 rs2 | u8 pad = 0                (24 bytes)
 *
 * addr is the event's one address operand (TraceEvent::mem or
 * ::target, by kind; 0 for every other kind) and flags bit 0 is
 * "branch taken". Since the record is the struct's layout, an
 * in-memory TraceBuffer and a trace file cost the same 24 bytes per
 * event. Version 1 (35-byte records with separate mem and target
 * fields) is not read.
 */
#ifndef JRS_ISA_TRACE_IO_H
#define JRS_ISA_TRACE_IO_H

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>

#include "isa/trace.h"

namespace jrs {

/** Magic string at offset 0. */
inline constexpr char kTraceMagic[8] = {'J', 'R', 'S', 'T',
                                        'R', 'A', 'C', 'E'};

/** Current format version. */
inline constexpr std::uint32_t kTraceVersion = 2;

/** Size of one event record, on disk and in memory, in bytes. */
inline constexpr std::size_t kTraceRecordBytes = 24;
static_assert(kTraceRecordBytes == sizeof(TraceEvent));

/** Size of the file header, in bytes. */
inline constexpr std::size_t kTraceHeaderBytes = 16;

/** Byte offsets of a record's fields: TraceEvent's own layout. */
namespace trace_record {
inline constexpr std::size_t kPc = 0;
inline constexpr std::size_t kAddr = 8;
inline constexpr std::size_t kKind = 16;
inline constexpr std::size_t kPhase = 17;
inline constexpr std::size_t kFlags = 18;
inline constexpr std::size_t kMemSize = 19;
inline constexpr std::size_t kRd = 20;
inline constexpr std::size_t kRs1 = 21;
inline constexpr std::size_t kRs2 = 22;
inline constexpr std::size_t kPad = 23;
static_assert(offsetof(TraceEvent, pc) == kPc
              && offsetof(TraceEvent, mem) == kAddr
              && offsetof(TraceEvent, target) == kAddr
              && offsetof(TraceEvent, kind) == kKind
              && offsetof(TraceEvent, phase) == kPhase
              && offsetof(TraceEvent, taken) == kFlags
              && offsetof(TraceEvent, memSize) == kMemSize
              && offsetof(TraceEvent, rd) == kRd
              && offsetof(TraceEvent, rs1) == kRs1
              && offsetof(TraceEvent, rs2) == kRs2
              && kPad + 1 == kTraceRecordBytes,
              "a JRSTRACE record is TraceEvent's layout");
} // namespace trace_record

/**
 * Encode @p ev into exactly kTraceRecordBytes at @p out, with the pad
 * byte 0, so two exports of one run are byte-identical.
 */
void encodeTraceRecord(const TraceEvent &ev, std::uint8_t *out);

/** Fill a kTraceHeaderBytes header (magic + current version). */
void encodeTraceHeader(std::uint8_t *out);

/**
 * Validate a header. @return empty string when ok, else a diagnostic
 * ("bad magic" / "unsupported version N" / "reserved header field N
 * not zero").
 */
std::string checkTraceHeader(const std::uint8_t *in);

/** Closes a trace file on every exit path, a throwing sink's too. */
struct FileCloser {
    void operator()(std::FILE *f) const { std::fclose(f); }
};

/**
 * Sink that streams events into a binary trace file — the one JRSTRACE
 * writer. Records are packed into a staging block and written one
 * block per fwrite. Every failure throws VmError naming the path and
 * the system error.
 */
class TraceFileWriter : public TraceSink {
  public:
    /** Records staged per fwrite. */
    static constexpr std::size_t kStageEvents = 4096;

    /** Opens @p path for writing and writes the header. */
    explicit TraceFileWriter(const std::string &path);

    /**
     * Writes what is still staged, without reporting errors, so a run
     * that stopped before onFinish leaves every record it emitted.
     */
    ~TraceFileWriter() override;

    /** Appends one record (written once the staging block fills). */
    void onEvent(const TraceEvent &ev) override {
        encodeTraceRecord(ev, stage_.get() + staged_ * kTraceRecordBytes);
        if (++staged_ == kStageEvents)
            writeStage();
        ++events_;
    }

    /**
     * Writes the staged records and flushes the file; throws VmError
     * when either fails.
     */
    void onFinish() override;

    /** Events accepted so far. */
    std::uint64_t eventsWritten() const { return events_; }

  private:
    /** Write the staged records and empty the block. */
    void writeStage();

    /** Throws "@p what: path: strerror(errno)". */
    [[noreturn]] void fail(const char *what) const;

    std::unique_ptr<std::FILE, FileCloser> file_;
    std::string path_;
    std::unique_ptr<std::uint8_t[]> stage_;
    std::size_t staged_ = 0;
    std::uint64_t events_ = 0;
};

/**
 * Replay a trace file into @p sink (calling onFinish at EOF); the one
 * JRSTRACE reader, behind `jrs_check lint-trace` too (replay into a
 * TraceBuffer to hold a file in memory). @return the number of events
 * replayed. Throws VmError naming @p path on a missing file, a short
 * header, bad magic, a version other than kTraceVersion, a non-zero
 * reserved field, a partial trailing record (a truncated file), or a
 * corrupt record, named by its event index: a kind or phase tag out
 * of range (every model indexes per-kind and per-phase arrays by
 * them), a flags byte above 1, a non-zero pad byte, or an address on
 * a kind that carries none. On a throw the records before the bad one
 * have been delivered, none after it, onFinish has not, and the file
 * is closed — also when the sink itself throws.
 */
std::uint64_t replayTraceFile(const std::string &path, TraceSink &sink);

} // namespace jrs

#endif // JRS_ISA_TRACE_IO_H
