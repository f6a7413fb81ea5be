/**
 * @file
 * Binary trace files — the Shade workflow of recording a run once and
 * analyzing it offline, as the paper's tool chain did.
 *
 * Format: a 16-byte header ("JRSTRACE", u32 version, u32 reserved)
 * followed by fixed-width little-endian records:
 *
 *   u64 pc | u64 mem | u64 target | u8 kind | u8 phase | u8 flags
 *   | u8 memSize | u8 rd | u8 rs1 | u8 rs2 | u8 pad        (35 bytes)
 *
 * flags bit 0 = branch taken. The format trades compactness for
 * dead-simple streaming in both directions; a full small-workload
 * interpreter run is a few hundred MB, so callers usually record
 * reduced runs.
 */
#ifndef JRS_ISA_TRACE_IO_H
#define JRS_ISA_TRACE_IO_H

#include <cstdio>
#include <memory>
#include <string>

#include "isa/trace.h"

namespace jrs {

/** Magic string at offset 0. */
inline constexpr char kTraceMagic[8] = {'J', 'R', 'S', 'T',
                                        'R', 'A', 'C', 'E'};

/** Current format version. */
inline constexpr std::uint32_t kTraceVersion = 1;

/** Size of one on-disk event record, in bytes. */
inline constexpr std::size_t kTraceRecordBytes = 35;

/** Size of the file header, in bytes. */
inline constexpr std::size_t kTraceHeaderBytes = 16;

/**
 * Encode @p ev into exactly kTraceRecordBytes at @p out. The same
 * packed layout backs trace files and the in-memory TraceBuffer, so a
 * buffer round-trips through disk losslessly by construction.
 */
void encodeTraceRecord(const TraceEvent &ev, std::uint8_t *out);

/** Fill a kTraceHeaderBytes header (magic + current version). */
void encodeTraceHeader(std::uint8_t *out);

/**
 * Validate a header. @return empty string when ok, else a diagnostic
 * ("bad magic" / "unsupported version N").
 */
std::string checkTraceHeader(const std::uint8_t *in);

/** Closes a trace file on every exit path, a throwing sink's too. */
struct FileCloser {
    void operator()(std::FILE *f) const { std::fclose(f); }
};

/**
 * Sink that streams events into a binary trace file. Every failure
 * throws VmError naming the path and the system error.
 */
class TraceFileWriter : public TraceSink {
  public:
    /** Opens @p path for writing and writes the header. */
    explicit TraceFileWriter(const std::string &path);

    /** Appends one record. */
    void onEvent(const TraceEvent &ev) override;

    /** Flushes the file; throws VmError when the flush fails. */
    void onFinish() override;

    /** Events written so far. */
    std::uint64_t eventsWritten() const { return events_; }

  private:
    /** Throws "@p what: path: strerror(errno)". */
    [[noreturn]] void fail(const char *what) const;

    std::unique_ptr<std::FILE, FileCloser> file_;
    std::string path_;
    std::uint64_t events_ = 0;
};

/**
 * Replay a trace file into @p sink (calling onFinish at EOF); the one
 * JRSTRACE read loop, behind TraceBuffer::load and `jrs_check
 * lint-trace` too. @return the number of events replayed. Throws
 * VmError on a missing file, bad magic, version mismatch, a record
 * whose kind or phase tag is out of range (a corrupt file: every model
 * indexes per-kind and per-phase arrays by them) or a partial trailing
 * record (a truncated file). On a throw the records before the bad one have been
 * delivered, onFinish has not, and the file is closed — also when the
 * sink itself throws.
 */
std::uint64_t replayTraceFile(const std::string &path, TraceSink &sink);

} // namespace jrs

#endif // JRS_ISA_TRACE_IO_H
