#include "isa/trace_io.h"

#include <bit>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string>

#include "vm/runtime/vm_error.h"

namespace jrs {

namespace {

// The format is little-endian; on LE hosts (the common case) the
// byte loops collapse to single moves via memcpy.

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof(v));
    } else {
        for (int i = 0; i < 8; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        return v;
    } else {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        return v;
    }
}

/** Records read per fread while replaying a file. */
constexpr std::size_t kReadRecords = 4096;

VmError
corruptRecord(std::uint64_t index, const char *field, unsigned tag)
{
    return VmError("corrupt trace record at event "
                   + std::to_string(index) + ": " + field + " tag "
                   + std::to_string(tag) + " out of range");
}

/**
 * Decode one record written by encodeTraceRecord; @p index is its
 * position in the stream, for the diagnostic.
 */
TraceEvent
decodeTraceRecord(const std::uint8_t *in, std::uint64_t index)
{
    // Every model indexes per-kind/per-phase arrays by these tags.
    if (in[24] >= kNumNKinds) [[unlikely]]
        throw corruptRecord(index, "kind", in[24]);
    if (in[25] >= kNumPhases) [[unlikely]]
        throw corruptRecord(index, "phase", in[25]);
    TraceEvent ev;
    ev.pc = getU64(in + 0);
    ev.mem = getU64(in + 8);
    ev.target = getU64(in + 16);
    ev.kind = static_cast<NKind>(in[24]);
    ev.phase = static_cast<Phase>(in[25]);
    ev.taken = in[26] != 0;
    ev.memSize = in[27];
    ev.rd = in[28];
    ev.rs1 = in[29];
    ev.rs2 = in[30];
    return ev;
}

} // namespace

void
encodeTraceRecord(const TraceEvent &ev, std::uint8_t *out)
{
    putU64(out + 0, ev.pc);
    putU64(out + 8, ev.mem);
    putU64(out + 16, ev.target);
    out[24] = static_cast<std::uint8_t>(ev.kind);
    out[25] = static_cast<std::uint8_t>(ev.phase);
    out[26] = ev.taken ? 1 : 0;
    out[27] = ev.memSize;
    out[28] = ev.rd;
    out[29] = ev.rs1;
    out[30] = ev.rs2;
    out[31] = out[32] = out[33] = out[34] = 0;
}

void
encodeTraceHeader(std::uint8_t *out)
{
    std::memset(out, 0, kTraceHeaderBytes);
    std::memcpy(out, kTraceMagic, sizeof(kTraceMagic));
    out[8] = static_cast<std::uint8_t>(kTraceVersion);
}

std::string
checkTraceHeader(const std::uint8_t *in)
{
    if (std::memcmp(in, kTraceMagic, sizeof(kTraceMagic)) != 0)
        return "bad magic";
    if (in[8] != kTraceVersion)
        return "unsupported version " + std::to_string(in[8]);
    return "";
}

TraceFileWriter::TraceFileWriter(const std::string &path)
    : file_(std::fopen(path.c_str(), "wb")), path_(path)
{
    if (file_ == nullptr)
        fail("cannot open trace file for writing");
    std::uint8_t header[kTraceHeaderBytes];
    encodeTraceHeader(header);
    if (std::fwrite(header, 1, sizeof(header), file_.get())
        != sizeof(header))
        fail("trace header write failed");
}

void
TraceFileWriter::fail(const char *what) const
{
    throw VmError(std::string(what) + ": " + path_ + ": "
                  + std::strerror(errno));
}

void
TraceFileWriter::onEvent(const TraceEvent &ev)
{
    std::uint8_t rec[kTraceRecordBytes];
    encodeTraceRecord(ev, rec);
    if (std::fwrite(rec, 1, kTraceRecordBytes, file_.get())
        != kTraceRecordBytes) {
        fail("trace record write failed");
    }
    ++events_;
}

void
TraceFileWriter::onFinish()
{
    // The last records sit in stdio's buffer until this flush.
    if (std::fflush(file_.get()) != 0)
        fail("trace write failed");
}

std::uint64_t
replayTraceFile(const std::string &path, TraceSink &sink)
{
    const std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(path.c_str(), "rb"));
    if (f == nullptr)
        throw VmError("cannot open trace file: " + path);

    std::uint8_t header[kTraceHeaderBytes];
    if (std::fread(header, 1, sizeof(header), f.get()) != sizeof(header))
        throw VmError("not a jrs trace file: " + path);
    if (const std::string err = checkTraceHeader(header); !err.empty())
        throw VmError("cannot replay " + path + ": " + err);

    const std::size_t stageBytes = kReadRecords * kTraceRecordBytes;
    const auto stage = std::make_unique<std::uint8_t[]>(stageBytes);
    std::uint64_t events = 0;
    std::size_t got;
    do {
        got = std::fread(stage.get(), 1, stageBytes, f.get());
        const std::size_t n = got / kTraceRecordBytes;
        for (std::size_t i = 0; i < n; ++i, ++events) {
            sink.onEvent(decodeTraceRecord(
                stage.get() + i * kTraceRecordBytes, events));
        }
        if (got % kTraceRecordBytes != 0) {
            throw VmError("cannot replay " + path
                          + ": truncated trace record after "
                          + std::to_string(events) + " events");
        }
    } while (got == stageBytes);
    if (std::ferror(f.get()))
        throw VmError("cannot replay " + path + ": read error");
    sink.onFinish();
    return events;
}

} // namespace jrs
