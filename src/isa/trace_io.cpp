#include "isa/trace_io.h"

#include <bit>
#include <cerrno>
#include <cstddef>
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

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

using namespace trace_record;

/** Records read per fread while replaying a file. */
constexpr std::size_t kReadRecords = 4096;

/**
 * Decode one record written by encodeTraceRecord; @p index is its
 * position in the stream and @p path its file, for the diagnostic.
 */
TraceEvent
decodeTraceRecord(const std::uint8_t *in, std::uint64_t index,
                  const std::string &path)
{
    const auto corrupt = [&](const std::string &why) {
        return VmError("cannot replay " + path
                       + ": corrupt trace record at event "
                       + std::to_string(index) + ": " + why);
    };
    // Every model indexes per-kind/per-phase arrays by these tags.
    if (in[kKind] >= kNumNKinds) [[unlikely]]
        throw corrupt("kind tag " + std::to_string(in[kKind])
                      + " out of range");
    if (in[kPhase] >= kNumPhases) [[unlikely]]
        throw corrupt("phase tag " + std::to_string(in[kPhase])
                      + " out of range");
    if (in[kFlags] > 1) [[unlikely]]
        throw corrupt("flags byte " + std::to_string(in[kFlags])
                      + " out of range");
    if (in[kPad] != 0) [[unlikely]]
        throw corrupt("pad byte " + std::to_string(in[kPad])
                      + " not zero");
    TraceEvent ev;
    ev.pc = getU64(in + kPc);
    ev.kind = static_cast<NKind>(in[kKind]);
    // Store the address under the name sinks read for this kind.
    const std::uint64_t addr = getU64(in + kAddr);
    if (isControl(ev.kind))
        ev.target = addr;
    else if (isMemory(ev.kind) || addr == 0)
        ev.mem = addr;
    else [[unlikely]]
        throw corrupt(std::string(nkindName(ev.kind))
                      + " record carries an address");
    ev.phase = static_cast<Phase>(in[kPhase]);
    ev.taken = in[kFlags] != 0;
    ev.memSize = in[kMemSize];
    ev.rd = in[kRd];
    ev.rs1 = in[kRs1];
    ev.rs2 = in[kRs2];
    return ev;
}

} // namespace

void
encodeTraceRecord(const TraceEvent &ev, std::uint8_t *out)
{
    putU64(out + kPc, ev.pc);
    putU64(out + kAddr, isControl(ev.kind) ? ev.target : ev.mem);
    out[kKind] = static_cast<std::uint8_t>(ev.kind);
    out[kPhase] = static_cast<std::uint8_t>(ev.phase);
    out[kFlags] = ev.taken ? 1 : 0;
    out[kMemSize] = ev.memSize;
    out[kRd] = ev.rd;
    out[kRs1] = ev.rs1;
    out[kRs2] = ev.rs2;
    out[kPad] = 0;
}

void
encodeTraceHeader(std::uint8_t *out)
{
    std::memset(out, 0, kTraceHeaderBytes);
    std::memcpy(out, kTraceMagic, sizeof(kTraceMagic));
    out[8] = static_cast<std::uint8_t>(kTraceVersion);  // u32 LE
}

std::string
checkTraceHeader(const std::uint8_t *in)
{
    if (std::memcmp(in, kTraceMagic, sizeof(kTraceMagic)) != 0)
        return "bad magic";
    if (const std::uint32_t version = getU32(in + 8);
        version != kTraceVersion)
        return "unsupported version " + std::to_string(version);
    if (const std::uint32_t reserved = getU32(in + 12); reserved != 0)
        return "reserved header field " + std::to_string(reserved)
            + " not zero";
    return "";
}

TraceFileWriter::TraceFileWriter(const std::string &path)
    : file_(std::fopen(path.c_str(), "wb")), path_(path),
      stage_(std::make_unique<std::uint8_t[]>(kStageEvents
                                              * kTraceRecordBytes))
{
    if (file_ == nullptr)
        fail("cannot open trace file for writing");
    std::uint8_t header[kTraceHeaderBytes];
    encodeTraceHeader(header);
    if (std::fwrite(header, 1, sizeof(header), file_.get())
        != sizeof(header))
        fail("trace header write failed");
}

TraceFileWriter::~TraceFileWriter()
{
    if (staged_ != 0)
        std::fwrite(stage_.get(), 1, staged_ * kTraceRecordBytes,
                    file_.get());
}

void
TraceFileWriter::fail(const char *what) const
{
    throw VmError(std::string(what) + ": " + path_ + ": "
                  + std::strerror(errno));
}

void
TraceFileWriter::writeStage()
{
    const std::size_t bytes = staged_ * kTraceRecordBytes;
    staged_ = 0;
    if (std::fwrite(stage_.get(), 1, bytes, file_.get()) != bytes)
        fail("trace record write failed");
}

void
TraceFileWriter::onFinish()
{
    // The last records sit in the stage and stdio's buffer until now.
    writeStage();
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
                stage.get() + i * kTraceRecordBytes, events, path));
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
