#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "arch/cache/cache.h"
#include "arch/mix/instruction_mix.h"
#include "isa/trace_buffer.h"
#include "isa/trace_io.h"
#include "vm_test_util.h"

namespace jrs {
namespace {

/**
 * Temp path helper; removed at scope exit. Named after the running
 * test: ctest runs each case as its own process, possibly
 * concurrently, so a shared path would let tests clobber each other.
 */
struct TempFile {
    TempFile()
        : path(std::string(::testing::TempDir()) + "jrs_trace_test_"
               + ::testing::UnitTest::GetInstance()
                     ->current_test_info()->name()
               + ".bin") {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

/** Byte offsets of the kind and phase tags within a record. */
constexpr std::size_t kKindByte = 24;
constexpr std::size_t kPhaseByte = 25;

/** Write @p n valid events (IntAlu, Interpret) to @p path. */
void
writeValidTrace(const std::string &path, std::uint64_t n)
{
    TraceFileWriter w(path);
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceEvent ev;
        ev.kind = NKind::IntAlu;
        ev.pc = 0x1000 + 4 * i;
        w.onEvent(ev);
    }
    w.onFinish();
}

/** Overwrite byte @p offset of record @p index with @p value. */
void
pokeRecordByte(const std::string &path, std::uint64_t index,
               std::size_t offset, std::uint8_t value)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f,
                         static_cast<long>(kTraceHeaderBytes
                                           + index * kTraceRecordBytes
                                           + offset),
                         SEEK_SET),
              0);
    ASSERT_EQ(std::fputc(value, f), value);
    std::fclose(f);
}

/** The VmError message @p fn throws, or "" when it does not throw. */
template <typename Fn>
std::string
vmErrorOf(Fn fn)
{
    try {
        fn();
    } catch (const VmError &e) {
        return e.what();
    }
    return "";
}

/** Sink that fails on its first event. */
struct ThrowingSink : TraceSink {
    void onEvent(const TraceEvent &) override {
        throw std::runtime_error("sink failed");
    }
};

/** Open descriptors of this process; -1 without /proc/self/fd. */
long
openFds()
{
    std::error_code ec;
    long n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/fd", ec), end;
         !ec && it != end; it.increment(ec))
        ++n;
    return ec ? -1 : n;
}

TEST(TraceIo, RoundTripsEveryField)
{
    TempFile tmp;
    TraceEvent in;
    in.pc = 0x1234'5678'9abcull;
    in.mem = 0xdead'beefull;
    in.target = 0x4000'0040ull;
    in.kind = NKind::IndirectCall;
    in.phase = Phase::Translate;
    in.taken = true;
    in.memSize = 8;
    in.rd = 3;
    in.rs1 = 17;
    in.rs2 = kNoReg;
    {
        TraceFileWriter w(tmp.path);
        w.onEvent(in);
        w.onFinish();
        EXPECT_EQ(w.eventsWritten(), 1u);
    }
    RecordingSink rec;
    EXPECT_EQ(replayTraceFile(tmp.path, rec), 1u);
    ASSERT_EQ(rec.events().size(), 1u);
    const TraceEvent &out = rec.events()[0];
    EXPECT_EQ(out.pc, in.pc);
    EXPECT_EQ(out.mem, in.mem);
    EXPECT_EQ(out.target, in.target);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.phase, in.phase);
    EXPECT_EQ(out.taken, in.taken);
    EXPECT_EQ(out.memSize, in.memSize);
    EXPECT_EQ(out.rd, in.rd);
    EXPECT_EQ(out.rs1, in.rs1);
    EXPECT_EQ(out.rs2, in.rs2);
}

TEST(TraceIo, RecordedRunReplaysToIdenticalAnalysis)
{
    TempFile tmp;
    const Program prog = test::makeProgram([](MethodBuilder &m) {
        m.locals(2);
        m.iconst(40).istore(1);
        Label loop = m.newLabel(), done = m.newLabel();
        m.bind(loop);
        m.iload(1).ifle(done);
        m.iinc(1, -1);
        m.gotoL(loop);
        m.bind(done);
        m.iconst(0).ireturn();
    });

    // Live analysis + recording in one run.
    InstructionMix live_mix;
    CacheSink live_cache({4096, 32, 2, true}, {4096, 32, 2, true});
    {
        TraceFileWriter writer(tmp.path);
        MultiSink multi;
        multi.add(&live_mix);
        multi.add(&live_cache);
        multi.add(&writer);
        (void)test::runProgram(prog, 0,
                               std::make_shared<NeverCompilePolicy>(),
                               &multi);
    }

    // Offline replay must reproduce the analysis exactly.
    InstructionMix replay_mix;
    CacheSink replay_cache({4096, 32, 2, true}, {4096, 32, 2, true});
    MultiSink multi;
    multi.add(&replay_mix);
    multi.add(&replay_cache);
    const std::uint64_t n = replayTraceFile(tmp.path, multi);
    EXPECT_EQ(n, live_mix.total());
    EXPECT_EQ(replay_mix.total(), live_mix.total());
    for (std::size_t k = 0; k < kNumNKinds; ++k) {
        EXPECT_EQ(replay_mix.count(static_cast<NKind>(k)),
                  live_mix.count(static_cast<NKind>(k)));
    }
    EXPECT_EQ(replay_cache.icache().stats().misses(),
              live_cache.icache().stats().misses());
    EXPECT_EQ(replay_cache.dcache().stats().misses(),
              live_cache.dcache().stats().misses());
    EXPECT_EQ(replay_cache.dcache().stats().writeMisses,
              live_cache.dcache().stats().writeMisses);
}

TEST(TraceIo, RejectsMissingFile)
{
    RecordingSink rec;
    EXPECT_THROW(replayTraceFile("/nonexistent/path/x.bin", rec),
                 VmError);
}

TEST(TraceIo, RejectsGarbageFile)
{
    TempFile tmp;
    std::FILE *f = std::fopen(tmp.path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace", f);
    std::fclose(f);
    RecordingSink rec;
    EXPECT_THROW(replayTraceFile(tmp.path, rec), VmError);
}

TEST(TraceIo, EmptyTraceReplaysZeroEvents)
{
    TempFile tmp;
    {
        TraceFileWriter w(tmp.path);
        w.onFinish();
    }
    CountingSink count;
    EXPECT_EQ(replayTraceFile(tmp.path, count), 0u);
    EXPECT_EQ(count.total(), 0u);
}

TEST(TraceIo, RejectsTruncatedRecord)
{
    TempFile tmp;
    writeValidTrace(tmp.path, 3);
    ASSERT_EQ(std::filesystem::file_size(tmp.path),
              kTraceHeaderBytes + 3 * kTraceRecordBytes);

    // Cut at a record boundary: a shorter stream, which both loaders
    // accept (the trace cache's event count catches that case).
    std::filesystem::resize_file(tmp.path,
                                 kTraceHeaderBytes + 2 * kTraceRecordBytes);
    CountingSink whole;
    EXPECT_EQ(replayTraceFile(tmp.path, whole), 2u);
    EXPECT_EQ(TraceBuffer::load(tmp.path).size(), 2u);

    // Cut mid-record: both loaders must refuse the file.
    std::filesystem::resize_file(
        tmp.path, kTraceHeaderBytes + 2 * kTraceRecordBytes - 5);
    CountingSink partial;
    EXPECT_THROW(replayTraceFile(tmp.path, partial), VmError);
    EXPECT_EQ(partial.total(), 1u);  // whole records before the cut
    EXPECT_THROW(TraceBuffer::load(tmp.path), VmError);
}

TEST(TraceIo, LoadRejectsOutOfRangeKindAndPhase)
{
    // A corrupt tag would index past every per-kind/per-phase array
    // downstream, so decoding must refuse it and name the record.
    TempFile tmp;
    for (const std::size_t byte : {kKindByte, kPhaseByte}) {
        writeValidTrace(tmp.path, 3);
        ASSERT_EQ(TraceBuffer::load(tmp.path).size(), 3u);
        pokeRecordByte(tmp.path, 1, byte, 0xff);
        const std::string err =
            vmErrorOf([&] { (void)TraceBuffer::load(tmp.path); });
        EXPECT_EQ(err, std::string("vm: corrupt trace record at event 1: ")
                           + (byte == kKindByte ? "kind" : "phase")
                           + " tag 255 out of range");
    }
}

TEST(TraceIo, ReplayRejectsOutOfRangeKindAndPhase)
{
    TempFile tmp;
    // The first illegal value of each tag.
    for (const auto &[byte, tag] :
         {std::pair{kKindByte, kNumNKinds},
          std::pair{kPhaseByte, kNumPhases}}) {
        writeValidTrace(tmp.path, 3);
        pokeRecordByte(tmp.path, 2, byte,
                       static_cast<std::uint8_t>(tag));
        CountingSink count;
        const std::string err =
            vmErrorOf([&] { (void)replayTraceFile(tmp.path, count); });
        EXPECT_NE(err.find("corrupt trace record at event 2"),
                  std::string::npos)
            << err;
        EXPECT_EQ(count.total(), 2u);  // the records before the bad one
    }
}

TEST(TraceIo, ThrowingSinkClosesTheFile)
{
    TempFile tmp;
    writeValidTrace(tmp.path, 3);
    const long before = openFds();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/fd not available";
    ThrowingSink sink;
    EXPECT_THROW((void)replayTraceFile(tmp.path, sink),
                 std::runtime_error);
    EXPECT_EQ(openFds(), before);
}

TEST(TraceIo, FailedFinalFlushThrows)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";
    // A stream shorter than stdio's buffer: every fwrite succeeds and
    // only the final flush reaches the full device.
    TraceFileWriter w("/dev/full");
    TraceEvent ev;
    ev.kind = NKind::IntAlu;
    for (int i = 0; i < 3; ++i)
        w.onEvent(ev);
    const std::string err = vmErrorOf([&] { w.onFinish(); });
    EXPECT_NE(err.find("trace write failed: /dev/full"),
              std::string::npos)
        << err;
}

TEST(TraceIo, WriterErrorsNameThePathAndTheCause)
{
    const std::string missing = "/nonexistent-jrs-dir/t.jrstrace";
    const std::string open =
        vmErrorOf([&] { TraceFileWriter w(missing); });
    EXPECT_NE(open.find(missing + ": " + std::strerror(ENOENT)),
              std::string::npos)
        << open;

    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";
    // More records than stdio buffers: a record write itself fails.
    TraceFileWriter w("/dev/full");
    TraceEvent ev;
    ev.kind = NKind::IntAlu;
    const std::string write = vmErrorOf([&] {
        for (int i = 0; i < 100000; ++i)
            w.onEvent(ev);
    });
    EXPECT_NE(write.find("trace record write failed: /dev/full: "
                         + std::string(std::strerror(ENOSPC))),
              std::string::npos)
        << write;
}

} // namespace
} // namespace jrs
