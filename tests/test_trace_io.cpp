#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "arch/cache/cache.h"
#include "arch/mix/instruction_mix.h"
#include "isa/trace_buffer.h"
#include "harness/experiment.h"
#include "isa/trace_io.h"
#include "vm_test_util.h"
#include "workloads/workload.h"

namespace jrs {
namespace {

/**
 * Temp path helper; removed at scope exit. Named after the running
 * test: ctest runs each case as its own process, possibly
 * concurrently, so a shared path would let tests clobber each other.
 */
struct TempFile {
    explicit TempFile(const std::string &suffix = "")
        : path(std::string(::testing::TempDir()) + "jrs_trace_test_"
               + ::testing::UnitTest::GetInstance()
                     ->current_test_info()->name()
               + suffix + ".bin") {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

using Bytes = std::vector<std::uint8_t>;

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

/** @p path read into memory through the one JRSTRACE reader. */
TraceBuffer
loadTrace(const std::string &path)
{
    TraceBuffer buf;
    replayTraceFile(path, buf);
    return buf;
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

/** Counts events and notes whether onFinish was reached. */
struct TallySink : TraceSink {
    std::uint64_t events = 0;
    bool finished = false;
    void onEvent(const TraceEvent &) override { ++events; }
    void onFinish() override { finished = true; }
};

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
    // The one address operand, once as a control transfer's target
    // and once as a store's effective address.
    TempFile tmp;
    TraceEvent call;
    call.pc = 0x1234'5678'9abcull;
    call.target = 0x4000'0040ull;
    call.kind = NKind::IndirectCall;
    call.phase = Phase::Translate;
    call.taken = true;
    call.rd = 3;
    call.rs1 = 17;
    call.rs2 = kNoReg;
    TraceEvent store;
    store.pc = 0x2000'0008ull;
    store.mem = 0xdead'beefull;
    store.kind = NKind::Store;
    store.phase = Phase::Gc;
    store.memSize = 8;
    store.rs1 = 4;
    store.rs2 = 31;
    {
        TraceFileWriter w(tmp.path);
        w.onEvent(call);
        w.onEvent(store);
        w.onFinish();
        EXPECT_EQ(w.eventsWritten(), 2u);
    }
    EXPECT_EQ(std::filesystem::file_size(tmp.path),
              kTraceHeaderBytes + 2 * 24);
    RecordingSink rec;
    EXPECT_EQ(replayTraceFile(tmp.path, rec), 2u);
    ASSERT_EQ(rec.events().size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const TraceEvent &in = i == 0 ? call : store;
        const TraceEvent &out = rec.events()[i];
        EXPECT_EQ(out.pc, in.pc);
        EXPECT_EQ(out.mem, in.mem);
        EXPECT_EQ(out.kind, in.kind);
        EXPECT_EQ(out.phase, in.phase);
        EXPECT_EQ(out.taken, in.taken);
        EXPECT_EQ(out.memSize, in.memSize);
        EXPECT_EQ(out.rd, in.rd);
        EXPECT_EQ(out.rs1, in.rs1);
        EXPECT_EQ(out.rs2, in.rs2);
    }
    EXPECT_EQ(rec.events()[0].target, call.target);
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

    // Cut at a record boundary: a shorter stream, which both readers
    // accept.
    std::filesystem::resize_file(tmp.path,
                                 kTraceHeaderBytes + 2 * kTraceRecordBytes);
    CountingSink whole;
    EXPECT_EQ(replayTraceFile(tmp.path, whole), 2u);
    EXPECT_EQ(loadTrace(tmp.path).size(), 2u);

    // Cut mid-record: both readers must refuse the file.
    std::filesystem::resize_file(
        tmp.path, kTraceHeaderBytes + 2 * kTraceRecordBytes - 5);
    CountingSink partial;
    EXPECT_THROW(replayTraceFile(tmp.path, partial), VmError);
    EXPECT_EQ(partial.total(), 1u);  // whole records before the cut
    EXPECT_THROW(loadTrace(tmp.path), VmError);
}

TEST(TraceIo, LoadRejectsOutOfRangeKindAndPhase)
{
    // A corrupt tag would index past every per-kind/per-phase array
    // downstream, so decoding must refuse it and name the record.
    TempFile tmp;
    for (const std::size_t byte : {trace_record::kKind,
                                   trace_record::kPhase}) {
        writeValidTrace(tmp.path, 3);
        ASSERT_EQ(loadTrace(tmp.path).size(), 3u);
        pokeRecordByte(tmp.path, 1, byte, 0xff);
        const std::string err =
            vmErrorOf([&] { (void)loadTrace(tmp.path); });
        EXPECT_EQ(err, "vm: cannot replay " + tmp.path
                           + ": corrupt trace record at event 1: "
                           + (byte == trace_record::kKind ? "kind"
                                                          : "phase")
                           + " tag 255 out of range");
    }
}

TEST(TraceIo, ReplayRejectsOutOfRangeKindAndPhase)
{
    // The first illegal value of each tag, of the flags byte and of
    // the pad byte, in the middle record: the record before it is
    // delivered, none after it, and onFinish is not reached.
    const struct {
        std::size_t byte;
        std::size_t value;
        const char *what;
        const char *fault;
    } cases[] = {
        {trace_record::kKind, kNumNKinds, "kind tag", "out of range"},
        {trace_record::kPhase, kNumPhases, "phase tag", "out of range"},
        {trace_record::kFlags, 2, "flags byte", "out of range"},
        {trace_record::kPad, 1, "pad byte", "not zero"},
    };
    TempFile tmp;
    for (const auto &c : cases) {
        writeValidTrace(tmp.path, 3);
        pokeRecordByte(tmp.path, 1, c.byte,
                       static_cast<std::uint8_t>(c.value));
        TallySink tally;
        const std::string err =
            vmErrorOf([&] { (void)replayTraceFile(tmp.path, tally); });
        EXPECT_EQ(err, "vm: cannot replay " + tmp.path
                           + ": corrupt trace record at event 1: "
                           + c.what + " " + std::to_string(c.value)
                           + " " + c.fault);
        EXPECT_EQ(tally.events, 1u) << c.what;
        EXPECT_FALSE(tally.finished) << c.what;
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

/*
 * Mutation corpus for the reader. One small file is exported from
 * hello at its tinyArg, and every mutant of it below must make
 * replayTraceFile throw a VmError that names the file and, for a
 * record fault, the event index, having delivered exactly the records
 * before the fault and no onFinish. Out-of-range kind, phase, flags
 * and pad bytes are ReplayRejectsOutOfRangeKindAndPhase's inputs; a
 * cut inside the last record is the same file as an appended partial
 * record.
 *
 * Left out on purpose: flips inside the pc or address bytes, and in
 * the memSize and register bytes while they stay in range. Any value
 * there decodes to a well-formed event, so the reader cannot tell a
 * flipped record from a real one without a checksum, which the format
 * does not carry (`jrs_check lint-trace` still judges such an event
 * against the address map).
 */

Bytes
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
}

/** hello at its tinyArg, interpreted, exported to @p path. */
Bytes
exportHello(const std::string &path)
{
    const WorkloadInfo *w = findWorkload("hello");
    EXPECT_NE(w, nullptr);
    {
        TraceFileWriter writer(path);
        RunSpec spec;
        spec.workload = w;
        spec.arg = w->tinyArg;
        spec.policy = std::make_shared<NeverCompilePolicy>();
        spec.sink = &writer;
        (void)runWorkload(spec);
    }
    return readFile(path);
}

class TraceCorpus : public ::testing::Test {
  protected:
    void SetUp() override {
        pristine_ = exportHello(export_.path);
        ASSERT_GT(pristine_.size(), kTraceHeaderBytes);
        ASSERT_EQ((pristine_.size() - kTraceHeaderBytes)
                      % kTraceRecordBytes,
                  0u);
        records_ = (pristine_.size() - kTraceHeaderBytes)
            / kTraceRecordBytes;
        ASSERT_GT(records_, 2u);
    }

    /** Offset of byte @p field of record @p index. */
    static std::size_t at(std::uint64_t index, std::size_t field) {
        return kTraceHeaderBytes + index * kTraceRecordBytes + field;
    }

    /**
     * @p bytes, replayed from the mutant path, must fail with a
     * message naming that path and containing @p what, after exactly
     * @p before events.
     */
    void expectRejected(const Bytes &bytes, const std::string &what,
                        std::uint64_t before, const std::string &why) {
        {
            std::ofstream f(mutant_.path,
                            std::ios::binary | std::ios::trunc);
            f.write(reinterpret_cast<const char *>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size()));
            ASSERT_TRUE(f.good()) << mutant_.path;
        }
        TallySink tally;
        const std::string err =
            vmErrorOf([&] { (void)replayTraceFile(mutant_.path, tally); });
        EXPECT_NE(err.find(mutant_.path), std::string::npos)
            << why << ": " << err;
        EXPECT_NE(err.find(what), std::string::npos)
            << why << ": expected \"" << what << "\" in \"" << err
            << "\"";
        EXPECT_EQ(tally.events, before) << why;
        EXPECT_FALSE(tally.finished) << why;
    }

    TempFile export_{"_export"};
    TempFile mutant_{"_mutant"};
    Bytes pristine_;
    std::uint64_t records_ = 0;
};

TEST_F(TraceCorpus, PristineExportIsDeterministicAndReplays)
{
    // The pad byte is always written as 0, so two exports of one run
    // are byte-identical.
    TempFile again("_again");
    EXPECT_EQ(exportHello(again.path), pristine_);
    EXPECT_EQ(pristine_[sizeof(kTraceMagic)], kTraceVersion);
    for (std::uint64_t i = 0; i < records_; ++i)
        ASSERT_EQ(pristine_[at(i, trace_record::kPad)], 0u)
            << "record " << i;

    TallySink tally;
    EXPECT_EQ(replayTraceFile(export_.path, tally), records_);
    EXPECT_EQ(tally.events, records_);
    EXPECT_TRUE(tally.finished);
}

TEST_F(TraceCorpus, EveryHeaderTruncationIsACleanError)
{
    for (std::size_t len = 0; len < kTraceHeaderBytes; ++len) {
        expectRejected(Bytes(pristine_.begin(), pristine_.begin() + len),
                       "not a jrs trace file", 0,
                       "header cut to " + std::to_string(len));
    }
}

TEST_F(TraceCorpus, EveryLastRecordTruncationIsACleanError)
{
    // A cut at the record boundary is a shorter, valid stream; a cut
    // anywhere inside the last record is not.
    const std::size_t last = at(records_ - 1, 0);
    for (std::size_t k = 1; k < kTraceRecordBytes; ++k) {
        expectRejected(
            Bytes(pristine_.begin(), pristine_.begin() + last + k),
            "truncated trace record after "
                + std::to_string(records_ - 1) + " events",
            records_ - 1, "last record cut to " + std::to_string(k));
    }
}

TEST_F(TraceCorpus, EveryHeaderBitFlipIsACleanError)
{
    for (std::size_t byte = 0; byte < kTraceHeaderBytes; ++byte) {
        const char *what = byte < 8   ? "bad magic"
                           : byte < 12 ? "unsupported version"
                                       : "reserved header field";
        for (int bit = 0; bit < 8; ++bit) {
            Bytes m = pristine_;
            m[byte] ^= static_cast<std::uint8_t>(1u << bit);
            expectRejected(m, what, 0,
                           "header byte " + std::to_string(byte)
                               + " bit " + std::to_string(bit));
        }
    }
}

TEST_F(TraceCorpus, AddressOnAKindWithoutOneIsACleanError)
{
    // Every kind in the file that carries no address (ALU, Nop): its
    // first record, given one in the lowest and the highest byte.
    bool seen[kNumNKinds] = {};
    std::size_t mutants = 0;
    for (std::uint64_t i = 0; i < records_; ++i) {
        const auto kind =
            static_cast<NKind>(pristine_[at(i, trace_record::kKind)]);
        if (isMemory(kind) || isControl(kind)
            || seen[static_cast<std::size_t>(kind)])
            continue;
        seen[static_cast<std::size_t>(kind)] = true;
        for (const std::size_t byte :
             {trace_record::kAddr, trace_record::kAddr + 7}) {
            Bytes m = pristine_;
            m[at(i, byte)] = 0x40;
            expectRejected(m,
                           "corrupt trace record at event "
                               + std::to_string(i) + ": "
                               + nkindName(kind)
                               + " record carries an address",
                           i, std::string(nkindName(kind)) + " record");
            ++mutants;
        }
    }
    EXPECT_TRUE(seen[static_cast<std::size_t>(NKind::IntAlu)]);
    EXPECT_GE(mutants, 2u);
}

TEST_F(TraceCorpus, VersionOneHeaderIsRejected)
{
    Bytes m = pristine_;
    m[sizeof(kTraceMagic)] = 1;
    expectRejected(m, "unsupported version 1", 0, "version 1");
    EXPECT_EQ(vmErrorOf([&] {
                  TallySink tally;
                  (void)replayTraceFile(mutant_.path, tally);
              }),
              "vm: cannot replay " + mutant_.path
                  + ": unsupported version 1");
}

} // namespace
} // namespace jrs
