/**
 * @file
 * jrs::check conformance suite (ctest label: check).
 *
 * Four layers:
 *  - a fixed regression corpus of arithmetic/bounds edge cases that
 *    must behave identically under the interpreter and the JIT
 *    (INT32_MIN div/rem -1, shift masking, overflow wrap, f2i
 *    saturation, div-by-zero and arraycopy guest exceptions);
 *  - the differential runner + generator: determinism, mask
 *    stability, a fuzz smoke campaign, all workloads across modes;
 *  - the trace-invariant checker: every workload's interp and jit
 *    streams are clean and conserve events, plus synthetic bad-event
 *    unit tests;
 *  - the trace-file linter on a real exported stream, including a
 *    corrupt record, a garbage file and a missing one.
 */
#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "check/differential.h"
#include "check/fuzz.h"
#include "check/invariants.h"
#include "check/progen.h"
#include "isa/address_map.h"
#include "isa/trace_buffer.h"
#include "isa/trace_io.h"
#include "obs/attribution.h"
#include "sweep/trace_key.h"
#include "vm/bytecode/assembler.h"
#include "vm/engine/engine.h"
#include "vm/engine/policy.h"
#include "workloads/workload.h"

using namespace jrs;
namespace fs = std::filesystem;

namespace {

/** Build a one-method program: `Main.run(int) -> int` with @p body. */
template <typename Body>
Program
buildIntProgram(Body &&body)
{
    ProgramBuilder pb("check-test");
    ClassBuilder &main = pb.cls("Main");
    MethodBuilder &run =
        main.staticMethod("run", {VType::Int}, VType::Int);
    run.locals(4);
    body(run);
    return pb.finish("Main.run");
}

struct ModeRun {
    RunResult result;
    check::VmStateDigest digest;
};

ModeRun
runMode(const Program &prog, check::DiffMode mode, std::int32_t arg)
{
    ExecutionEngine engine(prog, check::makeDiffConfig(mode));
    ModeRun r;
    r.result = engine.run(arg);
    r.digest = check::captureDigest(engine, r.result);
    return r;
}

/**
 * Run under interp and jit, require identical digests and a clean
 * completion, and return the agreed exit value.
 */
std::int32_t
exitBoth(const Program &prog, std::int32_t arg = 0)
{
    const ModeRun i = runMode(prog, check::DiffMode::Interp, arg);
    const ModeRun j = runMode(prog, check::DiffMode::Jit, arg);
    EXPECT_EQ(check::describeDigestDiff("interp", i.digest, "jit",
                                        j.digest),
              "");
    EXPECT_TRUE(i.result.completed);
    EXPECT_TRUE(i.result.hasExitValue);
    return i.result.exitValue;
}

} // namespace

// ---------------------------------------------------------------------
// Arithmetic edge-case regression corpus
// ---------------------------------------------------------------------

TEST(ArithmeticEdges, Int32MinDivMinusOneWraps)
{
    const Program p = buildIntProgram([](MethodBuilder &m) {
        m.iconst(INT32_MIN).iconst(-1).idiv().ireturn();
    });
    EXPECT_EQ(exitBoth(p), INT32_MIN);
}

TEST(ArithmeticEdges, Int32MinRemMinusOneIsZero)
{
    const Program p = buildIntProgram([](MethodBuilder &m) {
        m.iconst(INT32_MIN).iconst(-1).irem().ireturn();
    });
    EXPECT_EQ(exitBoth(p), 0);
}

TEST(ArithmeticEdges, ShiftAmountsMaskToFiveBits)
{
    const Program shl = buildIntProgram([](MethodBuilder &m) {
        m.iconst(1).iconst(33).ishl().ireturn();
    });
    EXPECT_EQ(exitBoth(shl), 2);

    const Program shr = buildIntProgram([](MethodBuilder &m) {
        m.iconst(-8).iconst(33).ishr().ireturn();
    });
    EXPECT_EQ(exitBoth(shr), -4);

    const Program ushr = buildIntProgram([](MethodBuilder &m) {
        m.iconst(-8).iconst(33).iushr().ireturn();
    });
    EXPECT_EQ(exitBoth(ushr), 0x7FFFFFFC);
}

TEST(ArithmeticEdges, AddMulOverflowWrap)
{
    const Program add = buildIntProgram([](MethodBuilder &m) {
        m.iconst(INT32_MAX).iconst(1).iadd().ireturn();
    });
    EXPECT_EQ(exitBoth(add), INT32_MIN);

    const Program mul = buildIntProgram([](MethodBuilder &m) {
        m.iconst(65537).iconst(65537).imul().ireturn();
    });
    EXPECT_EQ(exitBoth(mul), 131073);
}

TEST(ArithmeticEdges, F2iSaturatesAndNanIsZero)
{
    const Program hi = buildIntProgram([](MethodBuilder &m) {
        m.fconst(3.0e9f).f2i().ireturn();
    });
    EXPECT_EQ(exitBoth(hi), INT32_MAX);

    const Program lo = buildIntProgram([](MethodBuilder &m) {
        m.fconst(-3.0e9f).f2i().ireturn();
    });
    EXPECT_EQ(exitBoth(lo), INT32_MIN);

    const Program nan = buildIntProgram([](MethodBuilder &m) {
        m.fconst(0.0f).fconst(0.0f).fdiv().f2i().ireturn();
    });
    EXPECT_EQ(exitBoth(nan), 0);
}

TEST(ArithmeticEdges, DivByZeroThrowsIdenticallyInBothModes)
{
    const Program p = buildIntProgram([](MethodBuilder &m) {
        m.iload(0).iconst(0).idiv().ireturn();
    });
    const ModeRun i = runMode(p, check::DiffMode::Interp, 7);
    const ModeRun j = runMode(p, check::DiffMode::Jit, 7);
    EXPECT_FALSE(i.result.completed);
    ASSERT_NE(i.result.uncaughtException, nullptr);
    ASSERT_NE(j.result.uncaughtException, nullptr);
    EXPECT_STREQ(i.result.uncaughtException, "ArithmeticException");
    EXPECT_STREQ(j.result.uncaughtException, "ArithmeticException");
    EXPECT_EQ(i.result.guestThrows, 1u);
    EXPECT_EQ(check::describeDigestDiff("interp", i.digest, "jit",
                                        j.digest),
              "");
}

TEST(ArithmeticEdges, RemByZeroCaughtInBothModes)
{
    const Program p = buildIntProgram([](MethodBuilder &m) {
        const Label start = m.newLabel();
        const Label end = m.newLabel();
        const Label handler = m.newLabel();
        m.bind(start).iload(0).iconst(0).irem().ireturn();
        m.bind(end);
        m.bind(handler).pop().iconst(42).ireturn();
        m.addHandler(start, end, handler);
    });
    EXPECT_EQ(exitBoth(p, 9), 42);
}

// ---------------------------------------------------------------------
// arrayCopy bounds regression (int32-overflow fix)
// ---------------------------------------------------------------------

namespace {

/** arraycopy between two fresh int[4]s; 42 = caught AIOOBE, 0 = ok. */
Program
buildCopyProgram(std::int32_t src_pos, std::int32_t dst_pos,
                 std::int32_t len)
{
    return buildIntProgram([&](MethodBuilder &m) {
        const Label start = m.newLabel();
        const Label end = m.newLabel();
        const Label handler = m.newLabel();
        m.iconst(4).newArray(ArrayKind::Int).astore(1);
        m.iconst(4).newArray(ArrayKind::Int).astore(2);
        m.bind(start);
        m.aload(1)
            .iconst(src_pos)
            .aload(2)
            .iconst(dst_pos)
            .iconst(len)
            .intrinsic(IntrinsicId::ArrayCopy);
        m.bind(end);
        m.iconst(0).ireturn();
        m.bind(handler).pop().iconst(42).ireturn();
        m.addHandler(start, end, handler);
    });
}

} // namespace

TEST(ArrayCopyBounds, PositionNearIntMaxThrowsInsteadOfWrapping)
{
    // src_pos + len == INT32_MAX - 1 + 2 wraps negative in 32 bits;
    // the check must still reject it (guest AIOOBE, not a wild read).
    EXPECT_EQ(exitBoth(buildCopyProgram(INT32_MAX - 1, 0, 2)), 42);
    EXPECT_EQ(exitBoth(buildCopyProgram(0, INT32_MAX - 1, 2)), 42);
}

TEST(ArrayCopyBounds, ExactAndEmptyRanges)
{
    EXPECT_EQ(exitBoth(buildCopyProgram(2, 0, 2)), 0);   // fits exactly
    EXPECT_EQ(exitBoth(buildCopyProgram(4, 0, 0)), 0);   // empty at end
    EXPECT_EQ(exitBoth(buildCopyProgram(5, 0, 0)), 42);  // pos past end
    EXPECT_EQ(exitBoth(buildCopyProgram(3, 0, 2)), 42);  // one too far
    EXPECT_EQ(exitBoth(buildCopyProgram(0, 0, -1)), 42); // negative len
}

// ---------------------------------------------------------------------
// Oracle decisions with asymmetric profile tables
// ---------------------------------------------------------------------

TEST(OracleDecisions, AsymmetricTablesKeepEveryMethod)
{
    // Interp run saw 3 methods; jit run's table only covers 1 (e.g. a
    // method never reached compilation). Decisions must still cover
    // all 3, treating the missing jit profile as zero cost.
    ProfileTable interp_run(3);
    ProfileTable jit_run(1);

    interp_run.of(0).invocations = 5;
    interp_run.of(0).interpEvents = 1000;
    jit_run.of(0).invocations = 5;
    jit_run.of(0).translateEvents = 400;
    jit_run.of(0).nativeEvents = 200;

    interp_run.of(1).invocations = 0;  // never invoked

    interp_run.of(2).invocations = 2;
    interp_run.of(2).interpEvents = 300;  // no jit row at all

    const std::vector<bool> compile =
        computeOracleDecisions(interp_run, jit_run);
    ASSERT_EQ(compile.size(), 3u);
    EXPECT_TRUE(compile[0]);   // 600 < 1000
    EXPECT_FALSE(compile[1]);  // never invoked
    // No JIT-run evidence for method 2: its jit_cost reads as zero,
    // which used to win the comparison unconditionally. The oracle now
    // refuses to compile without evidence.
    EXPECT_FALSE(compile[2]);
}

TEST(OracleDecisions, JitTableLargerThanInterp)
{
    ProfileTable interp_run(1);
    ProfileTable jit_run(2);
    interp_run.of(0).invocations = 1;
    interp_run.of(0).interpEvents = 10;
    jit_run.of(0).translateEvents = 50;
    jit_run.of(1).translateEvents = 50;

    const std::vector<bool> compile =
        computeOracleDecisions(interp_run, jit_run);
    ASSERT_EQ(compile.size(), 2u);
    EXPECT_FALSE(compile[0]);  // 50 >= 10
    EXPECT_FALSE(compile[1]);  // no interp invocations
}

// ---------------------------------------------------------------------
// Generator: determinism and mask stability
// ---------------------------------------------------------------------

TEST(Progen, DeterministicAcrossCalls)
{
    const check::GenOptions opts;
    const Program a = check::generateProgram(42, opts);
    const Program b = check::generateProgram(42, opts);
    ASSERT_EQ(a.methods.size(), b.methods.size());
    for (std::size_t i = 0; i < a.methods.size(); ++i) {
        EXPECT_EQ(a.methods[i].name, b.methods[i].name);
        EXPECT_EQ(a.methods[i].code, b.methods[i].code) << a.methods[i].name;
    }
}

TEST(Progen, DifferentSeedsDiffer)
{
    const check::GenOptions opts;
    const Program a = check::generateProgram(1, opts);
    const Program b = check::generateProgram(2, opts);
    bool any_differ = a.methods.size() != b.methods.size();
    for (std::size_t i = 0;
         !any_differ && i < a.methods.size(); ++i)
        any_differ = a.methods[i].code != b.methods[i].code;
    EXPECT_TRUE(any_differ);
}

TEST(Progen, MaskFiltersEntryButNotKernels)
{
    const check::GenOptions opts;
    const Program full = check::generateProgram(7, opts);
    const Program masked = check::generateProgram(7, opts, 0b101);

    // Kernel bodies must be byte-identical under any mask — that is
    // what makes mask bisection a sound minimizer.
    for (const Method &m : masked.methods) {
        if (m.name.rfind("G.k", 0) != 0)
            continue;
        bool found = false;
        for (const Method &f : full.methods) {
            if (f.name == m.name) {
                EXPECT_EQ(f.code, m.code) << m.name;
                found = true;
            }
        }
        EXPECT_TRUE(found) << m.name;
    }
}

// ---------------------------------------------------------------------
// Differential runner: workloads + fuzz smoke
// ---------------------------------------------------------------------

TEST(Differential, AllWorkloadsAgreeAcrossModes)
{
    check::DifferentialRunner runner;
    for (const WorkloadInfo &info : allWorkloads()) {
        const check::DiffResult r = runner.checkWorkload(info, 0);
        EXPECT_TRUE(r.agreed) << r.report;
    }
}

TEST(Differential, FuzzSmoke)
{
    check::FuzzOptions opts;
    opts.seedBase = 1000;
    opts.numSeeds = 40;
    opts.jobs = 4;
    const check::FuzzReport report = check::runFuzzCampaign(opts);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.seedsRun, 40u);
}

// ---------------------------------------------------------------------
// Trace invariants: every workload, interp + jit
// ---------------------------------------------------------------------

namespace {

struct InvariantCase {
    const char *workload;
    check::DiffMode mode;
};

// Without this, gtest prints the case as its raw bytes, and the pointer
// in them moves with ASLR, so the ctest name changed on every build.
void
PrintTo(const InvariantCase &c, std::ostream *os)
{
    *os << c.workload << "/" << check::diffModeName(c.mode);
}

std::string
invariantCaseName(const testing::TestParamInfo<InvariantCase> &info)
{
    return std::string(info.param.workload) + "_"
        + check::diffModeName(info.param.mode);
}

class TraceInvariants : public testing::TestWithParam<InvariantCase> {};

} // namespace

TEST_P(TraceInvariants, StreamIsCleanAndConserves)
{
    const InvariantCase &c = GetParam();
    const WorkloadInfo *info = findWorkload(c.workload);
    ASSERT_NE(info, nullptr);

    const Program prog = info->build();
    check::TraceInvariantChecker checker;
    EngineConfig cfg = check::makeDiffConfig(c.mode);
    cfg.sink = &checker;
    ExecutionEngine engine(prog, cfg);
    const RunResult result = engine.run(info->tinyArg);

    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(checker.ok()) << checker.report();
    EXPECT_EQ(check::checkRunConservation(checker, result), "");
    EXPECT_EQ(check::checkProfileConservation(result), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TraceInvariants,
    testing::Values(
        InvariantCase{"hello", check::DiffMode::Interp},
        InvariantCase{"hello", check::DiffMode::Jit},
        InvariantCase{"compress", check::DiffMode::Interp},
        InvariantCase{"compress", check::DiffMode::Jit},
        InvariantCase{"jess", check::DiffMode::Interp},
        InvariantCase{"jess", check::DiffMode::Jit},
        InvariantCase{"db", check::DiffMode::Interp},
        InvariantCase{"db", check::DiffMode::Jit},
        InvariantCase{"javac", check::DiffMode::Interp},
        InvariantCase{"javac", check::DiffMode::Jit},
        InvariantCase{"mpeg", check::DiffMode::Interp},
        InvariantCase{"mpeg", check::DiffMode::Jit},
        InvariantCase{"mtrt", check::DiffMode::Interp},
        InvariantCase{"mtrt", check::DiffMode::Jit},
        InvariantCase{"jack", check::DiffMode::Interp},
        InvariantCase{"jack", check::DiffMode::Jit}),
    invariantCaseName);

TEST(TraceInvariantsUnit, SyntheticViolationsAreCaught)
{
    using check::TraceInvariantChecker;

    // A well-formed interpreter ALU event is clean.
    {
        TraceInvariantChecker ok;
        TraceEvent ev;
        ev.pc = seg::kInterpCode + 0x40;
        ev.kind = NKind::IntAlu;
        ev.phase = Phase::Interpret;
        ok.onEvent(ev);
        EXPECT_TRUE(ok.ok()) << ok.report();
        EXPECT_EQ(ok.eventCount(), 1u);
    }

    auto expectFlagged = [](TraceEvent ev, const char *why) {
        TraceInvariantChecker c;
        c.onEvent(ev);
        EXPECT_FALSE(c.ok()) << why;
        EXPECT_FALSE(c.report().empty()) << why;
    };

    TraceEvent ev;
    ev.pc = seg::kInterpCode + 4;
    ev.kind = NKind::IntAlu;
    ev.phase = Phase::Interpret;

    TraceEvent bad = ev;
    bad.pc = seg::kHeap + 4;
    expectFlagged(bad, "pc outside the phase's home segment");

    bad = ev;
    bad.kind = NKind::Load;
    bad.memSize = 4;  // mem left null
    expectFlagged(bad, "load with null effective address");

    bad = ev;
    bad.kind = NKind::Store;
    bad.mem = seg::kHeap + 8;
    bad.memSize = 3;
    expectFlagged(bad, "non-power-of-two access size");

    bad = ev;
    bad.kind = NKind::Load;
    bad.mem = 0xdead;  // below every segment
    bad.memSize = 4;
    expectFlagged(bad, "access outside every data region");

    bad = ev;
    bad.taken = true;
    expectFlagged(bad, "ALU marked taken");

    bad = ev;
    bad.mem = seg::kHeap;
    expectFlagged(bad, "ALU with an effective address");

    bad = ev;
    bad.kind = NKind::Call;
    bad.taken = true;
    bad.target = 0;
    expectFlagged(bad, "call with null target");

    bad = ev;
    bad.kind = NKind::Jump;
    bad.target = seg::kInterpCode;
    bad.taken = false;
    expectFlagged(bad, "jump marked not-taken");

    bad = ev;
    bad.rd = 40;
    expectFlagged(bad, "register id out of range");

    bad = ev;
    bad.phase = static_cast<Phase>(7);
    expectFlagged(bad, "illegal phase tag");

    // Branches legitimately carry either outcome.
    {
        TraceInvariantChecker c;
        TraceEvent br = ev;
        br.kind = NKind::Branch;
        br.target = seg::kInterpCode + 8;
        br.taken = false;
        c.onEvent(br);
        br.taken = true;
        c.onEvent(br);
        EXPECT_TRUE(c.ok()) << c.report();
    }
}

// ---------------------------------------------------------------------
// Profile-vs-attribution join
// ---------------------------------------------------------------------

TEST(Attribution, ProfileMatchesTraceJoin)
{
    const WorkloadInfo *info = findWorkload("compress");
    ASSERT_NE(info, nullptr);

    struct Case {
        check::DiffMode mode;
        std::uint64_t slack;
    };
    // Interp needs only the frame-boundary margin; compilation also
    // shifts translator-prologue events between adjacent compilations.
    for (const Case c : {Case{check::DiffMode::Interp, 16},
                         Case{check::DiffMode::Jit, 96}}) {
        const Program prog = info->build();
        TraceBuffer trace;
        EngineConfig cfg = check::makeDiffConfig(c.mode);
        cfg.sink = &trace;
        ExecutionEngine engine(prog, cfg);
        const RunResult result = engine.run(info->tinyArg);
        ASSERT_TRUE(result.completed);

        const obs::MethodMap map =
            obs::MethodMap::forRun(engine.registry(),
                                   engine.codeCache());
        EXPECT_EQ(check::checkProfileAttribution(trace, map, prog,
                                                 result, c.slack),
                  "")
            << check::diffModeName(c.mode);
    }
}

// ---------------------------------------------------------------------
// On-disk trace linting
// ---------------------------------------------------------------------

namespace {

class LintTrace : public testing::Test {
  protected:
    void SetUp() override {
        // Per-test directory: ctest runs each case as its own process,
        // possibly concurrently, so a shared path would let one test's
        // TearDown delete another's files mid-run.
        dir_ = fs::temp_directory_path()
            / (std::string("jrs-check-lint-test-")
               + testing::UnitTest::GetInstance()
                     ->current_test_info()->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        trace_ = (dir_ / "hello.jrstrace").string();
        TraceFileWriter writer(trace_);
        RunSpec spec = sweep::traceKey("hello", sweep::ExecMode::interp())
                           .toRunSpec();
        spec.sink = &writer;
        (void)runWorkload(spec);
    }

    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
    std::string trace_;
};

} // namespace

TEST_F(LintTrace, CorruptRecordIsACleanError)
{
    // A freshly written stream lints clean.
    const check::LintResult fresh = check::lintTraceFile(trace_);
    EXPECT_TRUE(fresh.ok) << fresh.error;
    EXPECT_GT(fresh.events, 3u);

    // Phase tag of record 3 out of range: the shared
    // JRSTRACE reader refuses the file and lint reports why.
    {
        std::FILE *f = std::fopen(trace_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f,
                             static_cast<long>(kTraceHeaderBytes
                                               + 3 * kTraceRecordBytes
                                               + trace_record::kPhase),
                             SEEK_SET),
                  0);
        std::fputc(9, f);
        std::fclose(f);
    }
    const check::LintResult r = check::lintTraceFile(trace_);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.events, 0u);
    EXPECT_EQ(r.error,
              "vm: cannot replay " + trace_
                  + ": corrupt trace record at event 3: phase tag 9 out "
                    "of range");
}

TEST_F(LintTrace, GarbageFileFailsHeaderCheck)
{
    const std::string bogus = (dir_ / "bogus.jrstrace").string();
    {
        std::ofstream f(bogus, std::ios::trunc);
        f << "garbage";
    }
    const check::LintResult r = check::lintTraceFile(bogus);
    EXPECT_FALSE(r.ok);

    const check::LintResult missing =
        check::lintTraceFile((dir_ / "nope.jrstrace").string());
    EXPECT_FALSE(missing.ok);
}
