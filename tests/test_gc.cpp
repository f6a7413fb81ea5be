/**
 * @file
 * jrs::gc test suite (ctest label "gc").
 *
 * Pins the subsystem's contracts:
 *  - root enumeration is complete: cycles, ref-array interiors and
 *    static roots survive forced collections under both collectors,
 *    and ref-looking bits in a lockword do NOT keep an object alive;
 *  - the live digest is relocation-independent: identical across
 *    nogc, mark-sweep reallocation and copying evacuation;
 *  - every registered workload produces the same digest under every
 *    collector and every execution mode (forced-collection stress);
 *  - with no collector configured the engine is bit-identical to the
 *    GC-less design: same instruction stream, same raw heap hash,
 *    zero Phase::Gc events;
 *  - collector pauses are bracketed in Call...Ret at kGcPc, which is
 *    what the sweep grid's pause accounting relies on;
 *  - objects allocated in a reused semispace are zeroed: no field
 *    bytes or ref bits survive from the space's previous use.
 */
#include <gtest/gtest.h>

#include "check/differential.h"
#include "check/digest.h"
#include "check/progen.h"
#include "gc/collector.h"
#include "gc/config.h"
#include "gc/gc_controller.h"
#include "vm_test_util.h"
#include "workloads/workload.h"

namespace jrs {
namespace {

using test::makeProgramFull;

gc::GcOptions
forcedGc(gc::CollectorKind kind, std::uint64_t every_n)
{
    gc::GcOptions opts;
    opts.collector = kind;
    opts.everyNAllocs = every_n;
    return opts;
}

/** Engine + result, kept together so liveHeapHash() stays callable. */
struct GcRun {
    std::unique_ptr<ExecutionEngine> engine;
    RunResult result;
};

GcRun
runGc(const Program &prog, const EngineConfig &cfg, std::int32_t arg)
{
    GcRun r;
    r.engine = std::make_unique<ExecutionEngine>(prog, cfg);
    r.result = r.engine->run(arg);
    return r;
}

EngineConfig
interpConfig(const gc::GcOptions &gc = {})
{
    EngineConfig cfg;
    cfg.policy = std::make_shared<NeverCompilePolicy>();
    cfg.gc = gc;
    return cfg;
}

/** Append `arg` garbage allocations (local 4 is the loop counter). */
void
emitChurnLoop(MethodBuilder &m)
{
    const Label loop = m.newLabel();
    const Label done = m.newLabel();
    m.iconst(0).istore(4);
    m.bind(loop);
    m.iload(4).iload(0).ifIcmpge(done);
    m.newObject("Node").pop();
    m.iinc(4, 1);
    m.gotoL(loop);
    m.bind(done);
}

void
declareNode(ProgramBuilder &pb)
{
    ClassBuilder &node = pb.cls("Node");
    node.field("val");
    node.field("next");
}

/**
 * A three-node reference cycle rooted only through local 1, churned by
 * `arg` garbage allocations. Returns 7 + 11 + 13 + 7 = 38: one full
 * lap plus one step, so every edge of the cycle must have survived.
 */
Program
cycleProgram()
{
    return makeProgramFull([](ProgramBuilder &pb) {
        declareNode(pb);
        ClassBuilder &t = pb.cls("T");
        MethodBuilder &m =
            t.staticMethod("main", {VType::Int}, VType::Int);
        m.locals(6);
        m.newObject("Node").astore(1);
        m.newObject("Node").astore(2);
        m.newObject("Node").astore(3);
        m.aload(1).iconst(7).putFieldI("Node.val");
        m.aload(2).iconst(11).putFieldI("Node.val");
        m.aload(3).iconst(13).putFieldI("Node.val");
        m.aload(1).aload(2).putFieldA("Node.next");
        m.aload(2).aload(3).putFieldA("Node.next");
        m.aload(3).aload(1).putFieldA("Node.next");
        // Only the cycle head stays rooted.
        m.aconstNull().astore(2);
        m.aconstNull().astore(3);
        emitChurnLoop(m);
        m.aload(1).getFieldI("Node.val");
        m.aload(1).getFieldA("Node.next").getFieldI("Node.val")
            .iadd();
        m.aload(1).getFieldA("Node.next").getFieldA("Node.next")
            .getFieldI("Node.val").iadd();
        m.aload(1).getFieldA("Node.next").getFieldA("Node.next")
            .getFieldA("Node.next").getFieldI("Node.val").iadd();
        m.ireturn();
    });
}

/**
 * A ref array whose elements each point at a second-level node —
 * interior Ref-array slots are traced structurally, not through the
 * store-time bitmap. Returns (5+50) + (6+60) + (7+70) = 198.
 */
Program
refArrayProgram()
{
    return makeProgramFull([](ProgramBuilder &pb) {
        declareNode(pb);
        ClassBuilder &t = pb.cls("T");
        MethodBuilder &m =
            t.staticMethod("main", {VType::Int}, VType::Int);
        m.locals(6);
        m.iconst(3).newArray(ArrayKind::Ref).astore(1);
        for (int i = 0; i < 3; ++i) {
            m.newObject("Node").astore(2);
            m.aload(2).iconst(5 + i).putFieldI("Node.val");
            m.newObject("Node").astore(3);
            m.aload(3).iconst((5 + i) * 10).putFieldI("Node.val");
            m.aload(2).aload(3).putFieldA("Node.next");
            m.aload(1).iconst(i).aload(2).aastore();
        }
        m.aconstNull().astore(2);
        m.aconstNull().astore(3);
        emitChurnLoop(m);
        m.iconst(0).istore(5);
        for (int i = 0; i < 3; ++i) {
            m.iload(5)
                .aload(1).iconst(i).aaload().getFieldI("Node.val")
                .iadd()
                .aload(1).iconst(i).aaload().getFieldA("Node.next")
                .getFieldI("Node.val").iadd()
                .istore(5);
        }
        m.iload(5).ireturn();
    });
}

/** One node rooted only through a static slot. Returns 42. */
Program
staticRootProgram()
{
    return makeProgramFull([](ProgramBuilder &pb) {
        pb.staticSlot("groot", VType::Ref);  // static slot 0
        declareNode(pb);
        ClassBuilder &t = pb.cls("T");
        MethodBuilder &m =
            t.staticMethod("main", {VType::Int}, VType::Int);
        m.locals(6);
        m.newObject("Node").astore(1);
        m.aload(1).iconst(21).putFieldI("Node.val");
        m.aload(1).putStaticA("groot");
        m.aconstNull().astore(1);
        emitChurnLoop(m);
        m.getStaticA("groot").getFieldI("Node.val")
            .iconst(2).imul().ireturn();
    });
}

/** Monitor held across copying collections; returns 42. */
Program
monitorProgram()
{
    return makeProgramFull([](ProgramBuilder &pb) {
        declareNode(pb);
        ClassBuilder &t = pb.cls("T");
        MethodBuilder &m =
            t.staticMethod("main", {VType::Int}, VType::Int);
        m.locals(6);
        m.newObject("Node").astore(1);
        m.aload(1).iconst(42).putFieldI("Node.val");
        // Lock, churn (collections move the node), unlock, relock.
        m.aload(1).monitorEnter();
        emitChurnLoop(m);
        m.aload(1).monitorExit();
        m.aload(1).monitorEnter();
        m.aload(1).getFieldI("Node.val").istore(5);
        m.aload(1).monitorExit();
        m.iload(5).ireturn();
    });
}

/** True when @p obj lies inside a free-list block (i.e. was swept). */
bool
inFreeList(const Heap &heap, SimAddr obj)
{
    const std::uint64_t off = obj - seg::kHeap;
    for (const Heap::FreeBlock &b : heap.freeBlocks()) {
        if (off >= b.off && off < std::uint64_t{b.off} + b.size)
            return true;
    }
    return false;
}

bool
sameEvents(const std::vector<TraceEvent> &a,
           const std::vector<TraceEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const TraceEvent &x = a[i];
        const TraceEvent &y = b[i];
        if (x.pc != y.pc || x.mem != y.mem || x.target != y.target
            || x.kind != y.kind || x.phase != y.phase
            || x.taken != y.taken || x.memSize != y.memSize
            || x.rd != y.rd || x.rs1 != y.rs1 || x.rs2 != y.rs2) {
            return false;
        }
    }
    return true;
}

// --- root-enumeration completeness ----------------------------------------

class RootCompleteness
    : public testing::TestWithParam<gc::CollectorKind> {};

TEST_P(RootCompleteness, CycleSurvivesForcedCollections)
{
    const Program prog = cycleProgram();
    const GcRun run =
        runGc(prog, interpConfig(forcedGc(GetParam(), 3)), 64);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.result.exitValue, 38);
    EXPECT_GT(run.result.gcStats.collections, 0u);
}

TEST_P(RootCompleteness, RefArrayInteriorSurvives)
{
    const Program prog = refArrayProgram();
    const GcRun run =
        runGc(prog, interpConfig(forcedGc(GetParam(), 3)), 64);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.result.exitValue, 198);
    EXPECT_GT(run.result.gcStats.collections, 0u);
}

TEST_P(RootCompleteness, StaticRootSurvives)
{
    const Program prog = staticRootProgram();
    const GcRun run =
        runGc(prog, interpConfig(forcedGc(GetParam(), 3)), 64);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.result.exitValue, 42);
    EXPECT_GT(run.result.gcStats.collections, 0u);
}

TEST_P(RootCompleteness, MonitorObjectSurvives)
{
    const Program prog = monitorProgram();
    const GcRun run =
        runGc(prog, interpConfig(forcedGc(GetParam(), 3)), 64);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.result.exitValue, 42);
    EXPECT_GT(run.result.gcStats.collections, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Collectors, RootCompleteness,
    testing::Values(gc::CollectorKind::MarkSweep,
                    gc::CollectorKind::Copying),
    [](const testing::TestParamInfo<gc::CollectorKind> &info) {
        return gc::collectorName(info.param);
    });

/**
 * The negative case the RootVisitor protocol documents: lockwords are
 * not roots, so ref-looking bits stored in one must not keep the
 * referent alive — while a real (bitmap-tagged) field ref must.
 */
TEST(Roots, RefInLockwordIsNotARoot)
{
    const Program prog = staticRootProgram();
    // No triggers: nothing collects until we force it below.
    gc::GcOptions opts;
    opts.collector = gc::CollectorKind::MarkSweep;
    GcRun run = runGc(prog, interpConfig(opts), 8);
    ASSERT_TRUE(run.result.completed);
    ASSERT_EQ(run.result.gcStats.collections, 0u);

    ExecutionEngine &engine = *run.engine;
    Heap &heap = engine.heap();
    const SimAddr root = engine.registry().getStatic(0).asRef();
    ASSERT_NE(root, 0u);

    // `fake` is referenced only by ref-looking lockword bits; `kept`
    // by a genuine tagged field ref.
    const ClassId nodeCls = heap.klassOf(root);
    const SimAddr fake = heap.allocObject(nodeCls, 2);
    const SimAddr kept = heap.allocObject(nodeCls, 2);
    const std::uint32_t fakeBits =
        static_cast<std::uint32_t>(fake - seg::kHeap);
    heap.setLockword(root, fakeBits);
    heap.storeSlot(Heap::fieldAddr(root, 1),
                   static_cast<std::uint32_t>(kept - seg::kHeap),
                   true);

    ASSERT_NE(engine.gcController(), nullptr);
    engine.gcController()->collectNow();
    const gc::GcStats &stats = engine.gcController()->stats();
    EXPECT_EQ(stats.collections, 1u);
    EXPECT_GE(stats.rootsLast, 1u);

    EXPECT_TRUE(inFreeList(heap, fake));   // swept despite lockword
    EXPECT_FALSE(inFreeList(heap, kept));  // real ref pinned it
    EXPECT_FALSE(inFreeList(heap, root));
    EXPECT_EQ(heap.klassOf(kept), nodeCls);
    // The collector must not have "fixed up" the lockword either.
    EXPECT_EQ(heap.lockword(root), fakeBits);
}

// --- live digest -----------------------------------------------------------

TEST(LiveDigest, StableAcrossMarkSweepReallocation)
{
    const Program prog = cycleProgram();
    const GcRun nogc = runGc(prog, interpConfig(), 64);
    ASSERT_TRUE(nogc.result.completed);
    const std::uint64_t reference = nogc.engine->liveHeapHash();

    GcRun ms = runGc(
        prog,
        interpConfig(forcedGc(gc::CollectorKind::MarkSweep, 4)), 64);
    ASSERT_TRUE(ms.result.completed);
    EXPECT_GT(ms.result.gcStats.collections, 0u);
    // Same reachable graph regardless of fillers and free lists...
    EXPECT_EQ(ms.engine->liveHeapHash(), reference);
    // ...while the raw arena differs (dead churn was rewritten).
    EXPECT_NE(ms.engine->heap().contentHash(),
              nogc.engine->heap().contentHash());
    // Another collection re-sweeps; the live digest must not move.
    ms.engine->gcController()->collectNow();
    EXPECT_EQ(ms.engine->liveHeapHash(), reference);
}

TEST(LiveDigest, StableAcrossCopyingRelocation)
{
    const Program prog = refArrayProgram();
    const GcRun nogc = runGc(prog, interpConfig(), 64);
    ASSERT_TRUE(nogc.result.completed);
    const std::uint64_t reference = nogc.engine->liveHeapHash();

    GcRun cp = runGc(
        prog, interpConfig(forcedGc(gc::CollectorKind::Copying, 4)),
        64);
    ASSERT_TRUE(cp.result.completed);
    EXPECT_GT(cp.result.gcStats.collections, 0u);
    EXPECT_EQ(cp.engine->liveHeapHash(), reference);
    // Evacuate again: every address changes, the digest does not.
    cp.engine->gcController()->collectNow();
    EXPECT_EQ(cp.engine->liveHeapHash(), reference);
}

// --- semispace reuse --------------------------------------------------------

/**
 * Churn `arg` Nodes whose fields are all written (val = 0x55, next =
 * itself), then allocate one more and return the raw bits of its two
 * fields, which the guest never writes: 0 when allocation is zeroed.
 */
Program
staleFieldProgram()
{
    return makeProgramFull([](ProgramBuilder &pb) {
        declareNode(pb);
        ClassBuilder &t = pb.cls("T");
        MethodBuilder &m =
            t.staticMethod("main", {VType::Int}, VType::Int);
        m.locals(6);
        const Label loop = m.newLabel();
        const Label done = m.newLabel();
        m.iconst(0).istore(4);
        m.bind(loop);
        m.iload(4).iload(0).ifIcmpge(done);
        m.newObject("Node").astore(2);
        m.aload(2).iconst(0x55).putFieldI("Node.val");
        m.aload(2).aload(2).putFieldA("Node.next");
        m.iinc(4, 1);
        m.gotoL(loop);
        m.bind(done);
        m.newObject("Node").astore(3);
        m.aload(3).getFieldI("Node.val");
        m.aload(3).getFieldI("Node.next").iadd();
        m.ireturn();
    });
}

TEST(Copying, ReusedSemispaceHandsOutZeroedObjects)
{
    // A collection before every allocation: each Node lands just past
    // the survivors of a space that held an earlier, fully written
    // Node at the same offset two flips ago.
    GcRun run = runGc(
        staleFieldProgram(),
        interpConfig(forcedGc(gc::CollectorKind::Copying, 1)), 6);
    ASSERT_TRUE(run.result.completed);
    EXPECT_GE(run.result.gcStats.collections, 3u);
    EXPECT_EQ(run.result.exitValue, 0);

    // The fresh Node is the last allocation (16 bytes: header,
    // lockword, two fields). Neither its field bytes nor the ref bit
    // of its `next` slot may survive from the space's previous use.
    const Heap &heap = run.engine->heap();
    const SimAddr obj = seg::kHeap + heap.windowCursor() - 16;
    EXPECT_FALSE(heap.isArray(obj));
    for (std::uint16_t slot = 0; slot < 2; ++slot) {
        EXPECT_EQ(heap.loadU32(Heap::fieldAddr(obj, slot)), 0u) << slot;
        EXPECT_FALSE(heap.refSlot(Heap::fieldAddr(obj, slot))) << slot;
    }
}

// --- workload digest invariance -------------------------------------------

/**
 * Every registered workload, every collector: the end state must match
 * the no-GC interp reference (threaded workloads compare the portable
 * subset), and interp/jit/hybrid must agree among themselves under
 * forced collections — the acceptance criterion of the subsystem.
 */
TEST(Digests, WorkloadsInvariantUnderEveryCollector)
{
    for (const WorkloadInfo &w : allWorkloads()) {
        const Program prog = w.build();
        const check::VmStateDigest reference =
            check::runDigest(prog, check::DiffMode::Interp, w.tinyArg);
        for (const gc::CollectorKind kind :
             {gc::CollectorKind::MarkSweep,
              gc::CollectorKind::Copying}) {
            const gc::GcOptions opts = forcedGc(kind, 8);
            const check::VmStateDigest gcd = check::runDigest(
                prog, check::DiffMode::Interp, w.tinyArg, opts);
            const bool threaded = reference.threadsSpawned != 0
                || gcd.threadsSpawned != 0;
            const bool same = threaded
                ? reference.portableEquals(gcd)
                : reference == gcd;
            EXPECT_TRUE(same)
                << w.name << " under " << gc::collectorName(kind)
                << ":\n"
                << check::describeDigestDiff("nogc", reference,
                                             gc::collectorName(kind),
                                             gcd);
        }
    }
}

TEST(Digests, WorkloadsAgreeAcrossModesUnderGc)
{
    for (const gc::CollectorKind kind :
         {gc::CollectorKind::MarkSweep, gc::CollectorKind::Copying}) {
        check::DifferentialRunner runner;
        runner.gc = forcedGc(kind, 8);
        for (const WorkloadInfo &w : allWorkloads()) {
            const check::DiffResult r = runner.checkWorkload(w, 0);
            EXPECT_TRUE(r.agreed)
                << w.name << " under " << gc::collectorName(kind)
                << ":\n" << r.report;
        }
    }
}

// --- generated-program stress ----------------------------------------------

TEST(Stress, ProgenForcedCollectionsMarkSweep)
{
    check::DifferentialRunner runner;
    runner.gc = forcedGc(gc::CollectorKind::MarkSweep, 16);
    const check::GenOptions opts;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const check::DiffResult r = runner.runSeed(seed, opts, 5);
        EXPECT_TRUE(r.agreed) << "seed " << seed << ":\n" << r.report;
    }
}

TEST(Stress, ProgenForcedCollectionsCopying)
{
    check::DifferentialRunner runner;
    runner.gc = forcedGc(gc::CollectorKind::Copying, 16);
    const check::GenOptions opts;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const check::DiffResult r = runner.runSeed(seed, opts, 5);
        EXPECT_TRUE(r.agreed) << "seed " << seed << ":\n" << r.report;
    }
}

// --- collector-off non-perturbation ---------------------------------------

/**
 * The subsystem's zero-cost-when-off guarantee: merely enabling a
 * collector that never triggers must not change a single emitted
 * instruction, heap byte, or counter relative to the GC-less engine.
 */
TEST(Timing, CollectorOffIsBitIdenticalToSeed)
{
    const Program prog = cycleProgram();
    for (const bool jit : {false, true}) {
        RecordingSink base;
        EngineConfig off;
        off.policy = jit
            ? std::static_pointer_cast<CompilationPolicy>(
                  std::make_shared<AlwaysCompilePolicy>())
            : std::make_shared<NeverCompilePolicy>();
        off.sink = &base;
        GcRun offRun = runGc(prog, off, 32);
        ASSERT_TRUE(offRun.result.completed);

        RecordingSink idle;
        EngineConfig on = off;
        on.sink = &idle;
        on.gc.collector = gc::CollectorKind::MarkSweep;
        // No budget, no everyN: with a 64 MiB heap the allocation
        // backstop never fires, so the collector never runs.
        GcRun idleRun = runGc(prog, on, 32);
        ASSERT_TRUE(idleRun.result.completed);

        EXPECT_TRUE(sameEvents(base.events(), idle.events()))
            << (jit ? "jit" : "interp")
            << ": idle collector perturbed the instruction stream";
        EXPECT_EQ(idleRun.result.gcStats.collections, 0u);
        EXPECT_EQ(idleRun.result.gcStats.gcEvents, 0u);
        EXPECT_EQ(idleRun.result.inPhase(Phase::Gc), 0u);
        EXPECT_EQ(idleRun.result.totalEvents,
                  offRun.result.totalEvents);
        EXPECT_EQ(idleRun.engine->heap().contentHash(),
                  offRun.engine->heap().contentHash());
        EXPECT_EQ(idleRun.result.exitValue, offRun.result.exitValue);
    }
}

// --- trace shape -----------------------------------------------------------

/**
 * Pause accounting (GcStats, the sweep grid's GcPhaseSink, and the
 * obs CPI stack) all lean on the same trace shape: one Call...Ret
 * bracket of Phase::Gc events per collection, in the kGcPc block.
 */
TEST(Trace, GcEventsBracketedPerCollection)
{
    const Program prog = cycleProgram();
    RecordingSink sink;
    EngineConfig cfg =
        interpConfig(forcedGc(gc::CollectorKind::MarkSweep, 4));
    cfg.sink = &sink;
    const GcRun run = runGc(prog, cfg, 64);
    ASSERT_TRUE(run.result.completed);
    const gc::GcStats &stats = run.result.gcStats;
    ASSERT_GT(stats.collections, 0u);

    std::uint64_t gcEvents = 0, calls = 0, rets = 0;
    for (const TraceEvent &ev : sink.events()) {
        if (ev.phase != Phase::Gc)
            continue;
        ++gcEvents;
        EXPECT_GE(ev.pc, gc::kGcPc);
        if (ev.kind == NKind::Call)
            ++calls;
        if (ev.kind == NKind::Ret)
            ++rets;
    }
    EXPECT_EQ(gcEvents, stats.gcEvents);
    EXPECT_EQ(gcEvents, run.result.inPhase(Phase::Gc));
    EXPECT_EQ(calls, stats.collections);
    EXPECT_EQ(rets, stats.collections);
    ASSERT_EQ(stats.pauseEvents.size(), stats.collections);
    std::uint64_t pauseSum = 0;
    for (const std::uint64_t p : stats.pauseEvents)
        pauseSum += p;
    EXPECT_EQ(pauseSum, stats.gcEvents);
}

// --- configuration parsing -------------------------------------------------

TEST(Config, ParseCollectorNames)
{
    gc::CollectorKind kind = gc::CollectorKind::None;
    EXPECT_TRUE(gc::parseCollector("marksweep", &kind));
    EXPECT_EQ(kind, gc::CollectorKind::MarkSweep);
    EXPECT_TRUE(gc::parseCollector("copying", &kind));
    EXPECT_EQ(kind, gc::CollectorKind::Copying);
    EXPECT_TRUE(gc::parseCollector("nogc", &kind));
    EXPECT_EQ(kind, gc::CollectorKind::None);
    EXPECT_TRUE(gc::parseCollector("none", &kind));
    EXPECT_EQ(kind, gc::CollectorKind::None);

    kind = gc::CollectorKind::Copying;
    EXPECT_FALSE(gc::parseCollector("generational", &kind));
    EXPECT_EQ(kind, gc::CollectorKind::Copying);  // untouched

    for (const gc::CollectorKind k : gc::allCollectorKinds()) {
        gc::CollectorKind round = gc::CollectorKind::MarkSweep;
        EXPECT_TRUE(gc::parseCollector(gc::collectorName(k), &round));
        EXPECT_EQ(round, k);
    }
}

} // namespace
} // namespace jrs
