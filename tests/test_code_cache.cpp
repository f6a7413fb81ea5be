/**
 * @file
 * jrs code-cache management test suite (ctest label "jit").
 *
 * Pins the bounded-code-cache contracts:
 *  - allocation: 64-byte extents, first-fit free-list reuse,
 *    coalescing release, cursor retreat back to zero;
 *  - install/uninstall semantics: reinstall after uninstall is legal,
 *    double-compile of a live method stays a VmError, unbounded
 *    segment overflow is a hard VmError while bounded overflow evicts;
 *  - victim selection: FIFO by install order, LRU by lookup() tick,
 *    cost by the retranslation-cost callback — all deterministic;
 *  - the default (unlimited) configuration is bit-identical to the
 *    historical unmanaged cache, stream and accounting alike;
 *  - eviction preserves program semantics (same VmStateDigest) and is
 *    deterministic across repeated runs, record/replay, and sweep
 *    --jobs N;
 *  - counter-policy re-arm: an evicted method must earn retranslation
 *    with fresh post-eviction invocations, falling back to the
 *    interpreter meanwhile;
 *  - the oracle policy ignores jit_cost for methods with no JIT-run
 *    evidence (regression for the zero-cost-always-wins bug).
 */
#include <gtest/gtest.h>

#include <memory>

#include "check/digest.h"
#include "check/invariants.h"
#include "harness/experiment.h"
#include "obs/obs.h"
#include "sweep/grids.h"
#include "sweep/sweep.h"
#include "vm_test_util.h"
#include "workloads/workload.h"

namespace jrs {
namespace {

// ---------------------------------------------------------------------
// Unit-level helpers
// ---------------------------------------------------------------------

/** Synthetic NativeMethod of @p insts instructions (4 bytes each). */
std::unique_ptr<NativeMethod>
makeNm(MethodId id, std::size_t insts)
{
    auto nm = std::make_unique<NativeMethod>();
    nm->id = id;
    nm->code.resize(insts);
    return nm;
}

/** Simulated code-cache offset of an installed method. */
std::size_t
offsetOf(const NativeMethod *nm)
{
    return static_cast<std::size_t>(nm->codeBase - seg::kCodeCache);
}

/** Order-sensitive FNV-1a digest over every TraceEvent field. */
class DigestSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &ev) override {
        put(ev.pc);
        put(isMemory(ev.kind) ? ev.mem : 0);
        put(isControl(ev.kind) ? ev.target : 0);
        put(static_cast<std::uint64_t>(ev.kind));
        put(static_cast<std::uint64_t>(ev.phase));
        put(ev.taken ? 1 : 0);
        put(ev.memSize);
        put(ev.rd);
        put(ev.rs1);
        put(ev.rs2);
    }
    std::uint64_t digest() const { return h_; }

  private:
    void put(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }
    std::uint64_t h_ = 14695981039346656037ull;
};

/** Bounded-cache RunSpec for a registered workload (tiny input). */
RunSpec
boundedSpec(const char *workload, std::size_t capacity,
            EvictionPolicy policy,
            std::shared_ptr<CompilationPolicy> comp = nullptr)
{
    RunSpec spec;
    spec.workload = findWorkload(workload);
    spec.arg = spec.workload->tinyArg;
    spec.policy = std::move(comp);
    spec.codeCache.capacityBytes = capacity;
    spec.codeCache.policy = policy;
    return spec;
}

// ---------------------------------------------------------------------
// Allocation mechanics
// ---------------------------------------------------------------------

TEST(CodeCacheAlloc, BumpAllocationIsAlignedAndAccounted)
{
    CodeCache cache;
    const NativeMethod *a = cache.install(makeNm(1, 16)); // 64B exact
    const NativeMethod *b = cache.install(makeNm(2, 17)); // -> 128B
    const NativeMethod *c = cache.install(makeNm(3, 1));  // -> 64B
    EXPECT_EQ(offsetOf(a), 0u);
    EXPECT_EQ(offsetOf(b), 64u);
    EXPECT_EQ(offsetOf(c), 192u);
    EXPECT_EQ(cache.codeBytes(), 256u);
    EXPECT_EQ(cache.cursorBytes(), 256u);
    EXPECT_EQ(cache.freeBytes(), 0u);
    EXPECT_EQ(cache.numMethods(), 3u);
}

TEST(CodeCacheAlloc, UninstallFeedsFirstFitReuse)
{
    CodeCache cache;
    cache.install(makeNm(1, 16));
    const NativeMethod *b = cache.install(makeNm(2, 32)); // 128B
    cache.install(makeNm(3, 16));
    const std::size_t hole = offsetOf(b);

    ASSERT_TRUE(cache.uninstall(2));
    EXPECT_EQ(cache.lookup(2), nullptr);
    EXPECT_EQ(cache.freeExtents(), 1u);
    EXPECT_EQ(cache.freeBytes(), 128u);
    EXPECT_EQ(cache.codeBytes(), 128u);
    EXPECT_EQ(cache.cursorBytes(), 256u); // high-water unchanged
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.bytesEvicted(), 128u);

    // A smaller method lands at the hole's low end; the remainder
    // stays free.
    const NativeMethod *d = cache.install(makeNm(4, 16));
    EXPECT_EQ(offsetOf(d), hole);
    EXPECT_EQ(cache.freeExtents(), 1u);
    EXPECT_EQ(cache.freeBytes(), 64u);
    EXPECT_EQ(cache.cursorBytes(), 256u); // reuse, not growth
}

TEST(CodeCacheAlloc, ReleaseCoalescesAndCursorRetreats)
{
    CodeCache cache;
    cache.install(makeNm(1, 16));
    cache.install(makeNm(2, 16));
    cache.install(makeNm(3, 16));
    EXPECT_EQ(cache.cursorBytes(), 192u);

    // Freeing two adjacent interior extents coalesces them into one.
    cache.uninstall(1);
    cache.uninstall(2);
    EXPECT_EQ(cache.freeExtents(), 1u);
    EXPECT_EQ(cache.freeBytes(), 128u);

    // Freeing the topmost method cascades the cursor through the
    // coalesced run back to zero: an empty cache is a fresh cache.
    cache.uninstall(3);
    EXPECT_EQ(cache.freeExtents(), 0u);
    EXPECT_EQ(cache.freeBytes(), 0u);
    EXPECT_EQ(cache.cursorBytes(), 0u);
    EXPECT_EQ(cache.codeBytes(), 0u);
    EXPECT_EQ(cache.numMethods(), 0u);

    const NativeMethod *again = cache.install(makeNm(4, 16));
    EXPECT_EQ(offsetOf(again), 0u);
}

TEST(CodeCacheAlloc, LookupCountsHitsAndMisses)
{
    CodeCache cache;
    cache.install(makeNm(7, 16));
    EXPECT_NE(cache.lookup(7), nullptr);
    EXPECT_EQ(cache.lookup(8), nullptr);
    EXPECT_NE(cache.lookup(7), nullptr);
    EXPECT_EQ(cache.lookups(), 3u);
    EXPECT_EQ(cache.lookupMisses(), 1u);
}

TEST(CodeCacheAlloc, BestFitPicksSmallestHoleFirstFitLowest)
{
    // Identical hole pattern — a 128B hole at 64 below a 64B hole at
    // 256 — served under both strategies.
    for (const AllocStrategy s :
         {AllocStrategy::kFirstFit, AllocStrategy::kBestFit}) {
        ExtentAllocator a(1 << 20, s);
        EXPECT_EQ(a.allocate(64), 0u);
        EXPECT_EQ(a.allocate(128), 64u);
        EXPECT_EQ(a.allocate(64), 192u);
        EXPECT_EQ(a.allocate(64), 256u);
        EXPECT_EQ(a.allocate(64), 320u); // top guard: no retreat
        a.release(64, 128);
        a.release(256, 64);
        const std::size_t got = a.allocate(64);
        if (s == AllocStrategy::kFirstFit)
            EXPECT_EQ(got, 64u); // lowest address, splits the hole
        else
            EXPECT_EQ(got, 256u); // exact fit wins over lower address
    }
}

TEST(CodeCacheAlloc, BestFitCacheReusesExactHole)
{
    CodeCacheConfig cfg;
    cfg.strategy = AllocStrategy::kBestFit;
    CodeCache cache(cfg);
    cache.install(makeNm(1, 16)); // 64B  @0
    cache.install(makeNm(2, 32)); // 128B @64
    cache.install(makeNm(3, 16)); // 64B  @192
    cache.install(makeNm(4, 16)); // 64B  @256
    cache.install(makeNm(5, 16)); // 64B  @320 guard
    cache.uninstall(2);
    cache.uninstall(4);

    // First-fit would split the 128B hole at 64; best-fit lands in the
    // exact 64B hole at 256 and leaves the big hole intact.
    const NativeMethod *m = cache.install(makeNm(6, 16));
    EXPECT_EQ(offsetOf(m), 256u);
    EXPECT_EQ(cache.freeExtents(), 1u);
    EXPECT_EQ(cache.freeBytes(), 128u);
}

TEST(CodeCacheAlloc, AllocStrategyNamesRoundTrip)
{
    EXPECT_STREQ(allocStrategyName(AllocStrategy::kFirstFit), "first");
    EXPECT_STREQ(allocStrategyName(AllocStrategy::kBestFit), "best");
    AllocStrategy out = AllocStrategy::kBestFit;
    for (const char *alias : {"first", "firstfit", "first-fit"}) {
        out = AllocStrategy::kBestFit;
        ASSERT_TRUE(parseAllocStrategy(alias, &out)) << alias;
        EXPECT_EQ(out, AllocStrategy::kFirstFit);
    }
    for (const char *alias : {"best", "bestfit", "best-fit"}) {
        out = AllocStrategy::kFirstFit;
        ASSERT_TRUE(parseAllocStrategy(alias, &out)) << alias;
        EXPECT_EQ(out, AllocStrategy::kBestFit);
    }
    EXPECT_FALSE(parseAllocStrategy("worst", &out));
}

TEST(CodeCacheAlloc, FragmentationCountsExtentsPerFreeKiB)
{
    ExtentAllocator a(1 << 20, AllocStrategy::kFirstFit);
    EXPECT_EQ(a.fragmentation(), 0.0);
    a.allocate(1024);
    a.allocate(1024);
    a.allocate(1024);
    a.allocate(64); // top guard
    a.release(0, 1024);
    a.release(2048, 1024);
    // 2 KiB free shattered across two extents: 1.0 extents per KiB.
    EXPECT_DOUBLE_EQ(a.fragmentation(), 1.0);
    // Freeing the middle coalesces all three into one 3 KiB extent.
    a.release(1024, 1024);
    EXPECT_EQ(a.freeExtents(), 1u);
    EXPECT_DOUBLE_EQ(a.fragmentation(), 1.0 / 3.0);
}

// ---------------------------------------------------------------------
// Install/uninstall semantics and overflow
// ---------------------------------------------------------------------

TEST(CodeCacheSemantics, ReinstallAfterUninstallLegalDoubleThrows)
{
    CodeCache cache;
    cache.install(makeNm(5, 16));
    // Double-compile of a live method is an engine bug.
    EXPECT_THROW(cache.install(makeNm(5, 16)), VmError);
    // ...but reinstall after an uninstall is the retranslation path.
    ASSERT_TRUE(cache.uninstall(5));
    EXPECT_FALSE(cache.uninstall(5)); // already gone
    const NativeMethod *again = cache.install(makeNm(5, 16));
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(cache.lookup(5), again);
}

TEST(CodeCacheSemantics, UnboundedSegmentOverflowThrows)
{
    CodeCacheConfig cfg;
    cfg.segmentLimit = 128;
    CodeCache cache(cfg);
    cache.install(makeNm(1, 16));
    cache.install(makeNm(2, 16));
    EXPECT_THROW(cache.install(makeNm(3, 16)), VmError);
}

TEST(CodeCacheSemantics, BoundedSegmentLimitEvictsInsteadOfThrowing)
{
    CodeCacheConfig cfg;
    cfg.capacityBytes = 1 << 20; // far beyond the shrunken segment
    cfg.segmentLimit = 128;
    CodeCache cache(cfg);
    cache.install(makeNm(1, 16));
    cache.install(makeNm(2, 16));
    const NativeMethod *c = cache.install(makeNm(3, 16));
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.lookup(1), nullptr); // FIFO victim
    EXPECT_NE(cache.lookup(2), nullptr);
}

TEST(CodeCacheSemantics, MethodLargerThanCapacityIsRejected)
{
    CodeCacheConfig cfg;
    cfg.capacityBytes = 128;
    CodeCache cache(cfg);
    cache.install(makeNm(1, 16));
    // 256B of code cannot fit a 128B cache even after evicting
    // everything: install declines (nullptr), existing methods are
    // the collateral of the attempt's eviction loop.
    EXPECT_EQ(cache.install(makeNm(2, 64)), nullptr);
    EXPECT_EQ(cache.lookup(2), nullptr);
}

// ---------------------------------------------------------------------
// Victim selection
// ---------------------------------------------------------------------

CodeCache
boundedCache(EvictionPolicy policy, std::size_t capacity = 128)
{
    CodeCacheConfig cfg;
    cfg.capacityBytes = capacity;
    cfg.policy = policy;
    return CodeCache(cfg);
}

TEST(CodeCacheEviction, FifoEvictsOldestInstall)
{
    CodeCache cache = boundedCache(EvictionPolicy::kFifo);
    cache.install(makeNm(1, 16));
    cache.install(makeNm(2, 16));
    cache.install(makeNm(3, 16)); // full: evicts 1
    EXPECT_EQ(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(2), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.bytesEvicted(), 64u);
}

TEST(CodeCacheEviction, LruEvictsLeastRecentlyDispatched)
{
    CodeCache cache = boundedCache(EvictionPolicy::kLru);
    cache.install(makeNm(1, 16));
    cache.install(makeNm(2, 16));
    EXPECT_NE(cache.lookup(1), nullptr); // 1 is now the hotter one
    cache.install(makeNm(3, 16));        // evicts 2, not 1
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.lookup(2), nullptr);
}

TEST(CodeCacheEviction, CostEvictsCheapestToRetranslate)
{
    CodeCache cache = boundedCache(EvictionPolicy::kCost);
    cache.setRetranslateCost([](MethodId id) -> std::uint64_t {
        return id == 1 ? 1000 : 5; // method 2 is cheap to redo
    });
    cache.install(makeNm(1, 16));
    cache.install(makeNm(2, 16));
    cache.install(makeNm(3, 16)); // evicts 2
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.lookup(2), nullptr);
}

TEST(CodeCacheEviction, CostPerByteDividesCostByExtentBytes)
{
    // m1: cost 300 over 64B  -> 300*4096/64  = 19200 per-byte key
    // m2: cost 1000 over 256B -> 1000*4096/256 = 16000 per-byte key
    // Plain cost evicts m1 (cheapest rebuild); cost-per-byte evicts m2
    // (least rebuild value per cache byte it occupies).
    for (const EvictionPolicy p :
         {EvictionPolicy::kCost, EvictionPolicy::kCostPerByte}) {
        CodeCache cache = boundedCache(p, 320);
        cache.setRetranslateCost([](MethodId id) -> std::uint64_t {
            return id == 1 ? 300 : 1000;
        });
        cache.install(makeNm(1, 16)); // 64B
        cache.install(makeNm(2, 64)); // 256B
        cache.install(makeNm(3, 16)); // overflow: one victim
        if (p == EvictionPolicy::kCost) {
            EXPECT_EQ(cache.lookup(1), nullptr);
            EXPECT_NE(cache.lookup(2), nullptr);
        } else {
            EXPECT_NE(cache.lookup(1), nullptr);
            EXPECT_EQ(cache.lookup(2), nullptr);
        }
        EXPECT_NE(cache.lookup(3), nullptr);
        EXPECT_EQ(cache.evictions(), 1u);
    }
}

TEST(CodeCacheEviction, HookSeesVictimBeforeRecycle)
{
    CodeCache cache = boundedCache(EvictionPolicy::kFifo);
    std::vector<MethodId> evicted;
    cache.setEvictionHook([&](const NativeMethod &nm) {
        evicted.push_back(nm.id);
    });
    cache.install(makeNm(1, 16));
    cache.install(makeNm(2, 16));
    cache.install(makeNm(3, 32)); // 128B: evicts both residents
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0], 1u);
    EXPECT_EQ(evicted[1], 2u);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_EQ(cache.bytesEvicted(), 128u);
}

TEST(CodeCacheEviction, PolicyNamesRoundTrip)
{
    for (const EvictionPolicy p :
         {EvictionPolicy::kFifo, EvictionPolicy::kLru,
          EvictionPolicy::kCost, EvictionPolicy::kCostPerByte}) {
        EvictionPolicy back = EvictionPolicy::kFifo;
        ASSERT_TRUE(parseEvictionPolicy(evictionPolicyName(p), &back));
        EXPECT_EQ(back, p);
    }
    EvictionPolicy out;
    EXPECT_FALSE(parseEvictionPolicy("random", &out));
}

// ---------------------------------------------------------------------
// Engine integration: semantics, determinism, bit-identity
// ---------------------------------------------------------------------

TEST(CodeCacheEngine, EvictionPreservesSemantics)
{
    const WorkloadInfo *w = findWorkload("jack");
    const Program unlimited_prog = w->build();
    const Program bounded_prog = w->build();

    EngineConfig unlimited_cfg;
    ExecutionEngine unlimited(unlimited_prog, unlimited_cfg);
    const RunResult base = unlimited.run(w->tinyArg);
    ASSERT_TRUE(base.completed);
    EXPECT_EQ(base.codeCacheEvictions, 0u);
    EXPECT_EQ(base.retranslations, 0u);

    EngineConfig bounded_cfg;
    bounded_cfg.codeCache.capacityBytes = 1 << 10;
    ExecutionEngine bounded(bounded_prog, bounded_cfg);
    const RunResult res = bounded.run(w->tinyArg);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.codeCacheEvictions, 0u);
    EXPECT_GT(res.codeCacheBytesEvicted, 0u);
    EXPECT_GT(res.retranslations, 0u);

    // Eviction changes what executes natively, never what the program
    // computes: the end-state digests are identical.
    const check::VmStateDigest a = check::captureDigest(unlimited, base);
    const check::VmStateDigest b = check::captureDigest(bounded, res);
    EXPECT_TRUE(a == b) << check::describeDigestDiff("unlimited", a,
                                                     "bounded", b);
}

TEST(CodeCacheEngine, BoundedRunsAreDeterministic)
{
    const RunSpec spec =
        boundedSpec("jack", 1 << 10, EvictionPolicy::kLru);
    const RecordedRun r1 = recordWorkload(spec);
    const RecordedRun r2 = recordWorkload(spec);
    ASSERT_TRUE(r1.result.completed);
    EXPECT_EQ(r1.result.totalEvents, r2.result.totalEvents);
    EXPECT_EQ(r1.result.codeCacheEvictions,
              r2.result.codeCacheEvictions);
    EXPECT_EQ(r1.result.retranslations, r2.result.retranslations);

    DigestSink d1, d2;
    r1.trace->replay(d1);
    r2.trace->replay(d2);
    EXPECT_EQ(d1.digest(), d2.digest());
}

TEST(CodeCacheEngine, HugeBoundIsBitIdenticalToUnlimited)
{
    // A capacity that never fires arms the managed path (bounded
    // checks, eviction plumbing) but must not perturb the stream by a
    // single bit relative to the unmanaged default.
    RunSpec unlimited;
    unlimited.workload = findWorkload("hello");
    unlimited.arg = unlimited.workload->tinyArg;
    RunSpec huge = unlimited;
    huge.codeCache.capacityBytes = 16 << 20;

    const RecordedRun a = recordWorkload(unlimited);
    const RecordedRun b = recordWorkload(huge);
    ASSERT_TRUE(a.result.completed);
    EXPECT_EQ(b.result.codeCacheEvictions, 0u);
    EXPECT_EQ(a.result.totalEvents, b.result.totalEvents);
    EXPECT_EQ(a.result.memory.codeCacheBytes,
              b.result.memory.codeCacheBytes);

    DigestSink da, db;
    a.trace->replay(da);
    b.trace->replay(db);
    EXPECT_EQ(da.digest(), db.digest());
}

TEST(CodeCacheEngine, BoundedStreamPassesInvariantLint)
{
    // Extent reuse relocates retranslated methods; every NativeExec
    // pc and code-cache access must still be segment-resident and
    // 4-byte aligned.
    const RecordedRun rec = recordWorkload(
        boundedSpec("hello", 1 << 10, EvictionPolicy::kFifo));
    ASSERT_TRUE(rec.result.completed);
    EXPECT_GT(rec.result.codeCacheEvictions, 0u);
    check::TraceInvariantChecker lint;
    rec.trace->replay(lint);
    EXPECT_TRUE(lint.ok()) << lint.report();
}

TEST(CodeCacheEngine, MisalignedCodeCachePcIsFlagged)
{
    check::TraceInvariantChecker lint;
    TraceEvent ev;
    ev.pc = seg::kCodeCache + 0x42; // not 4-byte aligned
    ev.kind = NKind::IntAlu;
    ev.phase = Phase::NativeExec;
    lint.onEvent(ev);
    EXPECT_FALSE(lint.ok());
    EXPECT_NE(lint.report().find("aligned"), std::string::npos);
}

TEST(CodeCacheEngine, RunMetricsArePublished)
{
    obs::metrics().reset();
    obs::setEnabled(true);
    const WorkloadInfo *w = findWorkload("hello");
    const Program prog = w->build();
    EngineConfig cfg;
    cfg.codeCache.capacityBytes = 1 << 10;
    ExecutionEngine engine(prog, cfg);
    const RunResult res = engine.run(w->tinyArg);
    obs::setEnabled(false);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(obs::metrics().counterValue("vm.code_cache.evictions"),
              res.codeCacheEvictions);
    EXPECT_EQ(
        obs::metrics().counterValue("vm.code_cache.bytes_evicted"),
        res.codeCacheBytesEvicted);
    EXPECT_EQ(
        obs::metrics().counterValue("vm.code_cache.retranslations"),
        res.retranslations);
    obs::metrics().reset();
}

// ---------------------------------------------------------------------
// Counter-policy re-arm
// ---------------------------------------------------------------------

/**
 * A program built to evict one hot method at a known point:
 *
 *   f       tiny, called 5x (compiles at call 3 under counter:3),
 *   fill0-7 bulky, each called 3x (each compiles, flooding the cache),
 *   f       called 4 more times.
 *
 * With a capacity the fillers overflow, FIFO evicts f (the oldest
 * install). Re-arm then dictates the tail: calls 6-7 interpret
 * (post-eviction counter at 1, 2), call 8 retranslates, 8-9 native.
 */
Program
rearmProgram()
{
    return test::makeProgramFull([](ProgramBuilder &pb) {
        ClassBuilder &t = pb.cls("T");
        {
            MethodBuilder &f =
                t.staticMethod("f", {VType::Int}, VType::Int);
            f.iload(0).iconst(1).iadd().ireturn();
        }
        for (int i = 0; i < 8; ++i) {
            MethodBuilder &fill = t.staticMethod(
                "fill" + std::to_string(i), {VType::Int}, VType::Int);
            fill.iload(0);
            for (int j = 0; j < 50; ++j)
                fill.iconst(j).iadd();
            fill.ireturn();
        }
        MethodBuilder &m =
            t.staticMethod("main", {VType::Int}, VType::Int);
        m.locals(2);
        m.iload(0).istore(1);
        for (int c = 0; c < 5; ++c)
            m.iload(1).invokeStatic("T.f").istore(1);
        for (int i = 0; i < 8; ++i) {
            for (int c = 0; c < 3; ++c) {
                m.iload(1)
                    .invokeStatic("T.fill" + std::to_string(i))
                    .istore(1);
            }
        }
        for (int c = 0; c < 4; ++c)
            m.iload(1).invokeStatic("T.f").istore(1);
        m.iload(1).ireturn();
    });
}

TEST(CodeCacheRearm, EvictedMethodMustEarnRetranslation)
{
    const Program prog = rearmProgram();
    const MethodId f = prog.findMethod("T.f")->id;

    // Baseline: unlimited cache, f compiles once at its 3rd call and
    // stays native for the rest of the run.
    EngineConfig base_cfg;
    base_cfg.policy = std::make_shared<CounterPolicy>(3);
    ExecutionEngine base_engine(prog, base_cfg);
    const RunResult base = base_engine.run(1);
    ASSERT_TRUE(base.completed);
    EXPECT_EQ(base.codeCacheEvictions, 0u);
    EXPECT_EQ(base.retranslations, 0u);
    EXPECT_EQ(base.profiles.of(f).interpInvocations, 2u);
    EXPECT_EQ(base.profiles.of(f).nativeInvocations, 7u);

    // Bounded: the filler flood evicts f; the tail interprets f twice
    // (the re-armed counter at 1, 2) before retranslating at its 8th
    // call overall.
    EngineConfig cfg;
    cfg.policy = std::make_shared<CounterPolicy>(3);
    cfg.codeCache.capacityBytes = 2 << 10;
    ExecutionEngine engine(prog, cfg);
    const RunResult res = engine.run(1);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.exitValue, base.exitValue);
    EXPECT_GT(res.codeCacheEvictions, 0u);
    EXPECT_EQ(res.retranslations, 1u);
    const MethodProfile &fp = res.profiles.of(f);
    EXPECT_EQ(fp.invocations, 9u);
    EXPECT_EQ(fp.interpInvocations, 4u); // 2 pre-compile + 2 re-armed
    EXPECT_EQ(fp.nativeInvocations, 5u);
}

/**
 * A program whose compiled loop method is evicted while interpreted
 * frames of it are still live on the stack:
 *
 *   rec(n)  recurses to depth 0, then runs a 120-iteration loop whose
 *           body calls fill0-7; under counter:3 the 3rd recursive call
 *           compiles rec, so the two outermost frames stay interpreted
 *           while the inner frames run natively;
 *   fill0-7 bulky; each compiles during the inner frames' loop,
 *           flooding a small cache and evicting rec (oldest install).
 *
 * When the interpreted outer frames reach their own loops, the
 * re-armed OSR back-edge counter (reset by the eviction hook) lets
 * them escape through on-stack replacement — retranslating rec — after
 * osrBackEdgeThreshold fresh back edges.
 */
Program
osrRecoveryProgram()
{
    return test::makeProgramFull([](ProgramBuilder &pb) {
        ClassBuilder &t = pb.cls("T");
        for (int i = 0; i < 8; ++i) {
            MethodBuilder &fill = t.staticMethod(
                "fill" + std::to_string(i), {VType::Int}, VType::Int);
            fill.iload(0);
            for (int j = 0; j < 50; ++j)
                fill.iconst(j).iadd();
            fill.ireturn();
        }
        {
            MethodBuilder &m =
                t.staticMethod("rec", {VType::Int}, VType::Int);
            m.locals(3); // 0 = n, 1 = acc, 2 = i
            Label base = m.newLabel(), loop = m.newLabel(),
                  done = m.newLabel();
            m.iconst(0).istore(1);
            m.iload(0).ifle(base);
            m.iload(0).iconst(1).isub().invokeStatic("T.rec").istore(
                1);
            m.bind(base);
            m.iconst(120).istore(2);
            m.bind(loop);
            m.iload(2).ifle(done);
            for (int i = 0; i < 8; ++i) {
                m.iload(1)
                    .invokeStatic("T.fill" + std::to_string(i))
                    .istore(1);
            }
            m.iinc(2, -1);
            m.gotoL(loop);
            m.bind(done);
            m.iload(1).iload(0).iadd().ireturn();
        }
        MethodBuilder &main =
            t.staticMethod("main", {VType::Int}, VType::Int);
        main.iload(0).invokeStatic("T.rec").ireturn();
    });
}

TEST(CodeCacheRearm, OsrRecoversEvictedMethodWithLiveFrames)
{
    // Baseline: unlimited cache, nothing evicted.
    const Program base_prog = osrRecoveryProgram();
    EngineConfig base_cfg;
    base_cfg.policy = std::make_shared<CounterPolicy>(3);
    base_cfg.osrBackEdgeThreshold = 50;
    ExecutionEngine base_engine(base_prog, base_cfg);
    const RunResult base = base_engine.run(5);
    ASSERT_TRUE(base.completed);
    EXPECT_EQ(base.codeCacheEvictions, 0u);

    // Bounded: the filler flood evicts rec under the interpreted outer
    // frames; they recover through OSR on the re-armed counter, and
    // the program still computes the same answer.
    const Program prog = osrRecoveryProgram();
    EngineConfig cfg = base_cfg;
    cfg.codeCache.capacityBytes = 2 << 10;
    ExecutionEngine engine(prog, cfg);
    const RunResult res = engine.run(5);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.exitValue, base.exitValue);
    EXPECT_GT(res.codeCacheEvictions, 0u);
    EXPECT_GT(res.osrTransitions, 0u);
    EXPECT_GE(res.retranslations, 1u);
}

// ---------------------------------------------------------------------
// Sweep grid determinism
// ---------------------------------------------------------------------

TEST(CodeCacheSweep, TraceKeyComponentsOnlyWhenBounded)
{
    sweep::TraceKey key =
        sweep::traceKey("compress", sweep::ExecMode::jit());
    const std::string plain = key.str();
    EXPECT_EQ(plain.find("-cc"), std::string::npos);

    key.codeCache.capacityBytes = 64 << 10;
    key.codeCache.policy = EvictionPolicy::kLru;
    const std::string bounded = key.str();
    EXPECT_NE(bounded.find("-cc65536-lru"), std::string::npos);
    EXPECT_NE(bounded, plain);

    const RunSpec spec = key.toRunSpec();
    EXPECT_EQ(spec.codeCache.capacityBytes, 64u << 10);
    EXPECT_EQ(spec.codeCache.policy, EvictionPolicy::kLru);
}

TEST(CodeCacheSweep, TraceKeyBestFitAndOsrComponents)
{
    sweep::TraceKey key =
        sweep::traceKey("compress", sweep::ExecMode::jit());
    const std::string plain = key.str();
    EXPECT_EQ(plain.find("fit"), std::string::npos);
    EXPECT_EQ(plain.find("-osr"), std::string::npos);

    key.codeCache.strategy = AllocStrategy::kBestFit;
    key.osrBackEdgeThreshold = 64;
    const std::string tagged = key.str();
    EXPECT_NE(tagged.find("-bestfit"), std::string::npos);
    EXPECT_NE(tagged.find("-osr64"), std::string::npos);

    const RunSpec spec = key.toRunSpec();
    EXPECT_EQ(spec.codeCache.strategy, AllocStrategy::kBestFit);
    EXPECT_EQ(spec.osrBackEdgeThreshold, 64u);
}

TEST(CodeCacheSweep, GridIsDeterministicAcrossJobs)
{
    // One workload's slice of the capacity x policy grid, run with 1
    // worker and with 4: every metric must match bit-for-bit.
    std::vector<sweep::SweepPoint> points;
    for (sweep::SweepPoint &p : sweep::buildCodeCacheGrid()) {
        if (p.label.rfind("code_cache/javac/", 0) == 0)
            points.push_back(std::move(p));
    }
    ASSERT_FALSE(points.empty());

    sweep::SweepOptions serial;
    serial.jobs = 1;
    sweep::SweepEngine eng1(serial);
    const sweep::SweepResult r1 = eng1.run(points);
    for (const sweep::PointResult &p : r1.points) {
        ASSERT_TRUE(p.ok) << p.label << ": " << p.error;
    }

    sweep::SweepOptions wide;
    wide.jobs = 4;
    sweep::SweepEngine eng4(wide);
    const sweep::SweepResult r4 = eng4.run(points);
    ASSERT_TRUE(r4.allOk());

    ASSERT_EQ(r1.points.size(), r4.points.size());
    for (std::size_t i = 0; i < r1.points.size(); ++i) {
        const sweep::PointResult &a = r1.points[i];
        const sweep::PointResult *b = r4.find(a.label);
        ASSERT_NE(b, nullptr) << a.label;
        EXPECT_EQ(a.traceEvents, b->traceEvents) << a.label;
        for (const sweep::Metric &m : a.metrics) {
            EXPECT_EQ(m.value, b->metric(m.name))
                << a.label << " " << m.name;
        }
    }

    // Bounded points really exercised eviction: the tightest capacity
    // burns more of its stream on Translate work than the baseline.
    const sweep::PointResult *base = r1.find(sweep::codeCacheLabel(
        "javac", 0, EvictionPolicy::kFifo));
    const sweep::PointResult *tight = r1.find(sweep::codeCacheLabel(
        "javac", 2 << 10, EvictionPolicy::kFifo));
    ASSERT_NE(base, nullptr);
    ASSERT_NE(tight, nullptr);
    EXPECT_GT(tight->metric("translate_pct"),
              base->metric("translate_pct"));
}

// ---------------------------------------------------------------------
// Oracle-policy regression (no-JIT-evidence methods)
// ---------------------------------------------------------------------

TEST(CodeCacheOracle, NoJitEvidenceMeansKeepInterpreting)
{
    ProfileTable interp_run(2), jit_run(2);
    // Method 0: real evidence from both profiling runs; compiling is
    // clearly amortized.
    interp_run.of(0).invocations = 100;
    interp_run.of(0).interpEvents = 100000;
    jit_run.of(0).invocations = 100;
    jit_run.of(0).translateEvents = 500;
    jit_run.of(0).nativeEvents = 20000;
    // Method 1: interpreted evidence but NO jit-run invocations — its
    // jit_cost reads as zero, which the pre-fix oracle trusted and
    // therefore always compiled.
    interp_run.of(1).invocations = 50;
    interp_run.of(1).interpEvents = 90000;
    jit_run.of(1).invocations = 0;

    const std::vector<bool> compile =
        computeOracleDecisions(interp_run, jit_run);
    EXPECT_TRUE(compile[0]);
    EXPECT_FALSE(compile[1]) << "zero-evidence jit_cost must not win";
}

} // namespace
} // namespace jrs
