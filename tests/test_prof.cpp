/**
 * @file
 * jrs::prof contract tests (prof/cct.h):
 *
 *  - Conservation: a CCT pass observes exactly
 *    PipelineSim::instructions() events and cycles() cycles, and both
 *    totals equal the sum over nodes of self events/cycles, per
 *    workload and mode — regardless of stack shape.
 *  - Non-perturbation: a pipeline observed by a CctBuilder produces
 *    bit-identical timing to a bare one (profiler on == profiler off).
 *  - Golden stream digests: the hello streams hash to pinned values,
 *    so refactors of the trace-visible stub addresses
 *    (isa/address_map.h) cannot silently change recorded streams.
 *  - Frame discipline on synthetic streams: recursion chains
 *    contexts, unmatched/mismatched Rets are counted and ignored,
 *    Translate frames only close on the install return (or are
 *    abandoned), depth overflow suppresses pushes without losing
 *    events.
 *  - Golden folded-flamegraph fixture from hand-built events.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/pipeline/pipeline.h"
#include "gc/collector.h"
#include "harness/experiment.h"
#include "isa/address_map.h"
#include "isa/trace_buffer.h"
#include "obs/attribution.h"
#include "prof/cct.h"
#include "vm/engine/policy.h"
#include "workloads/workload.h"

namespace jrs {
namespace {

std::shared_ptr<CompilationPolicy>
policyFor(const std::string &mode)
{
    if (mode == "interp")
        return std::make_shared<NeverCompilePolicy>();
    if (mode == "jit")
        return std::make_shared<AlwaysCompilePolicy>();
    return std::make_shared<CounterPolicy>(8);
}

/** Record one tiny run; every test replays offline from here. */
RecordedRun
recordTiny(const char *workload, const std::string &mode)
{
    const WorkloadInfo *w = findWorkload(workload);
    EXPECT_NE(w, nullptr) << workload;
    RunSpec s;
    s.workload = w;
    s.arg = w->tinyArg;
    s.policy = policyFor(mode);
    return recordWorkload(s);
}

/** The workload x mode matrix the conservation tests run over. */
const std::vector<std::pair<const char *, const char *>> kMatrix = {
    {"hello", "interp"},    {"hello", "jit"},  {"hello", "counter"},
    {"compress", "interp"}, {"compress", "jit"},
    {"db", "jit"},          {"db", "counter"},
};

TEST(Cct, ConservesPipelineCyclesAndEvents)
{
    for (const auto &[workload, mode] : kMatrix) {
        SCOPED_TRACE(std::string(workload) + "/" + mode);
        const RecordedRun rec = recordTiny(workload, mode);
        ASSERT_NE(rec.methods, nullptr);
        prof::CctPipeline sink(PipelineConfig{}, rec.methods);
        rec.trace->replay(sink);
        const prof::CctBuilder &cct = sink.cct();
        const PipelineSim &pipe = sink.pipeline();

        // Totals match the model exactly.
        EXPECT_EQ(cct.totalEvents(), pipe.instructions());
        EXPECT_EQ(cct.totalCycles(), pipe.cycles());

        // And decompose exactly over the tree: every event and every
        // CPI-stack sample landed in exactly one node.
        std::uint64_t events = 0, cycles = 0;
        std::uint64_t phaseEvents = 0, phaseCycles = 0;
        for (const prof::CctNode &n : cct.nodes()) {
            events += n.events;
            cycles += n.cycles();
            for (std::size_t p = 0; p < kNumPhases; ++p) {
                phaseEvents += n.phaseEvents[p];
                phaseCycles += n.phaseCycles[p];
            }
        }
        EXPECT_EQ(events, cct.totalEvents());
        EXPECT_EQ(cycles, cct.totalCycles());
        EXPECT_EQ(phaseEvents, cct.totalEvents());
        EXPECT_EQ(phaseCycles, cct.totalCycles());
    }
}

TEST(Cct, ObserverDoesNotPerturbPipeline)
{
    for (const auto &[workload, mode] : kMatrix) {
        SCOPED_TRACE(std::string(workload) + "/" + mode);
        const RecordedRun rec = recordTiny(workload, mode);
        PipelineSim bare((PipelineConfig()));
        rec.trace->replay(bare);
        prof::CctPipeline observed(PipelineConfig{}, rec.methods);
        rec.trace->replay(observed);

        // Profiler on == profiler off, bit for bit.
        EXPECT_EQ(observed.pipeline().cycles(), bare.cycles());
        EXPECT_EQ(observed.pipeline().instructions(),
                  bare.instructions());
        EXPECT_EQ(observed.pipeline().mispredicts(),
                  bare.mispredicts());
        EXPECT_EQ(observed.pipeline().icache().stats().misses(),
                  bare.icache().stats().misses());
        EXPECT_EQ(observed.pipeline().dcache().stats().misses(),
                  bare.dcache().stats().misses());
    }
}

/** FNV-1a over every field of every event: the stream's identity. */
struct DigestSink : TraceSink {
    std::uint64_t h = 1469598103934665603ull;
    void put(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    void onEvent(const TraceEvent &e) override
    {
        put(e.pc);
        put(isMemory(e.kind) ? e.mem : 0);
        put(isControl(e.kind) ? e.target : 0);
        put(static_cast<std::uint64_t>(e.kind));
        put(static_cast<std::uint64_t>(e.phase));
        put(e.taken ? 1 : 0);
        put(e.memSize);
        put(e.rd);
        put(e.rs1);
        put(e.rs2);
    }
    void onFinish() override {}
};

TEST(Cct, GoldenStreamDigests)
{
    // Pinned digests of the hello streams. These change ONLY when the
    // VM intentionally emits a different stream; in particular the
    // trace-visible stub addresses (isa/address_map.h stub::) must
    // stay where recorded traces put them, or every cached trace and
    // CCT frame classification silently shifts.
    const std::uint64_t kHelloInterp = 0xe7ee982cc858c8acull;
    const std::uint64_t kHelloJit = 0x77a65398f1cfb42dull;
    DigestSink interp;
    recordTiny("hello", "interp").trace->replay(interp);
    DigestSink jit;
    recordTiny("hello", "jit").trace->replay(jit);
    EXPECT_EQ(interp.h, kHelloInterp)
        << "hello/interp stream digest changed: 0x" << std::hex
        << interp.h;
    EXPECT_EQ(jit.h, kHelloJit)
        << "hello/jit stream digest changed: 0x" << std::hex << jit.h;
}

TraceEvent
ev(NKind kind, Phase phase, std::uint64_t pc = 0,
   std::uint64_t target = 0, std::uint64_t mem = 0)
{
    TraceEvent e;
    e.kind = kind;
    e.phase = phase;
    e.pc = pc;
    // One address operand: the one the kind carries.
    if (isControl(kind))
        e.target = target;
    else if (isMemory(kind))
        e.mem = mem;
    return e;
}

TEST(Cct, RecursiveCallsChainContexts)
{
    const obs::MethodMap map;
    prof::CctBuilder cct(map);
    const SimAddr fib = stub::methodStubOf(4);
    // main calls fib, fib calls fib (recursion), both return.
    cct.onEvent(ev(NKind::Call, Phase::Interpret, 0x10, fib));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));
    cct.onEvent(ev(NKind::IndirectCall, Phase::Interpret, 0x20, fib));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));
    cct.onEvent(ev(NKind::Ret, Phase::Interpret));
    cct.onEvent(ev(NKind::Ret, Phase::Interpret));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));

    // Root -> (method#4) -> (method#4): recursion gets its own
    // context node rather than merging with its caller.
    ASSERT_EQ(cct.nodes().size(), 3u);
    const prof::CctNode &outer = cct.nodes()[1];
    const prof::CctNode &inner = cct.nodes()[2];
    EXPECT_EQ(outer.parent, 0);
    EXPECT_EQ(inner.parent, 1);
    EXPECT_EQ(cct.nodeName(outer), "(method#4)");
    EXPECT_EQ(cct.nodeName(inner), "(method#4)");
    EXPECT_EQ(outer.calls, 1u);
    EXPECT_EQ(inner.calls, 1u);
    EXPECT_EQ(cct.tracker().maxDepthSeen(), 3u);
    EXPECT_EQ(cct.tracker().unmatchedRets(), 0u);
    EXPECT_EQ(cct.tracker().mismatchedRets(), 0u);
    // Every event landed in exactly one node.
    EXPECT_EQ(cct.totalEvents(), 7u);
    EXPECT_EQ(cct.nodes()[0].events + outer.events + inner.events, 7u);
}

TEST(Cct, UnbalancedRetsAreCountedAndIgnored)
{
    const obs::MethodMap map;
    prof::CctBuilder cct(map);
    // A Ret with only the root open (exception unwind shape).
    cct.onEvent(ev(NKind::Ret, Phase::Interpret));
    EXPECT_EQ(cct.tracker().unmatchedRets(), 1u);

    // A guest Ret while a GC frame is open: wrong kind, ignored.
    cct.onEvent(ev(NKind::Call, Phase::Gc, gc::kGcPc, 0x1));
    cct.onEvent(ev(NKind::IntAlu, Phase::Gc));
    cct.onEvent(ev(NKind::Ret, Phase::Interpret));
    EXPECT_EQ(cct.tracker().mismatchedRets(), 1u);
    // The matching Gc Ret still closes the frame.
    cct.onEvent(ev(NKind::Ret, Phase::Gc));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));

    EXPECT_EQ(cct.totalEvents(), 6u);
    std::uint64_t sum = 0;
    for (const prof::CctNode &n : cct.nodes())
        sum += n.events;
    EXPECT_EQ(sum, 6u);
    // Stack is back at the root: a new Gc bracket nests at depth 2.
    cct.onEvent(ev(NKind::Call, Phase::Gc, gc::kGcPc, 0x1));
    EXPECT_EQ(cct.tracker().maxDepthSeen(), 2u);
}

TEST(Cct, TranslateFramesCloseOnInstallRetOnly)
{
    const obs::MethodMap map;
    prof::CctBuilder cct(map);
    // One compilation: Call opens the frame, per-bytecode returns to
    // the dispatch loop do NOT close it, the install return does.
    cct.onEvent(ev(NKind::Call, Phase::Translate, stub::kTransDispatch,
                   stub::kTransEmit));
    cct.onEvent(ev(NKind::Ret, Phase::Translate, stub::kTransEmit));
    cct.onEvent(ev(NKind::IntAlu, Phase::Translate));
    EXPECT_EQ(cct.tracker().maxDepthSeen(), 2u);
    const prof::CctNode &trans = cct.nodes()[1];
    EXPECT_EQ(cct.nodeName(trans), "(translate)");
    EXPECT_EQ(trans.events, 2u);
    cct.onEvent(
        ev(NKind::Ret, Phase::Translate, stub::kTransInstallRet));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));
    EXPECT_EQ(cct.tracker().abandonedTranslations(), 0u);
    EXPECT_EQ(cct.nodes()[0].events, 2u);  // the Call + the IntAlu

    // An abandoned compilation (no install return) is closed by the
    // first event from another phase.
    cct.onEvent(ev(NKind::Call, Phase::Translate, stub::kTransDispatch,
                   stub::kTransEmit));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));
    EXPECT_EQ(cct.tracker().abandonedTranslations(), 1u);
    EXPECT_EQ(cct.totalEvents(), 7u);
}

TEST(Cct, DepthOverflowSuppressesPushesButConservesEvents)
{
    const obs::MethodMap map;
    prof::CctBuilder cct(map, prof::CctOptions{.maxDepth = 3});
    const SimAddr m = stub::methodStubOf(1);
    for (int i = 0; i < 6; ++i)
        cct.onEvent(ev(NKind::Call, Phase::Interpret, 0x10, m));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));
    for (int i = 0; i < 6; ++i)
        cct.onEvent(ev(NKind::Ret, Phase::Interpret));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));

    // Only maxDepth-1 frames were materialized; the rest were virtual.
    EXPECT_EQ(cct.tracker().maxDepthSeen(), 3u);
    EXPECT_EQ(cct.tracker().overflowPushes(), 4u);
    EXPECT_EQ(cct.tracker().unmatchedRets(), 0u);
    ASSERT_EQ(cct.nodes().size(), 3u);
    // The suppressed frames' events accrued to the deepest real one.
    EXPECT_EQ(cct.totalEvents(), 14u);
    std::uint64_t sum = 0;
    for (const prof::CctNode &n : cct.nodes())
        sum += n.events;
    EXPECT_EQ(sum, 14u);
    // All Rets consumed: the final IntAlu sits at the root again.
    EXPECT_EQ(cct.nodes()[0].events, 2u);
}

TEST(Cct, GoldenFoldedFixture)
{
    obs::MethodMap map;
    map.add(0x100, 0x200, "main");
    map.add(0x200, 0x300, "helper");
    prof::CctBuilder cct(map);
    // Root names itself from the first bytecode fetch; the callee
    // frame likewise from its first fetch inside the bracket.
    cct.onEvent(
        ev(NKind::Load, Phase::Interpret, seg::kInterpCode, 0, 0x110));
    cct.onEvent(ev(NKind::Call, Phase::Interpret, 0x10,
                   stub::methodStubOf(7)));
    cct.onEvent(
        ev(NKind::Load, Phase::Interpret, seg::kInterpCode, 0, 0x210));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));
    cct.onEvent(ev(NKind::Ret, Phase::Interpret));
    cct.onEvent(ev(NKind::IntAlu, Phase::Interpret));

    // No pipeline listener fed cycles, so values are self events.
    const std::vector<prof::FoldedLine> lines = cct.foldedLines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].stack, "main_[i]");
    EXPECT_EQ(lines[0].value, 3u);
    EXPECT_EQ(lines[1].stack, "main;helper_[i]");
    EXPECT_EQ(lines[1].value, 3u);

    // The same tree as difffolded text against a scaled copy.
    const std::string diff = prof::foldedDiff(lines, lines);
    EXPECT_EQ(diff, "main;helper_[i] 3 3\nmain_[i] 3 3\n");
}

} // namespace
} // namespace jrs
