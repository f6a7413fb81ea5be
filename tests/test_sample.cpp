/**
 * @file
 * jrs::prof sampling-profiler contract tests (prof/sampler.h +
 * prof/frame_tracker.h):
 *
 *  - Determinism: a fixed seed reproduces the sampled profile
 *    bit-for-bit; changing the seed moves the sample points.
 *  - Non-perturbation: a pipeline observed by a SamplingProfiler is
 *    bit-identical to a bare one, the recorded stream digests stay at
 *    their pinned golden values, and an exact CCT profiler sharing
 *    the replay fan is unperturbed.
 *  - Shared frame discipline: the FrameTracker behind both profilers
 *    reproduces the Call/Ret shapes the exact profiler pins down
 *    (recursion, unmatched/mismatched Rets, Translate close rules,
 *    depth overflow).
 *  - Ground-truth agreement: a period-1 event-clock sampler
 *    reproduces the exact profiler's folded output exactly, and
 *    calibration error shrinks as the period does on a synthetic
 *    two-hot-method stream.
 *  - jrs-sample-v1 documents parse back through test::JsonParser
 *    (the report set itself is tested for all schemas in
 *    test_perf.cpp).
 *  - Calibration metrics (top-N overlap, rank agreement) on
 *    hand-built profiles; jittered-gap bounds.
 *  - ObsCli/GcCli error paths exit 2 with a usage message.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/mix/instruction_mix.h"
#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "isa/address_map.h"
#include "isa/trace_buffer.h"
#include "json_parser.h"
#include "obs/attribution.h"
#include "obs/cli.h"
#include "prof/cct.h"
#include "prof/frame_tracker.h"
#include "prof/sampler.h"
#include "support/random.h"
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

/** Forward one replay to two sinks (sampler + exact sharing a fan). */
struct FanSink : TraceSink {
    TraceSink *a = nullptr;
    TraceSink *b = nullptr;
    void onEvent(const TraceEvent &e) override
    {
        a->onEvent(e);
        b->onEvent(e);
    }
    void onFinish() override
    {
        a->onFinish();
        b->onFinish();
    }
};

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

TEST(Sampler, FixedSeedIsReproducible)
{
    const RecordedRun rec = recordTiny("hello", "jit");
    ASSERT_NE(rec.methods, nullptr);
    prof::SampleOptions opt;
    opt.period = 512;
    opt.seed = 7;
    prof::SamplePipeline one(PipelineConfig{}, rec.methods, opt);
    rec.trace->replay(one);
    prof::SamplePipeline two(PipelineConfig{}, rec.methods, opt);
    rec.trace->replay(two);

    EXPECT_GT(one.sampler().samples(), 0u);
    EXPECT_EQ(one.sampler().samples(), two.sampler().samples());
    EXPECT_EQ(one.sampler().runJson("r"), two.sampler().runJson("r"));

    // A different seed moves the jittered sample points: same clock,
    // different sample placement (with overwhelming likelihood a
    // different document; assert the deterministic part only).
    opt.seed = 8;
    prof::SamplePipeline three(PipelineConfig{}, rec.methods, opt);
    rec.trace->replay(three);
    EXPECT_EQ(three.sampler().clockTotal(),
              one.sampler().clockTotal());
    EXPECT_NE(three.sampler().runJson("r"),
              one.sampler().runJson("r"));
}

TEST(Sampler, ObserverDoesNotPerturbPipeline)
{
    // Pinned digests of the hello streams (same constants as
    // tests/test_prof.cpp): the sampled run must be replaying the
    // exact same stream, not a perturbed one.
    const std::uint64_t kHelloInterp = 0xe7ee982cc858c8acull;
    const std::uint64_t kHelloJit = 0x77a65398f1cfb42dull;
    for (const auto &[mode, digest] :
         {std::pair<const char *, std::uint64_t>{"interp",
                                                 kHelloInterp},
          std::pair<const char *, std::uint64_t>{"jit", kHelloJit}}) {
        SCOPED_TRACE(mode);
        const RecordedRun rec = recordTiny("hello", mode);
        DigestSink d;
        rec.trace->replay(d);
        EXPECT_EQ(d.h, digest);

        PipelineSim bare((PipelineConfig()));
        rec.trace->replay(bare);
        prof::SamplePipeline observed(PipelineConfig{}, rec.methods);
        rec.trace->replay(observed);

        // Sampler on == sampler off, bit for bit.
        EXPECT_EQ(observed.pipeline().cycles(), bare.cycles());
        EXPECT_EQ(observed.pipeline().instructions(),
                  bare.instructions());
        EXPECT_EQ(observed.pipeline().mispredicts(),
                  bare.mispredicts());
        EXPECT_EQ(observed.pipeline().icache().stats().misses(),
                  bare.icache().stats().misses());
        EXPECT_EQ(observed.pipeline().dcache().stats().misses(),
                  bare.dcache().stats().misses());
        // The sampler's cycle clock saw every retired cycle.
        EXPECT_EQ(observed.sampler().clockTotal(), bare.cycles());
    }
}

TEST(Sampler, ExactProfilerUnperturbedWhenSharingReplay)
{
    const RecordedRun rec = recordTiny("compress", "jit");
    ASSERT_NE(rec.methods, nullptr);

    // Exact profiler alone...
    prof::CctPipeline solo(PipelineConfig{}, rec.methods);
    rec.trace->replay(solo);

    // ...and side by side with a sampler on one replay fan.
    prof::CctPipeline exact(PipelineConfig{}, rec.methods);
    prof::SamplePipeline sampled(PipelineConfig{}, rec.methods);
    FanSink fan;
    fan.a = &sampled;
    fan.b = &exact;
    rec.trace->replay(fan);

    EXPECT_EQ(exact.cct().totalCycles(), solo.cct().totalCycles());
    EXPECT_EQ(exact.cct().totalEvents(), solo.cct().totalEvents());
    EXPECT_EQ(exact.cct().runJson("r"), solo.cct().runJson("r"));
    EXPECT_EQ(sampled.pipeline().cycles(), solo.pipeline().cycles());
}

TEST(Sampler, TrackerCountersMatchCctOnSharedReplay)
{
    // The sampler's shadow stack must apply every event's push/pop,
    // the stream's last one included: hello/interp ends with a Ret
    // at the root, which both trackers must count.
    for (const char *workload : {"hello", "compress"}) {
        for (const char *mode : {"interp", "jit"}) {
            SCOPED_TRACE(std::string(workload) + "/" + mode);
            const RecordedRun rec = recordTiny(workload, mode);
            for (const bool cycleClock : {true, false}) {
                prof::CctBuilder cct(*rec.methods);
                prof::SampleOptions opt;
                opt.cycleClock = cycleClock;
                prof::SamplingProfiler sampler(*rec.methods, opt);
                PipelineSim pipe{PipelineConfig{}};
                pipe.observe(cct);
                pipe.observe(sampler);
                rec.trace->replay(pipe);
                const prof::FrameTracker &t = sampler.tracker();
                const prof::FrameTracker &c = cct.tracker();
                EXPECT_EQ(t.maxDepthSeen(), c.maxDepthSeen());
                EXPECT_EQ(t.unmatchedRets(), c.unmatchedRets());
                EXPECT_EQ(t.mismatchedRets(), c.mismatchedRets());
            }
        }
    }
    // Fed straight from the stream, too.
    const RecordedRun rec = recordTiny("hello", "interp");
    prof::SamplingProfiler sampler(*rec.methods);
    rec.trace->replay(sampler);
    EXPECT_GT(sampler.tracker().unmatchedRets(), 0u);
}

TEST(FrameTracker, MirrorsCallRetDiscipline)
{
    const obs::MethodMap map;
    prof::FrameTracker t(&map);
    const SimAddr fib = stub::methodStubOf(4);

    // Recursion stacks two frames of the same method.
    t.onEvent(ev(NKind::Call, Phase::Interpret, 0x10, fib));
    t.onEvent(ev(NKind::IndirectCall, Phase::Interpret, 0x20, fib));
    EXPECT_EQ(t.stack().size(), 3u);
    EXPECT_EQ(t.frameName(t.stack().back()), "(method#4)");
    EXPECT_EQ(t.maxDepthSeen(), 3u);

    // An interp Ret closes a Method frame; with only the root left,
    // further Rets are counted as unmatched and ignored.
    t.onEvent(ev(NKind::Ret, Phase::Interpret));
    t.onEvent(ev(NKind::Ret, Phase::Interpret));
    EXPECT_EQ(t.stack().size(), 1u);
    t.onEvent(ev(NKind::Ret, Phase::Interpret));
    EXPECT_EQ(t.unmatchedRets(), 1u);

    // A guest Ret under an open Runtime bracket is a kind mismatch.
    t.onEvent(ev(NKind::Call, Phase::Runtime, stub::kAllocPc, 0x1));
    EXPECT_EQ(t.frameName(t.stack().back()), "(alloc)");
    t.onEvent(ev(NKind::Ret, Phase::Interpret));
    EXPECT_EQ(t.mismatchedRets(), 1u);
    EXPECT_EQ(t.stack().size(), 2u);
    t.onEvent(ev(NKind::Ret, Phase::Runtime));
    EXPECT_EQ(t.stack().size(), 1u);
}

TEST(FrameTracker, TranslateCloseAndOverflowRules)
{
    const obs::MethodMap map;
    prof::FrameTracker t(&map, prof::FrameTrackerOptions{3});

    // Translate frames ignore per-bytecode dispatch returns and close
    // only on the install return...
    t.onEvent(ev(NKind::Call, Phase::Translate, stub::kTransDispatch,
                 stub::kTransEmit));
    t.onEvent(ev(NKind::Ret, Phase::Translate, stub::kTransEmit));
    EXPECT_EQ(t.stack().size(), 2u);
    t.onEvent(
        ev(NKind::Ret, Phase::Translate, stub::kTransInstallRet));
    EXPECT_EQ(t.stack().size(), 1u);
    EXPECT_EQ(t.abandonedTranslations(), 0u);

    // ...or are abandoned at the first event from another phase, with
    // begin() reporting the close so consumers can mirror it.
    t.onEvent(ev(NKind::Call, Phase::Translate, stub::kTransDispatch,
                 stub::kTransEmit));
    const prof::FrameTracker::Step step =
        t.begin(ev(NKind::IntAlu, Phase::Interpret));
    EXPECT_TRUE(step.closedTranslate);
    t.finish(ev(NKind::IntAlu, Phase::Interpret));
    EXPECT_EQ(t.abandonedTranslations(), 1u);
    EXPECT_EQ(t.stack().size(), 1u);

    // Depth overflow: pushes beyond maxDepth are virtual, and their
    // Rets unwind the virtual counter before touching real frames.
    const SimAddr m = stub::methodStubOf(1);
    for (int i = 0; i < 6; ++i)
        t.onEvent(ev(NKind::Call, Phase::Interpret, 0x10, m));
    EXPECT_EQ(t.stack().size(), 3u);
    EXPECT_EQ(t.overflowPushes(), 4u);
    for (int i = 0; i < 6; ++i)
        t.onEvent(ev(NKind::Ret, Phase::Interpret));
    EXPECT_EQ(t.stack().size(), 1u);
    EXPECT_EQ(t.unmatchedRets(), 0u);
}

TEST(Sampler, PeriodOneEventClockMatchesExactCct)
{
    for (const char *mode : {"interp", "jit"}) {
        SCOPED_TRACE(mode);
        const RecordedRun rec = recordTiny("hello", mode);
        ASSERT_NE(rec.methods, nullptr);

        // Exact pass with no pipeline: folded values are self events.
        prof::CctBuilder exact(*rec.methods);
        rec.trace->replay(exact);

        // A period-1 event-clock sampler samples every event at its
        // attribution point, so it must reproduce the exact
        // per-context event counts — the strongest possible check
        // that both profilers share one frame discipline.
        prof::SampleOptions opt;
        opt.period = 1;
        prof::SamplingProfiler sampled(*rec.methods, opt);
        rec.trace->replay(sampled);

        EXPECT_EQ(sampled.samples(), exact.totalEvents());
        const std::vector<prof::FoldedLine> a = exact.foldedLines();
        const std::vector<prof::FoldedLine> b = sampled.foldedLines();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].stack, b[i].stack) << i;
            EXPECT_EQ(a[i].value, b[i].value) << i;
        }
    }
}

/** Two hot methods with a fixed 8:4 self-event split (plus the root's
    Call events), repeated @p iters times. */
void
feedTwoHotMethods(TraceSink &sink, int iters)
{
    const SimAddr m1 = stub::methodStubOf(1);
    const SimAddr m2 = stub::methodStubOf(2);
    for (int i = 0; i < iters; ++i) {
        sink.onEvent(ev(NKind::Call, Phase::Interpret, 0x10, m1));
        for (int k = 0; k < 7; ++k)
            sink.onEvent(ev(NKind::IntAlu, Phase::Interpret));
        sink.onEvent(ev(NKind::Ret, Phase::Interpret));
        sink.onEvent(ev(NKind::Call, Phase::Interpret, 0x20, m2));
        for (int k = 0; k < 3; ++k)
            sink.onEvent(ev(NKind::IntAlu, Phase::Interpret));
        sink.onEvent(ev(NKind::Ret, Phase::Interpret));
    }
    sink.onFinish();
}

TEST(Sampler, CalibrationErrorShrinksWithPeriod)
{
    const obs::MethodMap map;
    prof::CctBuilder exact(map);
    feedTwoHotMethods(exact, 3000);

    double lastErr = -1;
    for (const std::uint64_t period : {1024ull, 64ull, 4ull}) {
        SCOPED_TRACE(period);
        prof::SampleOptions opt;
        opt.period = period;
        prof::SamplingProfiler sampled(map, opt);
        feedTwoHotMethods(sampled, 3000);

        const prof::CalibrationReport rep =
            prof::calibrate(exact, sampled);
        EXPECT_EQ(rep.value, "events");
        EXPECT_EQ(rep.samples, sampled.samples());
        ASSERT_FALSE(rep.rows.empty());
        // Rows sorted by exact share: (method#1) is the hottest.
        EXPECT_EQ(rep.rows[0].name, "(method#1)");
        EXPECT_NEAR(rep.rows[0].exactShare, 8.0 / 14.0, 1e-9);
        // Denser sampling is never less accurate on this stream, and
        // both orderings agree at every period.
        if (lastErr >= 0) {
            EXPECT_LE(rep.meanAbsErrPct, lastErr);
        }
        lastErr = rep.meanAbsErrPct;
        EXPECT_EQ(rep.topOverlap, 1.0);
        EXPECT_EQ(rep.rankAgreement, 1.0);
    }
    // At period 4 the estimate is tight in absolute terms.
    EXPECT_LT(lastErr, 1.0);
}

TEST(Sampler, JsonRoundTripsThroughParser)
{
    const RecordedRun rec = recordTiny("hello", "jit");
    prof::SamplePipeline sp(PipelineConfig{}, rec.methods);
    rec.trace->replay(sp);

    obs::ReportSet reports("jrs-sample-v1");
    reports.add("hello/jit", sp.sampler());
    const test::JsonParser::Value doc =
        test::JsonParser(reports.toJson(), "jrs-sample-v1").parse();
    ASSERT_NE(doc.field("schema"), nullptr);
    EXPECT_EQ(doc.field("schema")->str, "jrs-sample-v1");
    const test::JsonParser::Value *runs = doc.field("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->items.size(), 1u);
    const test::JsonParser::Value &run = runs->items[0];
    EXPECT_EQ(run.field("label")->str, "hello/jit");
    EXPECT_EQ(run.field("clock")->str, "cycles");
    EXPECT_EQ(static_cast<std::uint64_t>(run.field("samples")->num),
              sp.sampler().samples());
    EXPECT_EQ(static_cast<std::uint64_t>(
                  run.field("clock_total")->num),
              sp.pipeline().cycles());

    // Per-node samples partition the total.
    const test::JsonParser::Value *nodes = run.field("nodes");
    ASSERT_NE(nodes, nullptr);
    std::uint64_t sum = 0;
    for (const test::JsonParser::Value &n : nodes->items)
        sum += static_cast<std::uint64_t>(n.field("samples")->num);
    EXPECT_EQ(sum, sp.sampler().samples());
}

TEST(Calibration, TopShareOverlapHandBuilt)
{
    using Shares = std::vector<std::pair<std::string, double>>;
    const Shares exact = {{"a", 0.5}, {"b", 0.3}, {"c", 0.2}};
    const Shares sampled = {{"a", 0.4}, {"c", 0.35}, {"b", 0.25}};

    // Top-2 hot sets: {a, b} vs {a, c} — half shared.
    EXPECT_DOUBLE_EQ(prof::topShareOverlap(exact, sampled, 2), 0.5);
    // Top-3 covers everything on both sides.
    EXPECT_DOUBLE_EQ(prof::topShareOverlap(exact, sampled, 3), 1.0);
    // n clamps to the smaller profile.
    const Shares one = {{"a", 1.0}};
    EXPECT_DOUBLE_EQ(prof::topShareOverlap(exact, one, 10), 1.0);
    // Vacuous cases agree.
    EXPECT_DOUBLE_EQ(prof::topShareOverlap({}, sampled, 5), 1.0);
    EXPECT_DOUBLE_EQ(prof::topShareOverlap(exact, sampled, 0), 1.0);
    // Ties break by name, deterministically: top-1 of {x:0.5, y:0.5}
    // is x on both sides.
    const Shares tied = {{"y", 0.5}, {"x", 0.5}};
    EXPECT_DOUBLE_EQ(prof::topShareOverlap(tied, tied, 1), 1.0);
}

TEST(Calibration, ShareRankAgreementHandBuilt)
{
    using Shares = std::vector<std::pair<std::string, double>>;
    const Shares exact = {{"a", 0.5}, {"b", 0.3}, {"c", 0.2}};

    // Same ordering: all 3 pairs concordant.
    const Shares same = {{"a", 0.6}, {"b", 0.25}, {"c", 0.15}};
    EXPECT_DOUBLE_EQ(prof::shareRankAgreement(exact, same), 1.0);
    // One swapped pair (b vs c): 2 of 3 pairs concordant.
    const Shares swapped = {{"a", 0.6}, {"b", 0.15}, {"c", 0.25}};
    EXPECT_NEAR(prof::shareRankAgreement(exact, swapped), 2.0 / 3.0,
                1e-12);
    // Fully reversed: nothing concordant.
    const Shares reversed = {{"a", 0.1}, {"b", 0.3}, {"c", 0.6}};
    EXPECT_DOUBLE_EQ(prof::shareRankAgreement(exact, reversed), 0.0);
    // Only names present in both profiles are ranked.
    const Shares partial = {{"a", 0.2}, {"z", 0.8}};
    EXPECT_DOUBLE_EQ(prof::shareRankAgreement(exact, partial), 1.0);
    // Fewer than two common names agree vacuously.
    EXPECT_DOUBLE_EQ(prof::shareRankAgreement(exact, {}), 1.0);
}

TEST(Sampler, JitteredGapStaysInBounds)
{
    XorShift64 prng(42);
    const std::uint64_t period = 1000;
    std::uint64_t sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t gap = prof::jitteredGap(prng, period);
        ASSERT_GE(gap, period / 2);
        ASSERT_LT(gap, period / 2 + period);
        sum += gap;
    }
    // Uniform in [p/2, 3p/2): the mean hugs the period.
    const double mean = static_cast<double>(sum) / 20000.0;
    EXPECT_NEAR(mean, static_cast<double>(period), period * 0.02);
    // Degenerate period never stalls the clock.
    for (int i = 0; i < 100; ++i)
        ASSERT_GE(prof::jitteredGap(prng, 0), 1u);
    for (int i = 0; i < 100; ++i)
        ASSERT_GE(prof::jitteredGap(prng, 1), 1u);
}

TEST(Kinds, DefaultEventIndexesInsideEveryPerKindArray)
{
    // A default-constructed event (and so a default Step's) carries
    // NKind::Nop. Live streams skip the JRSTRACE decode check, so
    // every per-kind array must have a slot for it (AddressSanitizer
    // reports the overflow otherwise).
    static_assert(static_cast<std::size_t>(NKind::Nop) < kNumNKinds);
    const TraceEvent ev{};
    ASSERT_EQ(ev.kind, NKind::Nop);

    InstructionMix mix;
    CountingSink counted;
    for (int i = 0; i < 3; ++i) {
        mix.onEvent(ev);
        counted.onEvent(ev);
    }
    EXPECT_EQ(mix.count(NKind::Nop), 3u);
    EXPECT_EQ(mix.count(ev.phase, NKind::Nop), 3u);
    EXPECT_EQ(mix.total(), 3u);
    EXPECT_EQ(counted.total(), 3u);
    EXPECT_EQ(counted.inPhase(ev.phase), 3u);

    const obs::MethodMap none;
    prof::SampleOptions eventClock;
    eventClock.period = 1;
    prof::SamplingProfiler byEvent(none, eventClock);
    for (int i = 0; i < 3; ++i)
        byEvent.onEvent(ev);
    EXPECT_GT(byEvent.samples(), 0u);
    EXPECT_EQ(byEvent.kindSamples(NKind::Nop), byEvent.samples());

    // A retired default step samples with its event's kind.
    prof::SampleOptions cycleClock = eventClock;
    cycleClock.cycleClock = true;
    prof::SamplingProfiler byCycle(none, cycleClock);
    Step retired;
    retired.hasCpi = true;
    retired.cpi[0] = 4;
    byCycle.onSteps(&retired, 1);
    EXPECT_GT(byCycle.samples(), 0u);
    EXPECT_EQ(byCycle.kindSamples(NKind::Nop), byCycle.samples());
}

// EXPECT_EXIT bodies (macro arguments cannot hold brace-blocks with
// commas): feed one flag + value through the CLI parsers.
void
parseObsFlag(const std::string &flag, const std::string &value)
{
    obs::ObsCli c;
    auto next = [&]() -> std::string { return value; };
    c.tryParse(flag, next);
}

void
parseGcFlag(const std::string &flag, const std::string &value)
{
    obs::GcCli c;
    auto next = [&]() -> std::string { return value; };
    c.tryParse(flag, next);
}

/** A flag at the end of argv, through the canonical next() lambda the
    tools all share. */
void
parseTruncatedArgv()
{
    const char *args[] = {"tool", "--sample-json"};
    const int argc2 = 2;
    obs::ObsCli c;
    int i = 1;
    const std::string a = args[i];
    auto next = [&]() -> std::string {
        if (i + 1 >= argc2) {
            std::cerr << "error: missing value\n";
            std::exit(2);
        }
        return args[++i];
    };
    c.tryParse(a, next);
}

TEST(Cli, ErrorPathsExitTwoWithUsage)
{
    // Unknown flags are left for the caller's usage() path.
    obs::ObsCli cli;
    bool nextCalled = false;
    auto never = [&]() -> std::string {
        nextCalled = true;
        return "";
    };
    EXPECT_FALSE(cli.tryParse("--no-such-flag", never));
    EXPECT_FALSE(nextCalled);

    // Non-numeric values exit 2 with a usage message.
    EXPECT_EXIT(parseObsFlag("--sample-period", "12abc"),
                ::testing::ExitedWithCode(2),
                "--sample-period expects a decimal count");
    EXPECT_EXIT(parseObsFlag("--sample-seed", "many"),
                ::testing::ExitedWithCode(2),
                "--sample-seed expects a decimal count");
    EXPECT_EXIT((void)obs::GcCli::parseSize("12q", "--heap-bytes"),
                ::testing::ExitedWithCode(2),
                "--heap-bytes expects a byte count");
    EXPECT_EXIT(parseGcFlag("--collector", "bogus"),
                ::testing::ExitedWithCode(2),
                "unknown --collector 'bogus'");

    // A flag at the end of argv (value missing) exits 2 through the
    // canonical next() the tools all share.
    EXPECT_EXIT(parseTruncatedArgv(), ::testing::ExitedWithCode(2),
                "missing value");
}

} // namespace
} // namespace jrs
