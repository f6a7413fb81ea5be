/**
 * @file
 * Observability tests: registry semantics, span lanes, phase-count
 * conservation across execution modes, hot-method attribution, and
 * the zero-cost-when-off / bit-identical-results contract of jrs::obs
 * (obs.h file comment; ISSUE: results must not depend on whether
 * observability is enabled).
 */
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "isa/address_map.h"
#include "isa/trace_buffer.h"
#include "obs/attribution.h"
#include "obs/obs.h"
#include "support/random.h"
#include "sweep/sweep.h"
#include "workloads/workload.h"

namespace jrs {
namespace {

/** Restore the process-wide obs state around every test. */
struct ObsGuard {
    ObsGuard() { resetAll(); }
    ~ObsGuard() { resetAll(); }
    static void resetAll()
    {
        obs::setEnabled(false);
        obs::metrics().reset();
        obs::tracer().clear();
    }
};

const WorkloadInfo &
tiny(const char *name)
{
    const WorkloadInfo *w = findWorkload(name);
    EXPECT_NE(w, nullptr) << name;
    return *w;
}

RunResult
runTiny(const char *name, std::shared_ptr<CompilationPolicy> policy,
        TraceSink *sink = nullptr)
{
    const WorkloadInfo &w = tiny(name);
    RunSpec s;
    s.workload = &w;
    s.arg = w.tinyArg;
    s.policy = std::move(policy);
    s.sink = sink;
    return runWorkload(s);
}

TEST(ObsMetrics, CounterGaugeHistogramBasics)
{
    ObsGuard guard;
    obs::MetricRegistry &reg = obs::metrics();
    reg.counter("t.counter").add(3);
    reg.counter("t.counter").add(4);
    EXPECT_EQ(reg.counterValue("t.counter"), 7u);
    EXPECT_EQ(reg.counterValue("t.never"), 0u);

    reg.gauge("t.gauge").set(2.5);
    reg.gauge("t.gauge").set(1.25);
    EXPECT_EQ(reg.gaugeValue("t.gauge"), 1.25);

    obs::Histogram &h = reg.histogram("t.hist");
    h.record(1.0);
    h.record(2.0);
    h.record(1000.0);
    const obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sum, 1003.0);
    EXPECT_EQ(s.min, 1.0);
    EXPECT_EQ(s.max, 1000.0);
    EXPECT_DOUBLE_EQ(s.mean(), 1003.0 / 3.0);
}

TEST(ObsMetrics, ConcurrentCounterAddsAreLossless)
{
    ObsGuard guard;
    obs::Counter &c = obs::metrics().counter("t.concurrent");
    constexpr int kThreads = 8;
    constexpr int kAdds = 20000;
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i)
                c.add(1);
        });
    }
    for (std::thread &t : pool)
        t.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(ObsMetrics, JsonSnapshotIsStableAndCarriesSchema)
{
    ObsGuard guard;
    obs::MetricRegistry &reg = obs::metrics();
    reg.counter("b.second").add(2);
    reg.counter("a.first").add(1);
    reg.gauge("g.depth").set(3.0);
    reg.histogram("h.sizes").record(17.0);
    const std::string one = reg.toJson();
    const std::string two = reg.toJson();
    EXPECT_EQ(one, two);
    EXPECT_NE(one.find("\"schema\": \"jrs-metrics-v1\""),
              std::string::npos);
    // Sorted name order within each section.
    EXPECT_LT(one.find("a.first"), one.find("b.second"));
    EXPECT_NE(one.find("h.sizes"), std::string::npos);
}

TEST(ObsSpans, ThreadsGetDistinctLanesAndJsonRenders)
{
    ObsGuard guard;
    obs::setEnabled(true);
    obs::SpanTracer &tracer = obs::tracer();
    tracer.nameCurrentLane("test-main");
    {
        obs::ScopedSpan span("outer", "test");
        span.arg("k", "v");
    }
    std::uint32_t mainLane = obs::SpanTracer::currentLane();
    std::uint32_t otherLane = mainLane;
    std::thread other([&] {
        otherLane = obs::SpanTracer::currentLane();
        obs::ScopedSpan span("inner", "test");
    });
    other.join();
    EXPECT_NE(mainLane, otherLane);
    EXPECT_EQ(tracer.size(), 2u);

    const std::string json = tracer.toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"inner\""), std::string::npos);
    EXPECT_NE(json.find("test-main"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

/**
 * The paper's accounting identity: every simulated instruction belongs
 * to exactly one phase, in every execution mode, and an external
 * CountingSink sees exactly what the engine reports.
 */
TEST(ObsPhases, PhaseSumsEqualTotalsInAllModes)
{
    ObsGuard guard;
    const struct {
        const char *name;
        std::shared_ptr<CompilationPolicy> policy;
    } modes[] = {
        {"interp", std::make_shared<NeverCompilePolicy>()},
        {"jit", std::make_shared<AlwaysCompilePolicy>()},
        {"counter", std::make_shared<CounterPolicy>(2)},
    };
    for (const auto &mode : modes) {
        CountingSink counting;
        const RunResult res = runTiny("compress", mode.policy,
                                      &counting);
        std::uint64_t phaseSum = 0;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            phaseSum += res.phaseEvents[p];
            EXPECT_EQ(counting.inPhase(static_cast<Phase>(p)),
                      res.phaseEvents[p])
                << mode.name << " phase " << p;
        }
        EXPECT_EQ(phaseSum, res.totalEvents) << mode.name;
        EXPECT_EQ(counting.total(), res.totalEvents) << mode.name;
    }
}

TEST(ObsPhases, PhaseSumsEqualTotalsUnderOracle)
{
    ObsGuard guard;
    CountingSink counting;
    const WorkloadInfo &w = tiny("compress");
    const OracleOutcome out =
        runOracleExperiment(w, w.tinyArg, &counting);
    std::uint64_t phaseSum = 0;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        phaseSum += out.oracleRun.phaseEvents[p];
        EXPECT_EQ(counting.inPhase(static_cast<Phase>(p)),
                  out.oracleRun.phaseEvents[p]);
    }
    EXPECT_EQ(phaseSum, out.oracleRun.totalEvents);
    EXPECT_EQ(counting.total(), out.oracleRun.totalEvents);
}

TEST(ObsToggle, OffLeavesRegistryAndTracerUntouched)
{
    ObsGuard guard;
    ASSERT_FALSE(obs::enabled());
    const RunResult res =
        runTiny("compress", std::make_shared<AlwaysCompilePolicy>());
    EXPECT_GT(res.totalEvents, 0u);
    EXPECT_EQ(obs::metrics().counterValue("vm.runs"), 0u);
    EXPECT_EQ(obs::metrics().counterValue("jit.compilations"), 0u);
    EXPECT_EQ(obs::tracer().size(), 0u);
}

TEST(ObsToggle, OnPublishesEngineAndJitMetrics)
{
    ObsGuard guard;
    obs::setEnabled(true);
    const RunResult res =
        runTiny("compress", std::make_shared<AlwaysCompilePolicy>());
    obs::MetricRegistry &reg = obs::metrics();
    EXPECT_EQ(reg.counterValue("vm.runs"), 1u);
    EXPECT_EQ(reg.counterValue("vm.events.total"), res.totalEvents);
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        EXPECT_EQ(reg.counterValue(
                      std::string("vm.events.")
                      + phaseName(static_cast<Phase>(p))),
                  res.phaseEvents[p]);
    }
    EXPECT_EQ(reg.counterValue("jit.compilations"),
              res.methodsCompiled);
    EXPECT_EQ(reg.counterValue("vm.methods_compiled"),
              res.methodsCompiled);
    const obs::Histogram::Snapshot insts =
        reg.histogram("jit.native_insts").snapshot();
    EXPECT_EQ(insts.count, res.methodsCompiled);
    // At least one vm.run span plus one jit.translate span per
    // compilation (uncompilable attempts add spans of their own).
    EXPECT_GE(obs::tracer().size(), 1 + res.methodsCompiled);
}

TEST(ObsAttribution, ConservesEveryPhaseAndAttributesHotCode)
{
    ObsGuard guard;
    const WorkloadInfo &w = tiny("compress");
    const Program prog = w.build();
    EngineConfig cfg;
    cfg.policy = std::make_shared<CounterPolicy>(2);
    TraceBuffer buffer;
    cfg.sink = &buffer;
    ExecutionEngine engine(prog, cfg);
    const RunResult res = engine.run(w.tinyArg);
    ASSERT_TRUE(res.completed);

    const obs::MethodMap map =
        obs::MethodMap::forRun(engine.registry(), engine.codeCache());
    EXPECT_GT(map.rows(), 0u);
    obs::AttributionSink attr(map);
    buffer.replay(attr);

    EXPECT_EQ(attr.totalEvents(), res.totalEvents);
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        EXPECT_EQ(attr.phaseEvents(phase), res.phaseEvents[p]);
        // Conservation: the full top list (unattributed bucket
        // included) sums back to the phase total.
        std::uint64_t sum = 0;
        for (const obs::AttributedMethod &m :
             attr.top(phase, map.rows() + 1))
            sum += m.events;
        EXPECT_EQ(sum, res.phaseEvents[p]) << phaseName(phase);
    }

    // The joins are essentially exact for the executing phases: every
    // interpreter step starts with a bytecode fetch and native pcs lie
    // inside installed methods.
    for (const Phase phase : {Phase::Interpret, Phase::NativeExec}) {
        const std::uint64_t total = attr.phaseEvents(phase);
        if (total == 0)
            continue;
        EXPECT_GE(static_cast<double>(attr.attributed(phase)),
                  0.99 * static_cast<double>(total))
            << phaseName(phase);
    }
}

/**
 * Every address within +-8 of each range boundary of @p map, plus
 * seeded random addresses in each of the first ten segments and far
 * above them, resolve through MethodContext exactly as rowOf does.
 */
void
expectFastPathExact(const obs::MethodMap &map, std::uint64_t seed)
{
    std::vector<SimAddr> addrs;
    map.forEachRange([&](SimAddr lo, SimAddr hi, const std::string &) {
        for (const SimAddr edge : {lo, hi}) {
            for (SimAddr d = 0; d <= 16; ++d)
                addrs.push_back(edge - 8 + d);
        }
    });
    XorShift64 rng(seed);
    for (SimAddr segIdx = 0; segIdx <= 10; ++segIdx) {
        const SimAddr base =
            segIdx < 10 ? segIdx * seg::kSegmentSize : ~SimAddr{0} - 4096;
        for (int i = 0; i < 2000; ++i)
            addrs.push_back(base + rng.nextBounded(seg::kSegmentSize));
    }
    addrs.push_back(0);
    addrs.push_back(~SimAddr{0});
    // In order (runs of neighbours share a cached span), then
    // shuffled (the cache keeps missing).
    obs::MethodContext ctx(map);
    for (const SimAddr a : addrs)
        ASSERT_EQ(ctx.rowOf(a), map.rowOf(a)) << std::hex << a;
    for (std::size_t i = addrs.size(); i > 1; --i)
        std::swap(addrs[i - 1], addrs[rng.nextBounded(i)]);
    for (const SimAddr a : addrs)
        ASSERT_EQ(ctx.rowOf(a), map.rowOf(a)) << std::hex << a;
}

TEST(ObsAttribution, ContextFastPathEqualsRowOf)
{
    // A recorded run's map: bytecode and generated-code ranges.
    const WorkloadInfo &w = tiny("compress");
    RunSpec spec;
    spec.workload = &w;
    spec.arg = w.tinyArg;
    spec.policy = std::make_shared<CounterPolicy>(2);
    const RecordedRun rec = recordWorkload(spec);
    ASSERT_GT(rec.methods->rows(), 0u);
    expectFastPathExact(*rec.methods, 1);

    // Hand-built: adjacent ranges, one spanning a segment boundary,
    // ranges at the bottom and the top of the address space.
    obs::MethodMap map;
    map.add(0, 16, "bottom");
    map.add(seg::kClassData, seg::kClassData + 64, "a");
    map.add(seg::kClassData + 64, seg::kClassData + 96, "b");
    map.add(seg::kClassData + 96, seg::kClassData + 200, "a");
    map.add(seg::kCodeCache - 32, seg::kCodeCache + 32, "straddle");
    map.add(~SimAddr{0} - 64, ~SimAddr{0} - 1, "top");
    expectFastPathExact(map, 2);

    const obs::MethodMap empty;
    expectFastPathExact(empty, 3);
}

/**
 * Ground truth for NativeExec attribution: at every NativeExec event
 * the engine names the compiled method whose frame it is stepping.
 * Records that name per event (for replays), counts the events run by
 * code already evicted, and checks a MethodContext on a followed map
 * against it as the events arrive.
 */
class ExecutingMethodOracle : public TraceSink {
  public:
    explicit ExecutingMethodOracle(const obs::MethodMap &map)
        : map_(map), ctx_(map) {}

    void attach(const ExecutionEngine &engine) { engine_ = &engine; }

    void onEvent(const TraceEvent &ev) override {
        const int row = ctx_.observe(ev);
        if (ev.phase != Phase::NativeExec)
            return;
        const NativeMethod *nm = engine_->steppingNative();
        ASSERT_NE(nm, nullptr);
        truth.push_back(&nm->src->name);
        if (nm->retired)
            ++retired;
        if (row < 0 || map_.name(row) != nm->src->name)
            ++wrong;
    }

    /** Executing method of each NativeExec event, in stream order. */
    std::vector<const std::string *> truth;
    std::uint64_t retired = 0;  ///< events of evicted code
    std::uint64_t wrong = 0;    ///< events the followed map misnamed

  private:
    const obs::MethodMap &map_;
    obs::MethodContext ctx_;
    const ExecutionEngine *engine_ = nullptr;
};

/** NativeExec events @p map (replayed through @p trace) misnames. */
std::uint64_t
misnamedOnReplay(const TraceBuffer &trace, const obs::MethodMap &map,
                 const std::vector<const std::string *> &truth)
{
    struct Check : TraceSink {
        Check(const obs::MethodMap &m,
              const std::vector<const std::string *> &t)
            : map(m), ctx(m), truth(t) {}
        void onEvent(const TraceEvent &ev) override {
            const int row = ctx.observe(ev);
            if (ev.phase != Phase::NativeExec)
                return;
            const std::string &want = *truth[next++];
            if (row < 0 || map.name(row) != want)
                ++wrong;
        }
        const obs::MethodMap &map;
        obs::MethodContext ctx;
        const std::vector<const std::string *> &truth;
        std::size_t next = 0;
        std::uint64_t wrong = 0;
    } check(map, truth);
    trace.replay(check);
    EXPECT_EQ(check.next, truth.size());
    return check.wrong;
}

TEST(ObsAttribution, FollowedMapNamesTheExecutingMethodUnderEviction)
{
    // Small FIFO code caches evict methods whose frames keep running
    // (their code is retired, not freed) and hand their addresses to
    // newer methods.
    const struct {
        const char *workload;
        std::size_t capacity;
    } cases[] = {{"javac", 4096}, {"jack", 2048}};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.workload);
        const WorkloadInfo &w = tiny(c.workload);
        const Program prog = w.build();
        obs::MethodMap map = obs::MethodMap::follow(prog);
        ExecutingMethodOracle oracle(map);
        TraceBuffer trace;
        MultiSink sinks;
        sinks.add(&oracle);
        sinks.add(&trace);
        EngineConfig cfg;
        cfg.policy = std::make_shared<AlwaysCompilePolicy>();
        cfg.codeCache.capacityBytes = c.capacity;
        cfg.codeCache.policy = EvictionPolicy::kFifo;
        cfg.sink = &sinks;
        cfg.codeObserver = &map;
        ExecutionEngine engine(prog, cfg);
        oracle.attach(engine);
        const RunResult res = engine.run(w.tinyArg);
        ASSERT_TRUE(res.completed);
        ASSERT_GT(res.codeCacheEvictions, 0u);

        // The case this test exists for: events of evicted code.
        EXPECT_GT(oracle.retired, 0u);
        EXPECT_EQ(oracle.wrong, 0u);
        ASSERT_EQ(oracle.truth.size(), res.inPhase(Phase::NativeExec));

        // A replay through the same followed map agrees; the
        // end-of-run map of a recording cannot.
        EXPECT_EQ(misnamedOnReplay(trace, map, oracle.truth), 0u);
        const obs::MethodMap end =
            obs::MethodMap::forRun(engine.registry(), engine.codeCache());
        EXPECT_GT(misnamedOnReplay(trace, end, oracle.truth), 0u);
    }
}

/** CountingSink as a sweep model: phase totals become metrics. */
sweep::SweepPoint
countingPoint(const std::string &label, const sweep::TraceKey &key)
{
    return sweep::makePoint<CountingSink>(
        label, key, [] { return std::make_unique<CountingSink>(); },
        [](CountingSink &sink, const RecordedRun &run) {
            std::vector<sweep::Metric> out{
                {"total", static_cast<double>(sink.total())},
                {"events",
                 static_cast<double>(run.result.totalEvents)},
            };
            for (std::size_t p = 0; p < kNumPhases; ++p) {
                out.push_back(
                    {phaseName(static_cast<Phase>(p)),
                     static_cast<double>(
                         sink.inPhase(static_cast<Phase>(p)))});
            }
            return out;
        });
}

std::vector<sweep::SweepPoint>
tinyGrid()
{
    std::vector<sweep::SweepPoint> grid;
    for (const char *name : {"compress", "db"}) {
        const WorkloadInfo &w = tiny(name);
        for (const bool jit : {false, true}) {
            const sweep::TraceKey key = sweep::traceKey(
                name,
                jit ? sweep::ExecMode::jit()
                    : sweep::ExecMode::interp(),
                w.tinyArg);
            grid.push_back(countingPoint(
                std::string(name) + (jit ? "/jit" : "/interp"), key));
        }
    }
    return grid;
}

TEST(ObsSweep, ResultsBitIdenticalWithObsOnAndOff)
{
    ObsGuard guard;
    ASSERT_FALSE(obs::enabled());
    sweep::SweepEngine plain{{}};
    const sweep::SweepResult off = plain.run(tinyGrid());
    ASSERT_TRUE(off.allOk());

    ObsGuard::resetAll();
    obs::setEnabled(true);
    sweep::SweepEngine observed{{}};
    const sweep::SweepResult on = observed.run(tinyGrid());
    ASSERT_TRUE(on.allOk());

    ASSERT_EQ(off.points.size(), on.points.size());
    for (std::size_t i = 0; i < off.points.size(); ++i) {
        const sweep::PointResult &a = off.points[i];
        const sweep::PointResult &b = on.points[i];
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.traceEvents, b.traceEvents);
        ASSERT_EQ(a.metrics.size(), b.metrics.size()) << a.label;
        for (std::size_t m = 0; m < a.metrics.size(); ++m) {
            EXPECT_EQ(a.metrics[m].name, b.metrics[m].name);
            // Bitwise equality, not tolerance: observability must not
            // perturb the simulation at all.
            EXPECT_EQ(a.metrics[m].value, b.metrics[m].value)
                << a.label << "/" << a.metrics[m].name;
        }
    }

    // And the observed sweep actually published its own telemetry.
    obs::MetricRegistry &reg = obs::metrics();
    EXPECT_EQ(reg.counterValue("sweep.points.done"),
              on.points.size());
    EXPECT_EQ(reg.counterValue("sweep.points.failed"), 0u);
    EXPECT_EQ(reg.counterValue("sweep.recordings"), 4u);
    EXPECT_EQ(reg.gaugeValue("sweep.queue_depth"), 0.0);
    EXPECT_EQ(reg.histogram("sweep.point_seconds").snapshot().count,
              on.points.size());
}

TEST(ObsSweep, ProgressCallbackIsMonotoneAndComplete)
{
    ObsGuard guard;
    std::vector<sweep::SweepProgress> seen;
    sweep::SweepOptions opts;
    opts.jobs = 2;
    opts.onProgress = [&seen](const sweep::SweepProgress &p) {
        seen.push_back(p);
    };
    sweep::SweepEngine engine(opts);
    const sweep::SweepResult result = engine.run(tinyGrid());
    ASSERT_TRUE(result.allOk());

    ASSERT_FALSE(seen.empty());
    // 4 points over 4 distinct streams -> one callback per group.
    EXPECT_EQ(seen.size(), 4u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].groupsDone, i + 1);
        EXPECT_EQ(seen[i].groupsTotal, 4u);
        EXPECT_EQ(seen[i].pointsTotal, result.points.size());
        if (i > 0) {
            EXPECT_GT(seen[i].pointsDone, seen[i - 1].pointsDone);
            EXPECT_GE(seen[i].traces.recordings,
                      seen[i - 1].traces.recordings);
        }
    }
    EXPECT_EQ(seen.back().pointsDone, result.points.size());
    EXPECT_EQ(seen.back().traces.recordings,
              result.traces.recordings);
}

} // namespace
} // namespace jrs
