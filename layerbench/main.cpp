/**
 * @file
 * layerbench — one repetition of a layer-ledger workload, in its own
 * process.
 *
 *   layerbench <workload> --seed N [--trace 0|1] [--launched-ns T]
 *              [--setup-only] [--trace-json FILE]
 *
 * Workloads (all single-threaded, every simulated model cold):
 *
 *   sweep_cold      SweepEngine::run, one worker, empty trace cache,
 *                   over the fig04 + btb grids (14 streams, 28 points)
 *   profile_replay  set-up records compress/interp and mpeg/jit; the
 *                   timed part replays each stream into PipelineSim,
 *                   AttributedPipeline, CctPipeline and SamplePipeline
 *   check_fuzz      runFuzzCampaign, one worker, 30 generator seeds
 *                   from a seed base derived from --seed
 *
 * The process prints one JSON object on stdout: set-up, wall, CPU and
 * peak-RSS figures of this repetition, the observed simulated values
 * of every operation (run.py compares them with golden.json), and the
 * run context. Set-up time runs from --launched-ns (the launcher's
 * CLOCK_MONOTONIC stamp taken just before it spawned this process) to
 * the first timed operation, so process start-up counts as set-up.
 *
 * With --trace 1 the timed part runs with a span around every layer
 * call, followed by the layer ledger: each layer's public entry point
 * timed on the workload's own programs, reported as the marginal cost
 * over the layer below. Spans stay in memory and are written as Chrome
 * trace JSON to --trace-json at exit; a per-layer self-time table goes
 * to stderr.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/bpred/predictors.h"
#include "arch/cache/cache.h"
#include "arch/mix/instruction_mix.h"
#include "arch/pipeline/pipeline.h"
#include "check/differential.h"
#include "check/fuzz.h"
#include "check/progen.h"
#include "harness/experiment.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/perf.h"
#include "obs/spans.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "support/random.h"
#include "sweep/grids.h"
#include "sweep/sweep.h"
#include "workloads/workload.h"

using namespace jrs;

namespace {

/** Generator seeds per check_fuzz repetition (× 3 modes each). */
constexpr std::uint32_t kFuzzSeeds = 30;

/** Entry argument of every fuzz program (FuzzOptions default). */
constexpr std::int32_t kFuzzArg = 7;

/** hello tinyArg runs timed for vm.setup_s; the median is reported. */
constexpr int kSetupProbes = 5;

/** getrusage(RUSAGE_SELF) snapshot. */
struct Usage {
    double cpuS = 0;        ///< user + system
    long minflt = 0;        ///< minor page faults
    long maxRssKb = 0;      ///< process peak RSS
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpuS = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
        + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec
                                     + ru.ru_stime.tv_usec);
    u.minflt = ru.ru_minflt;
    u.maxRssKb = ru.ru_maxrss;
    return u;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

// ---------------------------------------------------------------------
// Spans around layer calls

/**
 * Spans around the benchmark's calls into each layer. Kept in an
 * obs::SpanTracer (Chrome trace JSON at exit) and folded into
 * per-name self times: a span's self time is its duration minus the
 * part its child spans cover. Every top-level span gets its own table,
 * whose rows plus the top-level span's own self time (the residual)
 * add up to its duration. A disabled LayerTrace records nothing.
 */
class LayerTrace {
  public:
    explicit LayerTrace(bool on) : on_(on) {}

    /** RAII span; a no-op when tracing is off. */
    class Span {
      public:
        Span(LayerTrace &t, std::string name) : t_(t)
        {
            if (t_.on_)
                t_.open(std::move(name));
        }
        ~Span()
        {
            if (t_.on_)
                t_.close();
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        LayerTrace &t_;
    };

    /** Self-time table of every top-level span, to @p os. */
    void printTables(std::ostream &os) const
    {
        for (const Table &t : tables_) {
            char head[160];
            std::snprintf(head, sizeof head,
                          "\n%s: %.6f s traced, self time by layer span\n",
                          t.root.c_str(),
                          1e-9 * static_cast<double>(t.totalNs));
            os << head;
            os << "  span                     calls      self_s   "
                  "share\n";
            for (const Row &r : t.rows) {
                char line[160];
                std::snprintf(line, sizeof line,
                              "  %-22s %7llu %11.6f %6.1f%%\n",
                              r.name.c_str(),
                              static_cast<unsigned long long>(r.calls),
                              1e-9 * static_cast<double>(r.selfNs),
                              100.0 * static_cast<double>(r.selfNs)
                                  / static_cast<double>(
                                      std::max<std::int64_t>(
                                          t.totalNs, 1)));
                os << line;
            }
            char line[160];
            std::snprintf(line, sizeof line,
                          "  %-22s %7s %11.6f %6.1f%%\n",
                          "(residual)", "",
                          1e-9 * static_cast<double>(t.residualNs),
                          100.0 * static_cast<double>(t.residualNs)
                              / static_cast<double>(
                                  std::max<std::int64_t>(t.totalNs,
                                                         1)));
            os << line;
        }
    }

    void writeJson(const std::string &path) const
    {
        if (on_ && !path.empty())
            tracer_.writeJson(path);
    }

  private:
    struct Open {
        std::string name;
        obs::SteadyTime start;
        std::uint64_t startUs = 0;
        std::int64_t childNs = 0;
    };
    struct Row {
        std::string name;
        std::uint64_t calls = 0;
        std::int64_t selfNs = 0;
    };
    struct Table {
        std::string root;
        std::int64_t totalNs = 0;
        std::int64_t residualNs = 0;
        std::vector<Row> rows;
    };

    void open(std::string name)
    {
        stack_.push_back(
            {std::move(name), obs::steadyNow(), tracer_.nowUs(), 0});
    }

    void close()
    {
        Open o = std::move(stack_.back());
        stack_.pop_back();
        const std::int64_t durNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                obs::steadyNow() - o.start)
                .count();
        obs::SpanRecord rec;
        rec.name = o.name;
        rec.cat = "layerbench";
        rec.startUs = o.startUs;
        rec.durUs = tracer_.nowUs() - o.startUs;
        rec.lane = obs::SpanTracer::currentLane();
        tracer_.record(std::move(rec));

        const std::int64_t selfNs = durNs - o.childNs;
        if (stack_.empty()) {
            current_.root = o.name;
            current_.totalNs = durNs;
            current_.residualNs = selfNs;
            tables_.push_back(std::move(current_));
            current_ = Table{};
            return;
        }
        stack_.back().childNs += durNs;
        for (Row &r : current_.rows) {
            if (r.name == o.name) {
                ++r.calls;
                r.selfNs += selfNs;
                return;
            }
        }
        current_.rows.push_back({o.name, 1, selfNs});
    }

    bool on_;
    obs::SpanTracer tracer_;
    std::vector<Open> stack_;
    Table current_;
    std::vector<Table> tables_;
};

// ---------------------------------------------------------------------
// Results

/** One checked operation: an id and the simulated values it produced. */
struct Op {
    std::string id;
    bool ok = true;            ///< structural checks in this process
    std::string error;
    std::vector<std::pair<std::string, double>> values;
};

/** What one repetition hands back to the launcher. */
struct Rep {
    double setupS = 0;
    double wallS = 0;
    double cpuS = 0;
    std::vector<Op> ops;
    /** Per-layer ledger (--trace 1 only), in print order. */
    std::vector<std::pair<std::string, double>> layers;
};

/** Repetition-scoped state shared by the workloads. */
struct Ctx {
    Ctx(std::uint64_t seed_, bool traced_, bool setupOnly_,
        obs::SteadyTime launched_)
        : seed(seed_), traced(traced_), setupOnly(setupOnly_),
          trace(traced_), launched(launched_)
    {
    }

    std::uint64_t seed;
    bool traced;
    bool setupOnly;
    LayerTrace trace;
    obs::SteadyTime launched;
    obs::SteadyTime timedStart;
    Usage timedUsage;

    /**
     * Marks the end of set-up; everything after is the timed part.
     * @return false in --setup-only mode, where the workload stops here.
     */
    bool startTimed(Rep &rep)
    {
        timedStart = obs::steadyNow();
        timedUsage = usageNow();
        rep.setupS =
            obs::secondsBetween(launched, timedStart);
        return !setupOnly;
    }

    void stopTimed(Rep &rep)
    {
        rep.wallS = obs::secondsSince(timedStart);
        rep.cpuS = usageNow().cpuS - timedUsage.cpuS;
    }
};

// ---------------------------------------------------------------------
// The layer ledger

/**
 * One program the ledger drives through the stack: a Program, the
 * engine configuration that runs it (policy objects carry state, so a
 * fresh config per run) and its entry argument.
 */
struct Stream {
    std::string label;
    /** Builds the program; runWorkload builds it inside every run. */
    std::function<Program()> build;
    std::function<EngineConfig()> config;
    std::int32_t arg = 0;
    /** Registry workloads must complete; fuzz programs may throw. */
    bool mustComplete = true;
};

EngineConfig
configFor(const RunSpec &spec)
{
    EngineConfig cfg;
    cfg.policy = spec.policy ? spec.policy
                             : std::make_shared<AlwaysCompilePolicy>();
    cfg.syncKind = spec.syncKind;
    cfg.quantum = spec.quantum;
    cfg.gc = spec.gc;
    cfg.heapBytes = spec.heapBytes;
    cfg.codeCache = spec.codeCache;
    cfg.osrBackEdgeThreshold = spec.osrBackEdgeThreshold;
    cfg.sharedProgramKey = spec.workload->name;
    return cfg;
}

Stream
suiteStream(const sweep::TraceKey &key)
{
    const RunSpec probe = key.toRunSpec();
    Stream s;
    s.label = key.str();
    s.build = probe.workload->build;
    s.config = [key] { return configFor(key.toRunSpec()); };
    s.arg = key.arg != 0 ? key.arg : probe.workload->smallArg;
    return s;
}

/** Run @p s on a fresh engine; the method map is captured on request. */
RunResult
engineRun(const Stream &s, TraceSink *sink,
          std::shared_ptr<const obs::MethodMap> *methods = nullptr)
{
    const Program prog = s.build();
    EngineConfig cfg = s.config();
    cfg.sink = sink;
    ExecutionEngine engine(prog, cfg);
    RunResult r = engine.run(s.arg);
    if (s.mustComplete && !r.completed)
        throw std::runtime_error(s.label + " did not complete");
    if (methods != nullptr) {
        *methods = std::make_shared<obs::MethodMap>(
            obs::MethodMap::forRun(engine.registry(),
                                   engine.codeCache()));
    }
    return r;
}

/** Sums of raw (not yet marginal) per-call seconds over all streams. */
struct LedgerSums {
    double exec = 0, count = 0, record = 0, translate = 0;
    double replay = 0, mix = 0, cache = 0, bpred = 0, pipeline = 0;
    double perf = 0, cct = 0, sample = 0;
    double events = 0, bytes = 0, recordMinflt = 0;
    /** Standalone replay into each sweep group's point sinks. */
    double sweepReplay = 0;
};

/** Time @p fn under span @p name; returns seconds. */
template <class Fn>
double
timed(LayerTrace &trace, const char *name, Fn &&fn)
{
    LayerTrace::Span span(trace, name);
    const obs::SteadyTime t0 = obs::steadyNow();
    fn();
    return obs::secondsSince(t0);
}

/**
 * Drive @p s through every stream layer once. @p groupSinks, when
 * set, builds the sweep point sinks that consume this stream, so the
 * standalone record + replay the sweep performs can be timed too.
 */
void
ledgerStream(LayerTrace &trace, const Stream &s, LedgerSums &sum,
             const std::function<std::vector<std::unique_ptr<TraceSink>>(
                 const RecordedRun &)> &groupSinks)
{
    RunResult exec;
    sum.exec += timed(trace, "vm.exec", [&] { exec = engineRun(s, nullptr); });
    sum.translate += 1e-9 * static_cast<double>(exec.translateBuildNs);
    sum.events += static_cast<double>(exec.totalEvents);

    CountingSink counted;
    sum.count += timed(trace, "isa.emit", [&] { engineRun(s, &counted); });
    if (counted.total() != exec.totalEvents)
        throw std::runtime_error(s.label + ": emitted event count differs");

    RecordedRun rec;
    auto buffer = std::make_shared<TraceBuffer>();
    const long flt0 = usageNow().minflt;
    sum.record += timed(trace, "isa.record", [&] {
        rec.result = engineRun(s, buffer.get(), &rec.methods);
    });
    sum.recordMinflt += static_cast<double>(usageNow().minflt - flt0);
    sum.bytes += static_cast<double>(buffer->memoryBytes());
    rec.trace = buffer;

    CountingSink replayed;
    sum.replay += timed(trace, "isa.replay",
                        [&] { buffer->replay(replayed); });
    if (replayed.total() != exec.totalEvents)
        throw std::runtime_error(s.label + ": replayed event count differs");
    sum.mix += timed(trace, "arch.mix", [&] {
        InstructionMix mix;
        buffer->replay(mix);
    });
    sum.cache += timed(trace, "arch.cache", [&] {
        CacheSink caches(CacheConfig{64 * 1024, 32, 2, true},
                         CacheConfig{64 * 1024, 32, 4, true});
        buffer->replay(caches);
    });
    sum.bpred += timed(trace, "arch.bpred", [&] {
        PredictorBank bank;
        buffer->replay(bank);
    });
    sum.pipeline += timed(trace, "arch.pipeline", [&] {
        PipelineSim pipe{PipelineConfig{}};
        buffer->replay(pipe);
    });
    sum.perf += timed(trace, "obs.perf", [&] {
        obs::AttributedPipeline p(PipelineConfig{}, rec.methods);
        buffer->replay(p);
    });
    sum.cct += timed(trace, "prof.cct", [&] {
        prof::CctPipeline p(PipelineConfig{}, rec.methods);
        buffer->replay(p);
    });
    sum.sample += timed(trace, "prof.sample", [&] {
        prof::SamplePipeline p(PipelineConfig{}, rec.methods);
        buffer->replay(p);
    });
    if (groupSinks) {
        sum.sweepReplay += timed(trace, "sweep.standalone_replay", [&] {
            std::vector<std::unique_ptr<TraceSink>> sinks = groupSinks(rec);
            MultiSink fan;
            for (const auto &k : sinks)
                fan.add(k.get());
            buffer->replay(fan);
        });
    }
}

/** vm.setup_s / vm.setup_minflt: hello at tinyArg, tracing off. */
void
ledgerSetupProbe(LayerTrace &trace, double &setupS, double &setupMinflt)
{
    const WorkloadInfo *hello = findWorkload("hello");
    if (hello == nullptr)
        throw std::runtime_error("hello workload missing");
    std::vector<double> secs, faults;
    for (int i = 0; i < kSetupProbes; ++i) {
        RunSpec spec;
        spec.workload = hello;
        spec.arg = hello->tinyArg;
        const long flt0 = usageNow().minflt;
        secs.push_back(timed(trace, "vm.setup", [&] { runWorkload(spec); }));
        faults.push_back(static_cast<double>(usageNow().minflt - flt0));
    }
    setupS = median(secs);
    setupMinflt = median(faults);
}

/** Marginal per-layer figures from the raw sums (see NOTES.md). */
void
fillLayers(Rep &rep, const LedgerSums &s, double setupS,
           double setupMinflt)
{
    auto add = [&](const char *name, double v) {
        rep.layers.emplace_back(name, v);
    };
    add("vm.setup_s", setupS);
    add("vm.setup_minflt", setupMinflt);
    add("vm.exec_s", s.exec);
    add("vm.translate_s", s.translate);
    add("vm.guest_events", s.events);
    add("isa.emit_s", s.count - s.exec);
    add("isa.record_s", s.record - s.count);
    add("isa.record_minflt", s.recordMinflt);
    add("isa.trace_bytes", s.bytes);
    add("isa.bytes_per_event", s.events > 0 ? s.bytes / s.events : 0);
    add("isa.replay_s", s.replay);
    add("arch.mix_s", s.mix - s.replay);
    add("arch.cache_s", s.cache - s.replay);
    add("arch.bpred_s", s.bpred - s.replay);
    add("arch.pipeline_s", s.pipeline - s.replay);
    add("obs.perf_s", s.perf - s.pipeline);
    add("prof.cct_s", s.cct - s.pipeline);
    add("prof.sample_s", s.sample - s.pipeline);
    add("prof.observers_x",
        s.pipeline > 0 ? (s.perf + s.cct + s.sample) / s.pipeline : 0);
}

/** Set a ledger entry that fillLayers() left at its default. */
void
setLayer(Rep &rep, const char *name, double v)
{
    for (auto &kv : rep.layers) {
        if (kv.first == name) {
            kv.second = v;
            return;
        }
    }
    rep.layers.emplace_back(name, v);
}

// ---------------------------------------------------------------------
// sweep_cold

/**
 * fig04 (64K split L1s) + btb points, in an order shuffled by the
 * seed (results are order-independent). Each extractor also reports
 * the recorded stream's guest checksum, so every point checks the
 * stream it consumed.
 */
std::vector<sweep::SweepPoint>
sweepGrid(std::uint64_t seed)
{
    std::vector<sweep::SweepPoint> grid = sweep::buildFig04Grid();
    for (sweep::SweepPoint &p : sweep::buildBtbGrid())
        grid.push_back(std::move(p));
    XorShift64 rng(seed * 2654435761u + 1);
    for (std::size_t i = grid.size(); i > 1; --i)
        std::swap(grid[i - 1], grid[rng.nextBounded(i)]);
    for (sweep::SweepPoint &p : grid) {
        p.extract = [inner = std::move(p.extract)](
                        TraceSink &sink, const RecordedRun &run) {
            std::vector<sweep::Metric> m = inner(sink, run);
            m.push_back({"guest_checksum",
                         static_cast<double>(run.result.exitValue)});
            m.push_back({"guest_output_fnv",
                         static_cast<double>(
                             fnv1a(run.result.output) >> 11)});
            return m;
        };
    }
    return grid;
}

Rep
runSweepCold(Ctx &ctx)
{
    Rep rep;
    const std::vector<sweep::SweepPoint> grid = sweepGrid(ctx.seed);
    sweep::SweepOptions opt;
    opt.jobs = 1;
    // Traced runs get one span per trace group (record + replay): with
    // one worker the groups run back to back between progress calls.
    std::unique_ptr<LayerTrace::Span> group;
    if (ctx.traced) {
        opt.onProgress = [&](const sweep::SweepProgress &pr) {
            group.reset();
            if (pr.groupsDone < pr.groupsTotal) {
                group = std::make_unique<LayerTrace::Span>(
                    ctx.trace, "sweep.group");
            }
        };
    }
    sweep::SweepEngine engine(opt);
    if (!ctx.startTimed(rep))
        return rep;

    sweep::SweepResult result;
    double runS = 0;
    {
        LayerTrace::Span root(ctx.trace, "sweep_cold");
        runS = timed(ctx.trace, "sweep.run", [&] {
            if (ctx.traced) {
                group = std::make_unique<LayerTrace::Span>(
                    ctx.trace, "sweep.group");
            }
            result = engine.run(grid);
            group.reset();
        });
    }
    ctx.stopTimed(rep);

    for (const sweep::PointResult &p : result.points) {
        Op op;
        op.id = p.label;
        op.ok = p.ok && result.jobs == 1;
        op.error = p.error;
        op.values.emplace_back("events",
                               static_cast<double>(p.traceEvents));
        for (const sweep::Metric &m : p.metrics)
            op.values.emplace_back(m.name, m.value);
        rep.ops.push_back(std::move(op));
    }
    if (ctx.traced) {
        setLayer(rep, "sweep.run_s", runS);
        setLayer(rep, "sweep.recordings",
                 static_cast<double>(result.traces.recordings));
        setLayer(rep, "sweep.points",
                 static_cast<double>(result.points.size()));
    }
    return rep;
}

// ---------------------------------------------------------------------
// profile_replay

/** The two recorded streams: one interpreted, one JIT. */
std::vector<sweep::TraceKey>
profileKeys()
{
    return {sweep::traceKey("compress", sweep::ExecMode::interp()),
            sweep::traceKey("mpeg", sweep::ExecMode::jit())};
}

std::string
keyLabel(const sweep::TraceKey &k)
{
    return k.workload + "/" + k.mode.id();
}

void
addPipelineValues(Op &op, const PipelineSim &pipe)
{
    op.values.emplace_back("cycles", static_cast<double>(pipe.cycles()));
    op.values.emplace_back("insts",
                           static_cast<double>(pipe.instructions()));
    op.values.emplace_back("mispredicts",
                           static_cast<double>(pipe.mispredicts()));
    op.values.emplace_back(
        "icache_misses",
        static_cast<double>(pipe.icache().stats().misses()));
    op.values.emplace_back(
        "dcache_misses",
        static_cast<double>(pipe.dcache().stats().misses()));
}

/** A profiler's cycle total must equal the pipeline's cycles. */
void
conserve(Op &op, const char *what, std::uint64_t total,
         const PipelineSim &pipe)
{
    op.values.emplace_back(what, static_cast<double>(total));
    if (total != pipe.cycles()) {
        op.ok = false;
        op.error = std::string(what) + " " + std::to_string(total)
            + " != pipeline cycles " + std::to_string(pipe.cycles());
    }
}

Rep
runProfileReplay(Ctx &ctx)
{
    Rep rep;
    std::vector<RecordedRun> recs;
    for (const sweep::TraceKey &k : profileKeys())
        recs.push_back(recordWorkload(k.toRunSpec()));
    prof::SampleOptions sopt;
    sopt.seed = ctx.seed + 1;
    if (!ctx.startTimed(rep))
        return rep;

    std::vector<Op> ops;
    {
        LayerTrace::Span root(ctx.trace, "profile_replay");
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const RecordedRun &rec = recs[i];
            const std::string base = keyLabel(profileKeys()[i]);
            {
                LayerTrace::Span span(ctx.trace, "arch.pipeline");
                PipelineSim pipe{PipelineConfig{}};
                rec.trace->replay(pipe);
                Op op;
                op.id = base + "/pipeline";
                addPipelineValues(op, pipe);
                ops.push_back(std::move(op));
            }
            {
                LayerTrace::Span span(ctx.trace, "obs.perf");
                obs::AttributedPipeline p(PipelineConfig{}, rec.methods);
                rec.trace->replay(p);
                Op op;
                op.id = base + "/perf";
                addPipelineValues(op, p.pipeline());
                conserve(op, "perf_cycles", p.perf().totals().cycles(),
                         p.pipeline());
                ops.push_back(std::move(op));
            }
            {
                LayerTrace::Span span(ctx.trace, "prof.cct");
                prof::CctPipeline p(PipelineConfig{}, rec.methods);
                rec.trace->replay(p);
                Op op;
                op.id = base + "/cct";
                addPipelineValues(op, p.pipeline());
                conserve(op, "cct_cycles", p.cct().totalCycles(),
                         p.pipeline());
                ops.push_back(std::move(op));
            }
            {
                LayerTrace::Span span(ctx.trace, "prof.sample");
                prof::SamplePipeline p(PipelineConfig{}, rec.methods,
                                       sopt);
                rec.trace->replay(p);
                Op op;
                op.id = base + "/sample";
                addPipelineValues(op, p.pipeline());
                conserve(op, "sample_clock", p.sampler().clockTotal(),
                         p.pipeline());
                if (p.sampler().samples() == 0) {
                    op.ok = false;
                    op.error = "sampler took no samples";
                }
                ops.push_back(std::move(op));
            }
        }
    }
    ctx.stopTimed(rep);

    // Every op also checks the guest result of the stream it replayed
    // (four models per stream, in stream order).
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const RecordedRun &rec = recs[k / 4];
        ops[k].values.emplace_back(
            "guest_checksum", static_cast<double>(rec.result.exitValue));
        ops[k].values.emplace_back(
            "guest_output_fnv",
            static_cast<double>(fnv1a(rec.result.output) >> 11));
        ops[k].values.emplace_back(
            "events", static_cast<double>(rec.trace->size()));
    }
    rep.ops = std::move(ops);
    return rep;
}

// ---------------------------------------------------------------------
// check_fuzz

/** First generator seed of the range --seed selects (disjoint ranges). */
std::uint64_t
fuzzSeedBase(std::uint64_t seed)
{
    return 1 + seed * kFuzzSeeds;
}

check::FuzzOptions
fuzzOptions(std::uint64_t seed)
{
    check::FuzzOptions opt;
    opt.seedBase = fuzzSeedBase(seed);
    opt.numSeeds = kFuzzSeeds;
    opt.jobs = 1;
    opt.arg = kFuzzArg;
    return opt;
}

Rep
runCheckFuzz(Ctx &ctx)
{
    Rep rep;
    const check::FuzzOptions opt = fuzzOptions(ctx.seed);
    if (!ctx.startTimed(rep))
        return rep;

    check::FuzzReport report;
    {
        LayerTrace::Span root(ctx.trace, "check_fuzz");
        LayerTrace::Span span(ctx.trace, "check.fuzz");
        report = check::runFuzzCampaign(opt);
    }
    ctx.stopTimed(rep);

    for (std::uint32_t i = 0; i < opt.numSeeds; ++i) {
        Op op;
        op.id = "seed " + std::to_string(opt.seedBase + i);
        op.ok = report.seedsRun == opt.numSeeds;
        for (const check::FuzzFailure &f : report.failures) {
            if (f.seed == opt.seedBase + i) {
                op.ok = false;
                op.error = f.kind + ": " + f.detail;
            }
        }
        rep.ops.push_back(std::move(op));
    }
    return rep;
}

// ---------------------------------------------------------------------
// Ledgers per workload (--trace 1)

void
ledgerSweepCold(Ctx &ctx, Rep &rep)
{
    LedgerSums sums;
    double setupS = 0, setupMinflt = 0;
    const std::vector<sweep::SweepPoint> grid = sweepGrid(ctx.seed);
    {
        LayerTrace::Span root(ctx.trace, "ledger");
        ledgerSetupProbe(ctx.trace, setupS, setupMinflt);
        std::vector<std::string> seen;
        for (const sweep::SweepPoint &p : grid) {
            const std::string key = p.key.str();
            if (std::find(seen.begin(), seen.end(), key) != seen.end())
                continue;
            seen.push_back(key);
            const Stream s = suiteStream(p.key);
            ledgerStream(ctx.trace, s, sums, [&](const RecordedRun &rec) {
                std::vector<std::unique_ptr<TraceSink>> sinks;
                for (const sweep::SweepPoint &q : grid) {
                    if (q.key.str() == key)
                        sinks.push_back(q.makeSink(rec));
                }
                return sinks;
            });
        }
    }
    fillLayers(rep, sums, setupS, setupMinflt);
    double runS = 0;
    for (const auto &kv : rep.layers) {
        if (kv.first == "sweep.run_s")
            runS = kv.second;
    }
    setLayer(rep, "sweep.overhead_s", runS - sums.record - sums.sweepReplay);
}

void
ledgerProfileReplay(Ctx &ctx, Rep &rep)
{
    LedgerSums sums;
    double setupS = 0, setupMinflt = 0;
    {
        LayerTrace::Span root(ctx.trace, "ledger");
        ledgerSetupProbe(ctx.trace, setupS, setupMinflt);
        for (const sweep::TraceKey &k : profileKeys())
            ledgerStream(ctx.trace, suiteStream(k), sums, nullptr);
    }
    fillLayers(rep, sums, setupS, setupMinflt);
}

void
ledgerCheckFuzz(Ctx &ctx, Rep &rep)
{
    LedgerSums sums;
    double setupS = 0, setupMinflt = 0;
    double progenS = 0, diffS = 0, runs = 0;
    const check::FuzzOptions opt = fuzzOptions(ctx.seed);
    {
        LayerTrace::Span root(ctx.trace, "ledger");
        ledgerSetupProbe(ctx.trace, setupS, setupMinflt);
        for (std::uint32_t i = 0; i < opt.numSeeds; ++i) {
            const std::uint64_t seed = opt.seedBase + i;
            Program prog;
            progenS += timed(ctx.trace, "check.progen", [&] {
                prog = check::generateProgram(seed, opt.gen);
            });
            for (const check::DiffMode mode : check::allDiffModes()) {
                diffS += timed(ctx.trace, "check.diff", [&] {
                    check::runDigest(prog, mode, opt.arg);
                });
                ++runs;
                Stream s;
                s.label = "seed " + std::to_string(seed) + "/"
                    + check::diffModeName(mode);
                s.build = [&prog] { return prog; };
                s.config = [mode] { return check::makeDiffConfig(mode); };
                s.arg = opt.arg;
                s.mustComplete = false;
                ledgerStream(ctx.trace, s, sums, nullptr);
            }
        }
    }
    fillLayers(rep, sums, setupS, setupMinflt);
    setLayer(rep, "check.progen_s", progenS);
    setLayer(rep, "check.diff_s", diffS);
    setLayer(rep, "check.runs", runs);
}

// ---------------------------------------------------------------------
// Output

std::string
num(double v)
{
    return obs::jsonNumber(v);
}

void
printRep(const std::string &workload, std::uint64_t seed, bool traced,
         const Rep &rep)
{
    const Usage u = usageNow();
    std::ostringstream os;
    os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
       << ",\"trace\":" << (traced ? 1 : 0)
       << ",\"setup_s\":" << num(rep.setupS)
       << ",\"wall_s\":" << num(rep.wallS)
       << ",\"cpu_s\":" << num(rep.cpuS)
       << ",\"peak_rss_mb\":"
       << num(static_cast<double>(u.maxRssKb) / 1024.0)
       << ",\"context\":{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"workers\":1,\"build_type\":\""
       << obs::jsonEscape(LAYERBENCH_BUILD_TYPE) << "\",\"compiler\":\""
       << obs::jsonEscape(LAYERBENCH_COMPILER) << "\"}"
       << ",\"ops\":[";
    for (std::size_t i = 0; i < rep.ops.size(); ++i) {
        const Op &op = rep.ops[i];
        os << (i ? "," : "") << "{\"id\":\"" << obs::jsonEscape(op.id)
           << "\",\"ok\":" << (op.ok ? "true" : "false")
           << ",\"error\":\"" << obs::jsonEscape(op.error)
           << "\",\"values\":{";
        for (std::size_t j = 0; j < op.values.size(); ++j) {
            os << (j ? "," : "") << "\""
               << obs::jsonEscape(op.values[j].first)
               << "\":" << num(op.values[j].second);
        }
        os << "}}";
    }
    os << "],\"layers\":{";
    for (std::size_t i = 0; i < rep.layers.size(); ++i) {
        os << (i ? "," : "") << "\"" << rep.layers[i].first
           << "\":" << num(rep.layers[i].second);
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "layerbench: " << msg
              << "\nusage: layerbench sweep_cold|profile_replay|"
                 "check_fuzz --seed N [--trace 0|1]\n"
                 "                  [--launched-ns T] [--setup-only]"
                 " [--trace-json FILE]\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || end == v.c_str() || *end != '\0')
        usage(flag + " expects a non-negative integer");
    return x;
}

} // namespace

int
main(int argc, char **argv)
{
    const obs::SteadyTime entered = obs::steadyNow();
    if (argc < 2)
        usage("missing workload");
    const std::string workload = argv[1];
    std::uint64_t seed = 0;
    bool haveSeed = false, traced = false, setupOnly = false;
    std::string traceJson;
    obs::SteadyTime launched = entered;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        if (a == "--seed") {
            seed = parseU64(a, next());
            haveSeed = true;
        } else if (a == "--trace") {
            const std::uint64_t t = parseU64(a, next());
            if (t > 1)
                usage("--trace expects 0 or 1");
            traced = t == 1;
        } else if (a == "--launched-ns") {
            launched = obs::SteadyTime(std::chrono::nanoseconds(
                parseU64(a, next())));
        } else if (a == "--setup-only") {
            setupOnly = true;
        } else if (a == "--trace-json") {
            traceJson = next();
        } else {
            usage("unknown argument " + a);
        }
    }
    if (!haveSeed)
        usage("--seed is required");

    Ctx ctx(seed, traced, setupOnly, launched);
    try {
        Rep rep;
        if (workload == "sweep_cold") {
            rep = runSweepCold(ctx);
            if (traced && !setupOnly)
                ledgerSweepCold(ctx, rep);
        } else if (workload == "profile_replay") {
            rep = runProfileReplay(ctx);
            if (traced && !setupOnly)
                ledgerProfileReplay(ctx, rep);
        } else if (workload == "check_fuzz") {
            rep = runCheckFuzz(ctx);
            if (traced && !setupOnly)
                ledgerCheckFuzz(ctx, rep);
        } else {
            usage("unknown workload " + workload);
        }
        if (traced) {
            // Rows of layers this workload never enters read 0.
            for (const char *name :
                 {"sweep.run_s", "sweep.overhead_s", "sweep.recordings",
                  "sweep.points", "check.progen_s", "check.diff_s",
                  "check.runs"}) {
                bool have = false;
                for (const auto &kv : rep.layers)
                    have = have || kv.first == name;
                if (!have)
                    rep.layers.emplace_back(name, 0.0);
            }
            ctx.trace.printTables(std::cerr);
            ctx.trace.writeJson(traceJson);
        }
        printRep(workload, seed, traced, rep);
    } catch (const std::exception &e) {
        std::cerr << "layerbench: " << workload << ": " << e.what() << "\n";
        return 1;
    }
    return 0;
}
