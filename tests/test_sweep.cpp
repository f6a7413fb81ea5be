/**
 * @file
 * Sweep-engine contract tests: parallel results are bit-identical to
 * live serial runs, to the serial reference behind `--compare-serial`
 * (which must also catch a changed metric or ok flag) and to replaying
 * a recording of each stream into the same sinks — profiler reports
 * included — and faults poison only their own point (with the same
 * message at any job count).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "arch/bpred/predictors.h"
#include "arch/cache/cache.h"
#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "isa/trace_buffer.h"
#include "isa/trace_io.h"
#include "sweep/grids.h"
#include "sweep/observers.h"
#include "sweep/serial_reference.h"
#include "sweep/sweep.h"
#include "vm/runtime/vm_error.h"

namespace jrs::sweep {
namespace {

/** Unique-per-test temp dir, removed at scope exit. */
struct TempDir {
    explicit TempDir(const std::string &leaf)
        : path(std::string(::testing::TempDir()) + leaf)
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

/** tinyArg key so every recorded run stays sub-second. */
TraceKey
tinyKey(const std::string &workload, ExecMode mode)
{
    const WorkloadInfo *w = findWorkload(workload);
    EXPECT_NE(w, nullptr) << workload;
    return traceKey(workload, mode, w->tinyArg);
}

CacheConfig
l1(std::uint32_t assoc)
{
    return {8 * 1024, 32, assoc, true};
}

/** Cache point measuring I/D miss rates at one associativity. */
SweepPoint
cachePoint(const std::string &label, const TraceKey &key,
           std::uint32_t assoc)
{
    return makePoint<CacheSink>(
        label, key,
        [assoc] {
            return std::make_unique<CacheSink>(l1(assoc), l1(assoc));
        },
        [](CacheSink &sink, const RecordedRun &) {
            return std::vector<Metric>{
                {"i_miss", sink.icache().stats().missRate()},
                {"d_miss", sink.dcache().stats().missRate()},
            };
        });
}

SweepPoint
bpredPoint(const std::string &label, const TraceKey &key)
{
    return makePoint<PredictorBank>(
        label, key,
        [] { return std::make_unique<PredictorBank>(); },
        [](PredictorBank &sink, const RecordedRun &) {
            std::vector<Metric> out;
            for (const PredictorResult &r : sink.results())
                out.push_back({r.name, r.mispredictRate()});
            out.push_back(
                {"btb_misses",
                 static_cast<double>(sink.btbMisses())});
            return out;
        });
}

SweepPoint
pipelinePoint(const std::string &label, const TraceKey &key)
{
    return makePoint<PipelineSim>(
        label, key,
        [] { return std::make_unique<PipelineSim>(PipelineConfig{}); },
        [](PipelineSim &sink, const RecordedRun &) {
            return std::vector<Metric>{
                {"ipc", sink.ipc()},
                {"cycles", static_cast<double>(sink.cycles())},
                {"mispredicts",
                 static_cast<double>(sink.mispredicts())},
            };
        });
}

/** A grid mixing cache, bpred, and pipeline models over four streams. */
std::vector<SweepPoint>
mixedGrid()
{
    std::vector<SweepPoint> grid;
    for (const char *w : {"compress", "db"}) {
        for (const bool jit : {false, true}) {
            const TraceKey key = tinyKey(
                w, jit ? ExecMode::jit() : ExecMode::interp());
            const std::string base =
                std::string(w) + "/" + (jit ? "jit" : "interp");
            grid.push_back(cachePoint(base + "/assoc1", key, 1));
            grid.push_back(cachePoint(base + "/assoc4", key, 4));
            grid.push_back(bpredPoint(base + "/bpred", key));
            grid.push_back(pipelinePoint(base + "/pipeline", key));
        }
    }
    return grid;
}

/**
 * Run one point the pre-sweep way: attach its sink to a live,
 * serial VM run and extract the same metrics.
 */
std::vector<Metric>
liveSerialMetrics(const SweepPoint &p)
{
    // The factories in these grids ignore their RecordedRun argument
    // (plain cache/bpred/pipeline models), so an empty recording
    // stands in and the sink can observe the run live.
    const RecordedRun none;
    std::unique_ptr<TraceSink> sink = p.makeSink(none);
    RunSpec spec = p.key.toRunSpec();
    spec.sink = sink.get();
    RecordedRun run = recordWorkload(spec);
    return p.extract(*sink, run);
}

/** Sweep @p grid on @p jobs workers. */
SweepResult
sweepOn(const std::vector<SweepPoint> &grid, unsigned jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    return SweepEngine(opts).run(grid);
}

TEST(Sweep, ParallelResultsBitIdenticalToLiveSerial)
{
    const std::vector<SweepPoint> grid = mixedGrid();

    SweepOptions opt;
    opt.jobs = 4;
    SweepEngine engine(opt);
    const SweepResult result = engine.run(grid);

    ASSERT_EQ(result.points.size(), grid.size());
    ASSERT_TRUE(result.allOk());
    // Deterministic ordering: slot i belongs to grid point i no
    // matter which worker computed it.
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(result.points[i].label, grid[i].label);

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::vector<Metric> serial = liveSerialMetrics(grid[i]);
        const PointResult &par = result.points[i];
        ASSERT_EQ(par.metrics.size(), serial.size()) << par.label;
        for (std::size_t m = 0; m < serial.size(); ++m) {
            EXPECT_EQ(par.metrics[m].name, serial[m].name)
                << par.label;
            // Exact: same integer counters fed to the same float
            // arithmetic must give the same bits.
            EXPECT_EQ(par.metrics[m].value, serial[m].value)
                << par.label << "." << serial[m].name;
        }
    }

    // Four unique streams, one VM run each.
    EXPECT_EQ(result.traces.recordings, 4u);
}

TEST(Sweep, SerialReferenceHoldsTheEngineBitForBit)
{
    const std::vector<SweepPoint> grid = mixedGrid();
    const SweepResult swept = sweepOn(grid, 4);
    ASSERT_TRUE(swept.allOk());
    const SweepResult reference = runSerialReference(grid);
    EXPECT_EQ(reference.traces.recordings, 4u);
    EXPECT_TRUE(compareResults(swept, reference).empty());
    std::ostringstream out, err;
    EXPECT_TRUE(compareSerial(grid, swept, out, err)) << err.str();
    EXPECT_NE(out.str().find("all 16 points bit-identical"),
              std::string::npos)
        << out.str();

    // One metric one ulp off: the check fails and names that point.
    SweepResult nudged = swept;
    Metric &m = nudged.points[5].metrics.back();
    m.value = std::nextafter(m.value, HUGE_VAL);
    const std::vector<std::string> diffs =
        compareResults(nudged, reference);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].rfind(nudged.points[5].label + ": metric "
                                 + m.name, 0),
              0u)
        << diffs[0];
    err.str("");
    EXPECT_FALSE(compareSerial(grid, nudged, out, err));
    EXPECT_NE(err.str().find("MISMATCH " + nudged.points[5].label),
              std::string::npos)
        << err.str();

    // One point's ok flag flipped.
    SweepResult flipped = swept;
    flipped.points[10].ok = false;
    const std::vector<std::string> flips =
        compareResults(flipped, reference);
    ASSERT_EQ(flips.size(), 1u);
    EXPECT_EQ(flips[0].rfind(flipped.points[10].label + ": ok", 0), 0u)
        << flips[0];
}

TEST(Sweep, ThrowingSinkFactoryPoisonsOnlyItsPoint)
{
    const TraceKey key = tinyKey("compress", ExecMode::interp());
    std::vector<SweepPoint> grid;
    grid.push_back(cachePoint("before", key, 1));
    grid.push_back(cachePoint("bad", key, 2));
    grid[1].makeSink =
        [](const RecordedRun &) -> std::unique_ptr<TraceSink> {
        throw std::runtime_error("factory exploded");
    };
    grid.push_back(cachePoint("after", key, 4));

    SweepEngine engine;
    const SweepResult result = engine.run(grid);

    EXPECT_TRUE(result.points[0].ok);
    EXPECT_TRUE(result.points[2].ok);
    EXPECT_FALSE(result.points[1].ok);
    EXPECT_NE(result.points[1].error.find("factory exploded"),
              std::string::npos)
        << result.points[1].error;
    EXPECT_FALSE(result.allOk());
    // The shared stream was still recorded and consumed by the others.
    EXPECT_GT(result.points[0].traceEvents, 0u);
    EXPECT_EQ(result.points[0].traceEvents,
              result.points[2].traceEvents);
    // The serial reference isolates factories the same way.
    EXPECT_TRUE(compareResults(result, runSerialReference(grid)).empty());
}

/** Sink that dies mid-stream; the fan-out must contain the blast. */
class ExplodingSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &) override {
        if (++seen_ == 100)
            throw std::runtime_error("sink exploded");
    }

  private:
    std::uint64_t seen_ = 0;
};

TEST(Sweep, ThrowingSinkPoisonsOnlyItsPoint)
{
    const TraceKey key = tinyKey("compress", ExecMode::interp());
    std::vector<SweepPoint> grid;
    grid.push_back(cachePoint("good", key, 1));
    grid.push_back(makePoint<ExplodingSink>(
        "dies", key, [] { return std::make_unique<ExplodingSink>(); },
        [](ExplodingSink &, const RecordedRun &) {
            return std::vector<Metric>{};
        }));
    grid.push_back(cachePoint("also-good", key, 4));

    // Parallel and serial sweeps detach the sink at the same event
    // with the same message.
    const SweepResult live = sweepOn(grid, 2);
    const SweepResult serial = sweepOn(grid, 1);
    for (const SweepResult *r : {&live, &serial}) {
        EXPECT_TRUE(r->points[0].ok);
        EXPECT_TRUE(r->points[2].ok);
        EXPECT_FALSE(r->points[1].ok);
        EXPECT_EQ(r->points[1].error,
                  "sink failed at event 100: sink exploded");
    }

    // The surviving points still match a live serial run.
    for (const std::size_t i : {0u, 2u}) {
        const std::vector<Metric> ref = liveSerialMetrics(grid[i]);
        for (const SweepResult *r : {&live, &serial}) {
            ASSERT_EQ(r->points[i].metrics.size(), ref.size());
            for (std::size_t m = 0; m < ref.size(); ++m) {
                EXPECT_EQ(r->points[i].metrics[m].value, ref[m].value)
                    << r->points[i].label << "." << ref[m].name;
            }
        }
    }
}

TEST(Sweep, RecordingFailurePoisonsOnlyItsGroup)
{
    std::vector<SweepPoint> grid;
    grid.push_back(
        cachePoint("good", tinyKey("compress", ExecMode::interp()), 1));
    TraceKey bogus = tinyKey("compress", ExecMode::interp());
    bogus.workload = "no-such-workload";
    grid.push_back(cachePoint("bad", bogus, 1));

    SweepEngine engine;
    const SweepResult result = engine.run(grid);

    EXPECT_TRUE(result.points[0].ok);
    EXPECT_FALSE(result.points[1].ok);
    EXPECT_NE(result.points[1].error.find("recording failed"),
              std::string::npos)
        << result.points[1].error;
}

TEST(Sweep, TraceBufferDiskRoundTripIsLossless)
{
    TempDir dir("jrs_sweep_roundtrip");
    std::filesystem::create_directories(dir.path);
    const std::string path = dir.path + "/stream.jrstrace";

    const TraceKey key = tinyKey("compress", ExecMode::jit());
    const RecordedRun run = recordWorkload(key.toRunSpec());
    ASSERT_GT(run.trace->size(), 0u);

    {
        TraceFileWriter writer(path);
        run.trace->replay(writer);
    }
    TraceBuffer loaded;
    replayTraceFile(path, loaded);

    ASSERT_EQ(loaded.size(), run.trace->size());
    for (std::uint64_t i = 0; i < loaded.size(); ++i) {
        const TraceEvent a = run.trace->at(i);
        const TraceEvent b = loaded.at(i);
        ASSERT_EQ(a.pc, b.pc) << "event " << i;
        ASSERT_EQ(a.mem, b.mem) << "event " << i;
        ASSERT_EQ(a.target, b.target) << "event " << i;
        ASSERT_EQ(a.kind, b.kind) << "event " << i;
        ASSERT_EQ(a.phase, b.phase) << "event " << i;
        ASSERT_EQ(a.taken, b.taken) << "event " << i;
        ASSERT_EQ(a.memSize, b.memSize) << "event " << i;
        ASSERT_EQ(a.rd, b.rd) << "event " << i;
        ASSERT_EQ(a.rs1, b.rs1) << "event " << i;
        ASSERT_EQ(a.rs2, b.rs2) << "event " << i;
    }

    // Replaying the loaded copy gives the same model results as the
    // original stream.
    CacheSink fromOriginal(l1(2), l1(2));
    CacheSink fromDisk(l1(2), l1(2));
    run.trace->replay(fromOriginal);
    loaded.replay(fromDisk);
    EXPECT_EQ(fromOriginal.icache().stats().misses(),
              fromDisk.icache().stats().misses());
    EXPECT_EQ(fromOriginal.dcache().stats().misses(),
              fromDisk.dcache().stats().misses());
}

/** Every point of the named grids that replay-vs-live must agree on,
    at tinyArg so the whole set stays within seconds. */
std::vector<SweepPoint>
tinyNamedGrids()
{
    std::vector<SweepPoint> grid;
    for (const char *name :
         {"fig04", "fig07", "fig08", "btb", "gc", "code_cache"}) {
        const NamedGrid *g = findGrid(name);
        EXPECT_NE(g, nullptr) << name;
        for (SweepPoint &p : g->build()) {
            p.key.arg = findWorkload(p.key.workload)->tinyArg;
            grid.push_back(std::move(p));
        }
    }
    return grid;
}

/** Every report of one profiled stream, as one comparable string. */
std::string
reportText(const obs::ObsReports &r, const std::string &label)
{
    std::string out = r.perf.toJson() + r.cct.toJson() + r.sample.toJson();
    for (const prof::FoldedLine &l : r.cct.folded(label))
        out += l.stack + " " + std::to_string(l.value) + "\n";
    return out;
}

TEST(Sweep, LiveGroupsBitIdenticalToRecordedOverNamedGrids)
{
    const std::vector<SweepPoint> grid = tinyNamedGrids();

    // Live, with every profiler riding every group. Each group's
    // reports are also kept apart, keyed by stream.
    obs::ObsCli cli;
    cli.perfJson = "unused.perf.json";
    cli.cctJson = "unused.cct.json";
    cli.sampleJson = "unused.sample.json";
    obs::ObsReports all;
    std::map<std::string, std::string> liveReports;
    SweepOptions opts;
    opts.jobs = 2;
    attachObservers(opts, cli, all);
    opts.groupObserved = [&, collect = opts.groupObserved](
                             const TraceKey &key, const RecordedRun &run,
                             TraceSink &sink) {
        collect(key, run, sink);
        obs::ObsReports one;
        static_cast<GroupPipeline &>(sink).observers().addTo(one,
                                                             key.str());
        liveReports[key.str()] = reportText(one, key.str());
    };
    const SweepResult live = SweepEngine(opts).run(grid);
    ASSERT_EQ(live.points.size(), grid.size());
    EXPECT_TRUE(live.allOk());

    // The reference records one stream at a time (recordWorkload),
    // builds the group's sinks and profiler pipeline on the
    // recording's end-of-run method map, and replays it into them.
    std::vector<std::vector<std::size_t>> byKey;
    {
        std::map<std::string, std::size_t> slot;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            auto [it, fresh] =
                slot.try_emplace(grid[i].key.str(), byKey.size());
            if (fresh)
                byKey.emplace_back();
            byKey[it->second].push_back(i);
        }
    }
    EXPECT_EQ(live.traces.recordings, byKey.size());
    EXPECT_EQ(all.perf.size(), byKey.size());
    EXPECT_EQ(all.cct.size(), byKey.size());
    EXPECT_EQ(all.sample.size(), byKey.size());
    std::size_t unbounded = 0;
    for (const std::vector<std::size_t> &members : byKey) {
        const TraceKey &key = grid[members[0]].key;
        const RecordedRun rec = recordWorkload(key.toRunSpec());
        std::vector<std::unique_ptr<TraceSink>> sinks;
        MultiSink fanout;
        for (const std::size_t i : members) {
            sinks.push_back(grid[i].makeSink(rec));
            fanout.add(sinks.back().get());
        }
        GroupPipeline observer(rec.methods, cli);
        fanout.add(&observer);
        rec.trace->replay(fanout);

        for (std::size_t j = 0; j < members.size(); ++j) {
            const PointResult &a = live.points[members[j]];
            const std::vector<Metric> b =
                grid[members[j]].extract(*sinks[j], rec);
            ASSERT_TRUE(a.ok) << a.label << ": " << a.error;
            EXPECT_GT(a.traceEvents, 0u) << a.label;
            EXPECT_EQ(a.traceEvents, rec.result.totalEvents) << a.label;
            ASSERT_EQ(a.metrics.size(), b.size()) << a.label;
            for (std::size_t m = 0; m < b.size(); ++m) {
                EXPECT_EQ(a.metrics[m].name, b[m].name) << a.label;
                EXPECT_EQ(a.metrics[m].value, b[m].value)
                    << a.label << "." << b[m].name;
            }
        }

        // Without eviction the end-of-run map names every event as
        // the followed map does, so every report is byte-identical.
        // Under eviction the recorded map misnames evicted code
        // (Attribution.FollowedMapNamesTheExecutingMethodUnderEviction).
        if (key.codeCache.capacityBytes != 0)
            continue;
        ++unbounded;
        obs::ObsReports ref;
        observer.observers().addTo(ref, key.str());
        EXPECT_EQ(liveReports[key.str()], reportText(ref, key.str()))
            << key.str();
    }
    EXPECT_GT(unbounded, 0u);
}

/** Counts the events it sees into a counter that outlives it. */
class TallySink : public TraceSink {
  public:
    explicit TallySink(std::shared_ptr<std::uint64_t> seen)
        : seen_(std::move(seen)) {}
    void onEvent(const TraceEvent &) override { ++*seen_; }

  private:
    std::shared_ptr<std::uint64_t> seen_;
};

TEST(Sweep, FailingVmPoisonsEveryMemberLiveAndRecorded)
{
    // A heap too small for compress: the VM fails mid-run, after the
    // live sinks have already seen part of the stream.
    TraceKey starved = tinyKey("compress", ExecMode::jit());
    starved.heapBytes = 64 << 10;
    const TraceKey fine = tinyKey("hello", ExecMode::interp());
    auto seen = std::make_shared<std::uint64_t>(0);
    std::vector<SweepPoint> grid;
    grid.push_back(cachePoint("starved/c", starved, 1));
    grid.push_back(bpredPoint("starved/b", starved));
    grid.push_back(makePoint<TallySink>(
        "starved/tally", starved,
        [seen] { return std::make_unique<TallySink>(seen); },
        [](TallySink &, const RecordedRun &) {
            return std::vector<Metric>{};
        }));
    grid.push_back(cachePoint("starved/bad-factory", starved, 2));
    grid[3].makeSink =
        [](const RecordedRun &) -> std::unique_ptr<TraceSink> {
        throw std::runtime_error("factory exploded");
    };
    grid.push_back(cachePoint("fine", fine, 1));

    const SweepResult live = sweepOn(grid, 2);
    EXPECT_GT(*seen, 0u);
    const SweepResult serial = sweepOn(grid, 1);
    for (const SweepResult *r : {&live, &serial}) {
        EXPECT_TRUE(r->points[4].ok);
        for (const std::size_t i : {0u, 1u, 2u, 3u}) {
            const PointResult &p = r->points[i];
            EXPECT_FALSE(p.ok) << p.label;
            EXPECT_EQ(p.error.rfind("recording failed: ", 0), 0u)
                << p.label << ": " << p.error;
            EXPECT_EQ(p.error, serial.points[i].error) << p.label;
        }
    }
}

TEST(Sweep, MalformedGridThrows)
{
    std::vector<SweepPoint> grid(1);
    grid[0].label = "empty";
    grid[0].key = tinyKey("compress", ExecMode::interp());
    SweepEngine engine;
    EXPECT_THROW(engine.run(grid), VmError);
}

} // namespace
} // namespace jrs::sweep
