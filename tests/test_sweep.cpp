/**
 * @file
 * Sweep-engine contract tests: parallel results are bit-identical to
 * live serial runs, live groups are bit-identical to recorded ones
 * and are taken exactly when nothing needs the recording, faults
 * poison only their own point (with the same message on both paths),
 * and a shared trace cache records each stream exactly once (memory
 * and disk).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "arch/bpred/predictors.h"
#include "arch/cache/cache.h"
#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "isa/trace_buffer.h"
#include "sweep/grids.h"
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

/** Sweep @p grid on a private engine (live) or a shared cache
    (record-then-replay). */
SweepResult
sweepOn(const std::vector<SweepPoint> &grid, bool recorded,
        unsigned jobs = 2)
{
    SweepOptions opts;
    opts.jobs = jobs;
    if (recorded)
        opts.cache = std::make_shared<TraceCache>();
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

    // Four unique streams, recorded once each, everything else served
    // from memory.
    EXPECT_EQ(result.traces.recordings, 4u);
    EXPECT_EQ(result.traces.diskLoads, 0u);
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

    // Live (private engine) and record-then-replay (shared cache)
    // detach the sink at the same event with the same message.
    const SweepResult live = sweepOn(grid, false);
    const SweepResult recorded = sweepOn(grid, true);
    for (const SweepResult *r : {&live, &recorded}) {
        EXPECT_TRUE(r->points[0].ok);
        EXPECT_TRUE(r->points[2].ok);
        EXPECT_FALSE(r->points[1].ok);
        EXPECT_EQ(r->points[1].error,
                  "sink failed at event 100: sink exploded");
    }

    // The surviving points still match a live serial run.
    for (const std::size_t i : {0u, 2u}) {
        const std::vector<Metric> serial = liveSerialMetrics(grid[i]);
        for (const SweepResult *r : {&live, &recorded}) {
            ASSERT_EQ(r->points[i].metrics.size(), serial.size());
            for (std::size_t m = 0; m < serial.size(); ++m) {
                EXPECT_EQ(r->points[i].metrics[m].value,
                          serial[m].value)
                    << r->points[i].label << "." << serial[m].name;
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

TEST(Sweep, RecordsEachStreamOncePerProcess)
{
    const TraceKey key = tinyKey("db", ExecMode::interp());
    std::vector<SweepPoint> grid;
    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        grid.push_back(cachePoint(
            "assoc" + std::to_string(assoc), key, assoc));
    }

    // Record-once is a property of a shared cache: a private engine
    // runs run-free groups live and keeps no stream.
    SweepOptions opts;
    opts.cache = std::make_shared<TraceCache>();
    SweepEngine engine(opts);
    const SweepResult first = engine.run(grid);
    EXPECT_TRUE(first.allOk());
    EXPECT_EQ(first.traces.recordings, 1u);

    // A second sweep over the same stream is pure replay.
    const SweepResult second = engine.run(grid);
    EXPECT_TRUE(second.allOk());
    EXPECT_EQ(second.traces.recordings, 0u);
    EXPECT_EQ(second.traces.memoryHits, 1u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(first.points[i].metrics[0].value,
                  second.points[i].metrics[0].value);
    }
}

TEST(Sweep, DiskCacheServesSecondProcess)
{
    TempDir dir("jrs_sweep_disk_cache");
    const TraceKey key = tinyKey("compress", ExecMode::jit());

    TraceCache writer(dir.path);
    const auto recorded = writer.get(key);
    EXPECT_EQ(writer.stats().recordings, 1u);
    ASSERT_NE(recorded->trace, nullptr);
    EXPECT_GT(recorded->trace->size(), 0u);

    // A fresh cache on the same directory stands in for a later
    // process: it must load, not re-record.
    TraceCache reader(dir.path);
    const auto loaded = reader.get(key);
    EXPECT_EQ(reader.stats().recordings, 0u);
    EXPECT_EQ(reader.stats().diskLoads, 1u);

    ASSERT_EQ(loaded->trace->size(), recorded->trace->size());
    EXPECT_EQ(loaded->result.exitValue, recorded->result.exitValue);
    EXPECT_EQ(loaded->result.totalEvents,
              recorded->result.totalEvents);
}

TEST(Sweep, TruncatedDiskTraceIsReRecorded)
{
    TempDir dir("jrs_sweep_truncated");
    const TraceKey key = tinyKey("compress", ExecMode::jit());
    const std::vector<SweepPoint> grid = {cachePoint("c", key, 2)};

    SweepOptions opts;
    opts.cacheDir = dir.path;
    const SweepResult first = SweepEngine(opts).run(grid);
    ASSERT_TRUE(first.allOk());
    EXPECT_EQ(first.traces.recordings, 1u);

    // Cut the stored stream mid-record, as an interrupted write would.
    const std::string path = dir.path + "/" + key.str() + ".jrstrace";
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);

    const SweepResult second = SweepEngine(opts).run(grid);
    ASSERT_TRUE(second.allOk());
    EXPECT_EQ(second.traces.diskLoads, 0u);
    EXPECT_EQ(second.traces.recordings, 1u);
    EXPECT_EQ(second.points[0].metric("i_miss"),
              first.points[0].metric("i_miss"));
    EXPECT_EQ(second.points[0].metric("d_miss"),
              first.points[0].metric("d_miss"));
    // The re-recording repaired the file for the next process.
    EXPECT_EQ(std::filesystem::file_size(path), size);

    // A corrupt phase tag keeps the size and the event count the
    // .meta sidecar records, so only decoding can catch it.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f,
                             static_cast<long>(kTraceHeaderBytes + 25),
                             SEEK_SET),
                  0);
        std::fputc(0xff, f);
        std::fclose(f);
    }
    const SweepResult third = SweepEngine(opts).run(grid);
    ASSERT_TRUE(third.allOk());
    EXPECT_EQ(third.traces.diskLoads, 0u);
    EXPECT_EQ(third.traces.recordings, 1u);
    EXPECT_EQ(third.points[0].metric("i_miss"),
              first.points[0].metric("i_miss"));
}

TEST(Sweep, TraceBufferDiskRoundTripIsLossless)
{
    TempDir dir("jrs_sweep_roundtrip");
    std::filesystem::create_directories(dir.path);
    const std::string path = dir.path + "/stream.jrstrace";

    const TraceKey key = tinyKey("compress", ExecMode::jit());
    const RecordedRun run = recordWorkload(key.toRunSpec());
    ASSERT_GT(run.trace->size(), 0u);

    run.trace->save(path);
    const TraceBuffer loaded = TraceBuffer::load(path);

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

TEST(Sweep, LiveGroupsBitIdenticalToRecordedOverNamedGrids)
{
    const std::vector<SweepPoint> grid = tinyNamedGrids();
    const SweepResult live = sweepOn(grid, false);
    ASSERT_EQ(live.points.size(), grid.size());
    EXPECT_TRUE(live.allOk());

    // The recorded side runs one stream per engine: a shared cache
    // keeps every stream it records until it is destroyed, and all of
    // these together would take gigabytes.
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
    std::vector<PointResult> recorded(grid.size());
    std::uint64_t recordings = 0;
    for (const std::vector<std::size_t> &members : byKey) {
        std::vector<SweepPoint> batch;
        for (const std::size_t i : members)
            batch.push_back(grid[i]);
        const SweepResult r = sweepOn(batch, true);
        recordings += r.traces.recordings;
        for (std::size_t j = 0; j < members.size(); ++j)
            recorded[members[j]] = r.points[j];
    }
    // Both paths run the VM once per distinct stream.
    EXPECT_EQ(live.traces.recordings, byKey.size());
    EXPECT_EQ(recordings, byKey.size());

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const PointResult &a = live.points[i];
        const PointResult &b = recorded[i];
        ASSERT_EQ(a.label, b.label);
        EXPECT_TRUE(b.ok) << b.label << ": " << b.error;
        EXPECT_GT(a.traceEvents, 0u) << a.label;
        EXPECT_EQ(a.traceEvents, b.traceEvents) << a.label;
        ASSERT_EQ(a.metrics.size(), b.metrics.size()) << a.label;
        for (std::size_t m = 0; m < a.metrics.size(); ++m) {
            EXPECT_EQ(a.metrics[m].name, b.metrics[m].name) << a.label;
            EXPECT_EQ(a.metrics[m].value, b.metrics[m].value)
                << a.label << "." << a.metrics[m].name;
        }
    }
}

/** Counting point that also reports whether it saw a recorded trace. */
template <bool ReadsRun>
SweepPoint
probePoint(const std::string &label, const TraceKey &key)
{
    auto extract = [](CountingSink &sink, const RecordedRun &run) {
        return std::vector<Metric>{
            {"recorded", run.trace != nullptr ? 1.0 : 0.0},
            {"events", static_cast<double>(sink.total())},
        };
    };
    if constexpr (ReadsRun) {
        return makePoint<CountingSink>(
            label, key,
            [](const RecordedRun &) {
                return std::make_unique<CountingSink>();
            },
            extract);
    } else {
        return makePoint<CountingSink>(
            label, key, [] { return std::make_unique<CountingSink>(); },
            extract);
    }
}

TEST(Sweep, GroupsRecordOnlyWhenSomethingNeedsTheRecording)
{
    TempDir dir("jrs_sweep_path_selection");
    const TraceKey key = tinyKey("hello", ExecMode::interp());
    const std::vector<SweepPoint> runFree = {
        probePoint<false>("a", key), probePoint<false>("b", key)};
    std::vector<SweepPoint> oneReadsRun = runFree;
    oneReadsRun.push_back(probePoint<true>("c", key));
    ASSERT_TRUE(runFree[0].runFree);
    ASSERT_FALSE(oneReadsRun[2].runFree);

    // A raw point that installs its own factory counts as reading it.
    SweepPoint raw;
    raw.label = "raw";
    raw.key = key;
    raw.makeSink =
        [](const RecordedRun &) -> std::unique_ptr<TraceSink> {
        return std::make_unique<CountingSink>();
    };
    raw.extract = runFree[0].extract;

    const auto recorded = [](const SweepResult &r) {
        EXPECT_TRUE(r.allOk());
        EXPECT_EQ(r.traces.recordings, 1u);
        bool all = true;
        for (const PointResult &p : r.points) {
            all = all && p.metric("recorded") == 1.0;
            EXPECT_EQ(p.metric("events"),
                      static_cast<double>(p.traceEvents));
        }
        return all;
    };

    // Private, run-free, unobserved, no directory: live.
    const SweepResult live = SweepEngine{}.run(runFree);
    EXPECT_TRUE(live.allOk());
    EXPECT_EQ(live.traces.recordings, 1u);
    for (const PointResult &p : live.points)
        EXPECT_EQ(p.metric("recorded"), 0.0) << p.label;

    EXPECT_TRUE(recorded(SweepEngine{}.run(oneReadsRun)));
    EXPECT_TRUE(recorded(SweepEngine{}.run({raw})));
    {
        SweepOptions opts;
        opts.groupObserver = [](const TraceKey &, const RecordedRun &) {
            return std::make_unique<CountingSink>();
        };
        EXPECT_TRUE(recorded(SweepEngine(opts).run(runFree)));
    }
    {
        SweepOptions opts;
        opts.cacheDir = dir.path;
        EXPECT_TRUE(recorded(SweepEngine(opts).run(runFree)));
    }
    {
        SweepOptions opts;
        opts.cache = std::make_shared<TraceCache>();
        EXPECT_TRUE(recorded(SweepEngine(opts).run(runFree)));
    }

    // Each live sweep runs the VM again: nothing is kept.
    SweepEngine engine;
    (void)engine.run(runFree);
    EXPECT_EQ(engine.run(runFree).traces.recordings, 1u);
    EXPECT_EQ(engine.cache().stats().memoryHits, 0u);
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

    const SweepResult live = sweepOn(grid, false);
    EXPECT_GT(*seen, 0u);
    const SweepResult recorded = sweepOn(grid, true);
    for (const SweepResult *r : {&live, &recorded}) {
        EXPECT_TRUE(r->points[4].ok);
        for (const std::size_t i : {0u, 1u, 2u, 3u}) {
            const PointResult &p = r->points[i];
            EXPECT_FALSE(p.ok) << p.label;
            EXPECT_EQ(p.error.rfind("recording failed: ", 0), 0u)
                << p.label << ": " << p.error;
            EXPECT_EQ(p.error, recorded.points[i].error) << p.label;
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
