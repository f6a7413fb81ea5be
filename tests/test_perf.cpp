/**
 * @file
 * Perf-attribution contract tests (obs/perf.h + arch/outcome.h):
 *
 *  - Conservation: per-method CPI components sum exactly to
 *    PipelineSim::cycles(), and attributed access/miss/mispredict
 *    counts sum to the model's own aggregate statistics bit-for-bit
 *    (including the unattributed bucket), per workload and mode.
 *  - Non-perturbation: a model with observers attached produces
 *    bit-identical timing to a bare one, and a sweep with every
 *    group observer on produces bit-identical metrics.
 *  - One pipeline feeding perf, CCT and sampler yields reports
 *    byte-identical to each profiler's solo composite.
 *  - IntervalTimeline reproduces TimeSeriesCacheSink's windowed
 *    curves exactly (the Figure 6 port).
 *  - The trace cache's .methods sidecar round-trips MethodMaps to
 *    later processes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "arch/cache/time_series.h"
#include "arch/outcome.h"
#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "isa/trace_buffer.h"
#include "obs/cli.h"
#include "obs/perf.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "sweep/observers.h"
#include "sweep/sweep.h"
#include "vm/engine/policy.h"
#include "workloads/workload.h"

namespace jrs {
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

std::size_t
idx(PerfKind k)
{
    return static_cast<std::size_t>(k);
}

/** Sum of the per-method cells, unattributed bucket included. */
obs::PerfCell
methodSum(const obs::PerfAttribution &perf)
{
    obs::PerfCell sum;
    for (std::size_t row = 0; row <= perf.map().rows(); ++row)
        sum.merge(perf.methodCell(row));
    return sum;
}

/** The workload x mode matrix every conservation test runs over. */
const std::vector<std::pair<const char *, const char *>> kMatrix = {
    {"hello", "interp"},  {"hello", "jit"},    {"hello", "counter"},
    {"compress", "interp"}, {"compress", "jit"},
    {"db", "jit"},        {"db", "counter"},
};

TEST(Perf, CpiStackConservesPipelineCycles)
{
    for (const auto &[workload, mode] : kMatrix) {
        SCOPED_TRACE(std::string(workload) + "/" + mode);
        const RecordedRun rec = recordTiny(workload, mode);
        ASSERT_NE(rec.methods, nullptr);
        obs::AttributedPipeline sink(PipelineConfig{}, rec.methods);
        rec.trace->replay(sink);
        const obs::PerfAttribution &perf = sink.perf();
        const PipelineSim &pipe = sink.pipeline();

        // Whole-run CPI stack == the model's cycle count, exactly.
        EXPECT_EQ(perf.totals().cycles(), pipe.cycles());
        EXPECT_EQ(perf.totalEvents(), pipe.instructions());

        // Per-method components sum to the totals, component by
        // component (so also to cycles()).
        const obs::PerfCell sum = methodSum(perf);
        EXPECT_EQ(sum.insts, perf.totals().insts);
        for (std::size_t c = 0; c < kNumCpiComponents; ++c)
            EXPECT_EQ(sum.cpi[c], perf.totals().cpi[c])
                << cpiComponentName(static_cast<CpiComponent>(c));
    }
}

TEST(Perf, OutcomeCountsMatchPipelineAggregates)
{
    for (const auto &[workload, mode] : kMatrix) {
        SCOPED_TRACE(std::string(workload) + "/" + mode);
        const RecordedRun rec = recordTiny(workload, mode);
        obs::AttributedPipeline sink(PipelineConfig{}, rec.methods);
        rec.trace->replay(sink);
        const obs::PerfCell t = methodSum(sink.perf());
        const PipelineSim &p = sink.pipeline();

        EXPECT_EQ(t.access[idx(PerfKind::ICacheFetch)],
                  p.icache().stats().reads);
        EXPECT_EQ(t.bad[idx(PerfKind::ICacheFetch)],
                  p.icache().stats().readMisses);
        EXPECT_EQ(t.access[idx(PerfKind::DCacheLoad)],
                  p.dcache().stats().reads);
        EXPECT_EQ(t.bad[idx(PerfKind::DCacheLoad)],
                  p.dcache().stats().readMisses);
        EXPECT_EQ(t.access[idx(PerfKind::DCacheStore)],
                  p.dcache().stats().writes);
        EXPECT_EQ(t.bad[idx(PerfKind::DCacheStore)],
                  p.dcache().stats().writeMisses);
        EXPECT_EQ(t.access[idx(PerfKind::CondBranch)],
                  p.condBranches());
        EXPECT_EQ(t.bad[idx(PerfKind::CondBranch)],
                  p.condMispredicts());
        EXPECT_EQ(t.access[idx(PerfKind::IndirectTarget)],
                  p.indirects());
        EXPECT_EQ(t.bad[idx(PerfKind::IndirectTarget)],
                  p.indirectMispredicts());
    }
}

TEST(Perf, CacheOutcomesMatchCacheSinkStats)
{
    const RecordedRun rec = recordTiny("compress", "jit");
    const CacheConfig icfg{8 * 1024, 32, 2, true};
    const CacheConfig dcfg{8 * 1024, 16, 1, true};
    obs::AttributedCaches sink(icfg, dcfg, rec.methods);
    rec.trace->replay(sink);
    const obs::PerfCell t = methodSum(sink.perf());
    const CacheSink &c = sink.caches();

    EXPECT_EQ(t.access[idx(PerfKind::ICacheFetch)],
              c.icache().stats().reads);
    EXPECT_EQ(t.bad[idx(PerfKind::ICacheFetch)],
              c.icache().stats().readMisses);
    EXPECT_EQ(t.access[idx(PerfKind::DCacheLoad)],
              c.dcache().stats().reads);
    EXPECT_EQ(t.bad[idx(PerfKind::DCacheLoad)],
              c.dcache().stats().readMisses);
    EXPECT_EQ(t.access[idx(PerfKind::DCacheStore)],
              c.dcache().stats().writes);
    EXPECT_EQ(t.bad[idx(PerfKind::DCacheStore)],
              c.dcache().stats().writeMisses);
    // A bare cache model charges no cycles.
    EXPECT_EQ(t.cycles(), 0u);
}

TEST(Perf, ListenerDoesNotPerturbPipelineTiming)
{
    const RecordedRun rec = recordTiny("db", "jit");
    PipelineSim bare((PipelineConfig()));
    rec.trace->replay(bare);
    obs::AttributedPipeline observed(PipelineConfig{}, rec.methods);
    rec.trace->replay(observed);

    EXPECT_EQ(observed.pipeline().cycles(), bare.cycles());
    EXPECT_EQ(observed.pipeline().instructions(),
              bare.instructions());
    EXPECT_EQ(observed.pipeline().mispredicts(), bare.mispredicts());
    EXPECT_EQ(observed.pipeline().icache().stats().misses(),
              bare.icache().stats().misses());
    EXPECT_EQ(observed.pipeline().dcache().stats().misses(),
              bare.dcache().stats().misses());
}

TEST(Perf, TimelineMatchesTimeSeriesCacheSink)
{
    const RecordedRun rec = recordTiny("db", "jit");
    const CacheConfig icfg{64 * 1024, 32, 2, true};
    const CacheConfig dcfg{64 * 1024, 32, 4, true};
    // Exercise a partial final window, an exact-divisor window, and a
    // window larger than the stream.
    const std::uint64_t total = rec.trace->size();
    ASSERT_GT(total, 2u);
    for (const std::uint64_t window :
         {total / 7 + 1, total / 2, total, total * 2}) {
        SCOPED_TRACE("window=" + std::to_string(window));
        TimeSeriesCacheSink legacy(icfg, dcfg, window);
        rec.trace->replay(legacy);

        obs::PerfOptions popt;
        popt.timelineWindow = window;
        obs::AttributedCaches ported(icfg, dcfg, rec.methods, popt);
        rec.trace->replay(ported);

        const auto &got = ported.perf().timeline();
        const auto &want = legacy.samples();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].bad[idx(PerfKind::ICacheFetch)],
                      want[i].iMisses);
            EXPECT_EQ(got[i].bad[idx(PerfKind::DCacheLoad)]
                          + got[i].bad[idx(PerfKind::DCacheStore)],
                      want[i].dMisses);
            EXPECT_EQ(got[i].bad[idx(PerfKind::DCacheStore)],
                      want[i].dWriteMisses);
            EXPECT_EQ(got[i].translateEvents,
                      want[i].translateEvents);
        }
    }
}

TEST(Perf, OpcodeAttributionCoversInterpretedRun)
{
    const WorkloadInfo *w = findWorkload("hello");
    ASSERT_NE(w, nullptr);
    const Program prog = w->build();
    RunSpec s;
    s.workload = w;
    s.arg = w->tinyArg;
    s.policy = policyFor("interp");
    const RecordedRun rec = recordWorkload(s);

    obs::PerfOptions popt;
    popt.program = &prog;
    obs::AttributedPipeline sink(PipelineConfig{}, rec.methods, popt);
    rec.trace->replay(sink);
    const obs::PerfAttribution &perf = sink.perf();
    ASSERT_TRUE(perf.hasOpcodes());

    // A pure-interp run must attribute a healthy share of its events
    // to decoded opcodes, and opcode insts can never exceed totals.
    std::uint64_t opInsts = 0;
    std::uint64_t opCycles = 0;
    for (std::size_t o = 0; o < kNumOpcodes; ++o) {
        opInsts += perf.opcodeCell(static_cast<Op>(o)).insts;
        opCycles += perf.opcodeCell(static_cast<Op>(o)).cycles();
    }
    EXPECT_GT(opInsts, 0u);
    EXPECT_LE(opInsts, perf.totals().insts);
    EXPECT_LE(opCycles, perf.totals().cycles());

    // The annotate view has sites for at least one method, and the
    // per-site tables agree with the opcode totals.
    EXPECT_GT(perf.opcodeTable(5).numRows(), 0u);
    bool annotated = false;
    for (std::size_t row = 0; row < perf.map().rows(); ++row) {
        if (perf.annotateTable(perf.map().name(static_cast<int>(row)))
                .numRows()
            > 0) {
            annotated = true;
            break;
        }
    }
    EXPECT_TRUE(annotated);
}

TEST(Perf, SweepGroupObserverKeepsMetricsBitIdentical)
{
    const WorkloadInfo *w = findWorkload("hello");
    ASSERT_NE(w, nullptr);
    const auto buildGrid = [&] {
        std::vector<sweep::SweepPoint> grid;
        for (const std::uint32_t width : {2u, 4u}) {
            PipelineConfig cfg;
            cfg.issueWidth = width;
            grid.push_back(sweep::makePoint<PipelineSim>(
                "w" + std::to_string(width),
                sweep::traceKey("hello", sweep::ExecMode::jit(),
                                w->tinyArg),
                [cfg] { return std::make_unique<PipelineSim>(cfg); },
                [](PipelineSim &sim, const RecordedRun &) {
                    return std::vector<sweep::Metric>{
                        {"cycles",
                         static_cast<double>(sim.cycles())},
                        {"ipc", sim.ipc()},
                    };
                }));
        }
        return grid;
    };

    sweep::SweepEngine plain((sweep::SweepOptions()));
    const sweep::SweepResult without = plain.run(buildGrid());

    obs::ObsCli cli;
    cli.perfJson = "unused.perf.json";
    cli.cctJson = "unused.cct.json";
    cli.sampleJson = "unused.sample.json";
    obs::ObsReports reports;
    sweep::SweepOptions opts;
    sweep::attachObservers(opts, cli, reports);
    sweep::SweepEngine observing(opts);
    const sweep::SweepResult with = observing.run(buildGrid());

    ASSERT_TRUE(without.allOk());
    ASSERT_TRUE(with.allOk());
    ASSERT_EQ(without.points.size(), with.points.size());
    for (std::size_t i = 0; i < with.points.size(); ++i) {
        EXPECT_EQ(with.points[i].metric("cycles"),
                  without.points[i].metric("cycles"));
        EXPECT_EQ(with.points[i].metric("ipc"),
                  without.points[i].metric("ipc"));
    }
    // One trace group -> one collected report per profiler, and each
    // JSON carries its stable schema.
    EXPECT_EQ(reports.perf.size(), 1u);
    EXPECT_EQ(reports.cct.size(), 1u);
    EXPECT_EQ(reports.sample.size(), 1u);
    EXPECT_NE(reports.perf.toJson().find("\"jrs-perf-report-v1\""),
              std::string::npos);
    EXPECT_NE(reports.cct.toJson().find("\"jrs-cct-v1\""),
              std::string::npos);
    EXPECT_NE(reports.sample.toJson().find("\"jrs-sample-v1\""),
              std::string::npos);
}

TEST(Perf, SharedPipelineMatchesSoloComposites)
{
    for (const char *mode : {"interp", "jit"}) {
        SCOPED_TRACE(mode);
        const RecordedRun rec = recordTiny("compress", mode);
        const prof::SampleOptions sopt = obs::ObsCli().sampleOptions();

        PipelineSim bare((PipelineConfig()));
        rec.trace->replay(bare);

        obs::PerfAttribution perf(*rec.methods);
        prof::CctBuilder cct(*rec.methods);
        prof::SamplingProfiler sampler(*rec.methods, sopt);
        PipelineSim shared((PipelineConfig()));
        shared.observe(perf);
        shared.observe(cct);
        shared.observe(sampler);
        rec.trace->replay(shared);

        obs::AttributedPipeline soloPerf(PipelineConfig{}, rec.methods);
        rec.trace->replay(soloPerf);
        prof::CctPipeline soloCct(PipelineConfig{}, rec.methods);
        rec.trace->replay(soloCct);
        prof::SamplePipeline soloSample(PipelineConfig{}, rec.methods,
                                        sopt);
        rec.trace->replay(soloSample);

        obs::PerfReportSet perfA, perfB;
        perfA.add("run", perf);
        perfB.add("run", soloPerf.perf());
        EXPECT_EQ(perfA.toJson(), perfB.toJson());
        prof::CctReportSet cctA, cctB;
        cctA.add("run", cct);
        cctB.add("run", soloCct.cct());
        EXPECT_EQ(cctA.toJson(), cctB.toJson());
        prof::SampleReportSet sampleA, sampleB;
        sampleA.add("run", sampler);
        sampleB.add("run", soloSample.sampler());
        EXPECT_EQ(sampleA.toJson(), sampleB.toJson());
        EXPECT_GT(sampler.samples(), 0u);

        EXPECT_EQ(shared.instructions(), bare.instructions());
        EXPECT_EQ(shared.cycles(), bare.cycles());
        EXPECT_EQ(shared.mispredicts(), bare.mispredicts());
        EXPECT_EQ(shared.condBranches(), bare.condBranches());
        EXPECT_EQ(shared.condMispredicts(), bare.condMispredicts());
        EXPECT_EQ(shared.indirects(), bare.indirects());
        EXPECT_EQ(shared.indirectMispredicts(),
                  bare.indirectMispredicts());
        for (const auto &[a, b] :
             {std::pair(&shared.icache(), &bare.icache()),
              std::pair(&shared.dcache(), &bare.dcache())}) {
            EXPECT_EQ(a->stats().reads, b->stats().reads);
            EXPECT_EQ(a->stats().writes, b->stats().writes);
            EXPECT_EQ(a->stats().readMisses, b->stats().readMisses);
            EXPECT_EQ(a->stats().writeMisses, b->stats().writeMisses);
            for (std::size_t p = 0; p < kNumPhases; ++p) {
                const Phase ph = static_cast<Phase>(p);
                EXPECT_EQ(a->phaseStats(ph).accesses(),
                          b->phaseStats(ph).accesses());
                EXPECT_EQ(a->phaseStats(ph).misses(),
                          b->phaseStats(ph).misses());
            }
        }
    }
}

TEST(Perf, ReportSetOverwritesDuplicateLabels)
{
    const RecordedRun rec = recordTiny("hello", "jit");
    obs::AttributedPipeline sink(PipelineConfig{}, rec.methods);
    rec.trace->replay(sink);

    obs::PerfReportSet reports;
    reports.add("run", sink.perf());
    reports.add("run", sink.perf());
    EXPECT_EQ(reports.size(), 1u);
}

TEST(Perf, MethodsSidecarRoundTripsThroughDiskCache)
{
    TempDir dir("jrs_perf_methods_sidecar");
    const WorkloadInfo *w = findWorkload("hello");
    ASSERT_NE(w, nullptr);
    const sweep::TraceKey key =
        sweep::traceKey("hello", sweep::ExecMode::jit(), w->tinyArg);

    sweep::TraceCache writer(dir.path);
    const auto recorded = writer.get(key);
    ASSERT_NE(recorded->methods, nullptr);
    EXPECT_GT(recorded->methods->rows(), 0u);

    // A fresh cache on the same directory stands in for a later
    // process: the sidecar must restore an identical map.
    sweep::TraceCache reader(dir.path);
    const auto loaded = reader.get(key);
    EXPECT_EQ(reader.stats().diskLoads, 1u);
    ASSERT_NE(loaded->methods, nullptr);

    std::vector<std::tuple<SimAddr, SimAddr, std::string>> a, b;
    recorded->methods->forEachRange(
        [&](SimAddr lo, SimAddr hi, const std::string &name) {
            a.emplace_back(lo, hi, name);
        });
    loaded->methods->forEachRange(
        [&](SimAddr lo, SimAddr hi, const std::string &name) {
            b.emplace_back(lo, hi, name);
        });
    EXPECT_EQ(a, b);

    // Attribution through the restored map matches the original.
    obs::AttributedPipeline viaOriginal(PipelineConfig{},
                                        recorded->methods);
    recorded->trace->replay(viaOriginal);
    obs::AttributedPipeline viaSidecar(PipelineConfig{},
                                       loaded->methods);
    loaded->trace->replay(viaSidecar);
    const obs::PerfCell so = methodSum(viaOriginal.perf());
    const obs::PerfCell ss = methodSum(viaSidecar.perf());
    EXPECT_EQ(so.insts, ss.insts);
    EXPECT_EQ(so.cycles(), ss.cycles());
    // Row indices may differ (the sidecar restores ranges in address
    // order), so compare per-method cells by name.
    const auto byName = [](const obs::PerfAttribution &perf) {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        for (std::size_t row = 0; row < perf.map().rows(); ++row) {
            out.emplace_back(
                perf.map().name(static_cast<int>(row)),
                perf.methodCell(row).cycles());
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    EXPECT_EQ(byName(viaOriginal.perf()), byName(viaSidecar.perf()));
    EXPECT_EQ(viaOriginal.perf()
                  .methodCell(viaOriginal.perf().map().rows())
                  .cycles(),
              viaSidecar.perf()
                  .methodCell(viaSidecar.perf().map().rows())
                  .cycles());
}

/** FNV-1a over the bytes of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** Every profiler output of one stream, as pinned digests. */
struct ProfilerDigests {
    const char *workload;
    const char *mode;
    std::uint64_t perf;          ///< pipeline, Program + timeline
    std::uint64_t caches;        ///< AttributedCaches
    std::uint64_t cctJson;
    std::uint64_t cctFolded;
    std::uint64_t sampleCycles;  ///< SamplePipeline, cycle clock
    std::uint64_t sampleEvents;  ///< fed straight, event clock

    bool operator==(const ProfilerDigests &o) const {
        return perf == o.perf && caches == o.caches
            && cctJson == o.cctJson && cctFolded == o.cctFolded
            && sampleCycles == o.sampleCycles
            && sampleEvents == o.sampleEvents;
    }
};

std::ostream &
operator<<(std::ostream &os, const ProfilerDigests &d)
{
    return os << std::hex << "{\"" << d.workload << "\", \"" << d.mode
              << "\", 0x" << d.perf << "ull, 0x" << d.caches
              << "ull, 0x" << d.cctJson << "ull, 0x" << d.cctFolded
              << "ull, 0x" << d.sampleCycles << "ull, 0x"
              << d.sampleEvents << "ull}" << std::dec;
}

ProfilerDigests
digestProfilers(const char *workload, const char *mode)
{
    const WorkloadInfo *w = findWorkload(workload);
    const Program prog = w->build();
    const RecordedRun rec = recordTiny(workload, mode);
    ProfilerDigests d{workload, mode, 0, 0, 0, 0, 0, 0};

    obs::PerfOptions popt;
    popt.program = &prog;
    popt.timelineWindow = 5000;
    obs::AttributedPipeline perf(PipelineConfig{}, rec.methods, popt);
    rec.trace->replay(perf);
    obs::PerfReportSet perfSet;
    perfSet.add("run", perf.perf());
    d.perf = fnv1a(perfSet.toJson());

    obs::AttributedCaches caches(CacheConfig{}, CacheConfig{},
                                 rec.methods);
    rec.trace->replay(caches);
    obs::PerfReportSet cacheSet;
    cacheSet.add("run", caches.perf());
    d.caches = fnv1a(cacheSet.toJson());

    prof::CctPipeline cct(PipelineConfig{}, rec.methods);
    rec.trace->replay(cct);
    prof::CctReportSet cctSet;
    cctSet.add("run", cct.cct());
    d.cctJson = fnv1a(cctSet.toJson());
    std::string folded;
    for (const prof::FoldedLine &l : cct.cct().foldedLines())
        folded += l.stack + " " + std::to_string(l.value) + "\n";
    d.cctFolded = fnv1a(folded);

    prof::SamplePipeline cycles(PipelineConfig{}, rec.methods);
    rec.trace->replay(cycles);
    prof::SampleReportSet cycleSet;
    cycleSet.add("run", cycles.sampler());
    d.sampleCycles = fnv1a(cycleSet.toJson());

    prof::SampleOptions eventClock;
    eventClock.period = 512;
    prof::SamplingProfiler events(*rec.methods, eventClock);
    rec.trace->replay(events);
    prof::SampleReportSet eventSet;
    eventSet.add("run", events);
    d.sampleEvents = fnv1a(eventSet.toJson());
    return d;
}

TEST(Perf, ProfilerOutputsMatchPinnedDigests)
{
    // Every profiler's report on six tiny streams, pinned. A change
    // here means some report changed: re-pin only when that change is
    // intended (the failure message prints the new table).
    const ProfilerDigests pinned[] = {
        {"compress", "interp", 0x462bb81ef545e4ecull, 0x348d74c39c9aea28ull,
         0x643c0b3f49538472ull, 0xd6fe9b6d25cced19ull,
         0x093dbb5a0e2c82ddull, 0x6a5f5f95251856ccull},
        {"compress", "jit", 0x3df9d5e5cf288c32ull, 0xb31ff7d0dd26e974ull,
         0x82c53916e95ad4e1ull, 0xce50d51c68393857ull,
         0x28d80f971ef7c5faull, 0x9383aecb493f691eull},
        {"mpeg", "interp", 0x541863fbdbfd8086ull, 0x70c0b0ebaae65446ull,
         0xb67b78194df010b8ull, 0x1ec434b6e22cd45full,
         0x90756d8b73181ccdull, 0xa4743d90ca2aae9aull},
        {"mpeg", "jit", 0x4dda8f71b60d8131ull, 0xc2f73c9447076b5aull,
         0x2deedd4b26e8fdc6ull, 0xc462cfd7c38f1ce0ull,
         0x866bed791d92b444ull, 0xa6ecb69e1ff925caull},
        {"db", "interp", 0x53f53b5be59ed904ull, 0x89e572aa4f5c4c68ull,
         0x8a17c0fd20478259ull, 0xef56d2920d1cfb94ull,
         0x860a13d9b0027790ull, 0x59ff3b7e13eb3e1aull},
        {"db", "jit", 0x73642cb945d8abc2ull, 0xe8fbd0c352f571fbull,
         0xb4932b0793511ceaull, 0x4aeb0a31ae54a199ull,
         0x9ef52a869972ee4full, 0x83885d8d6c20af41ull},
    };
    for (const ProfilerDigests &want : pinned) {
        const ProfilerDigests got =
            digestProfilers(want.workload, want.mode);
        EXPECT_EQ(got, want);
    }
}

} // namespace
} // namespace jrs
