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

} // namespace
} // namespace jrs
