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
 *  - Every profiler report on six tiny streams matches a pinned
 *    digest, and the one report set behaves alike for all three
 *    schemas; a write that fails throws naming the path.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cache/time_series.h"
#include "arch/outcome.h"
#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "isa/trace_buffer.h"
#include "obs/cli.h"
#include "obs/json.h"
#include "obs/perf.h"
#include "obs/report.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "sweep/observers.h"
#include "sweep/sweep.h"
#include "vm/engine/policy.h"
#include "vm/runtime/vm_error.h"
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

        obs::ObsReports fromShared, fromSolo;
        fromShared.perf.add("run", perf);
        fromSolo.perf.add("run", soloPerf.perf());
        EXPECT_EQ(fromShared.perf.toJson(), fromSolo.perf.toJson());
        fromShared.cct.add("run", cct);
        fromSolo.cct.add("run", soloCct.cct());
        EXPECT_EQ(fromShared.cct.toJson(), fromSolo.cct.toJson());
        fromShared.sample.add("run", sampler);
        fromSolo.sample.add("run", soloSample.sampler());
        EXPECT_EQ(fromShared.sample.toJson(), fromSolo.sample.toJson());
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

/** @p lines as folded-stack text, one "stack value" line each. */
std::string
renderFolded(const std::vector<prof::FoldedLine> &lines)
{
    std::string out;
    for (const prof::FoldedLine &l : lines)
        out += l.stack + " " + std::to_string(l.value) + "\n";
    return out;
}

/** The bytes @p set's writeFolded leaves in a file. */
std::string
foldedFile(const obs::ReportSet &set)
{
    const std::string path =
        std::string(::testing::TempDir()) + "jrs_perf_pinned.folded";
    set.writeFolded(path);
    std::ifstream f(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << f.rdbuf();
    std::remove(path.c_str());
    return bytes.str();
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
    std::uint64_t sampleCyclesFolded;
    std::uint64_t sampleEventsFolded;
    /** writeFolded of a two-run set: the pipeline-fed CCT and one fed
     *  straight (event values), labelled "cycles" and "events". */
    std::uint64_t cctTwoRun;
    /** writeFolded of the two samplers, labelled the same way. */
    std::uint64_t sampleTwoRun;

    bool operator==(const ProfilerDigests &o) const {
        return perf == o.perf && caches == o.caches
            && cctJson == o.cctJson && cctFolded == o.cctFolded
            && sampleCycles == o.sampleCycles
            && sampleEvents == o.sampleEvents
            && sampleCyclesFolded == o.sampleCyclesFolded
            && sampleEventsFolded == o.sampleEventsFolded
            && cctTwoRun == o.cctTwoRun
            && sampleTwoRun == o.sampleTwoRun;
    }
};

std::ostream &
operator<<(std::ostream &os, const ProfilerDigests &d)
{
    return os << std::hex << "{\"" << d.workload << "\", \"" << d.mode
              << "\", 0x" << d.perf << "ull, 0x" << d.caches
              << "ull, 0x" << d.cctJson << "ull, 0x" << d.cctFolded
              << "ull, 0x" << d.sampleCycles << "ull, 0x"
              << d.sampleEvents << "ull, 0x" << d.sampleCyclesFolded
              << "ull, 0x" << d.sampleEventsFolded << "ull, 0x"
              << d.cctTwoRun << "ull, 0x" << d.sampleTwoRun << "ull}"
              << std::dec;
}

/** Digest every profiler on one stream; @p cctLines gets the
 *  pipeline-fed CCT's folded lines. */
ProfilerDigests
digestProfilers(const char *workload, const char *mode,
                std::vector<prof::FoldedLine> *cctLines)
{
    const WorkloadInfo *w = findWorkload(workload);
    const Program prog = w->build();
    const RecordedRun rec = recordTiny(workload, mode);
    ProfilerDigests d{workload, mode, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};

    obs::PerfOptions popt;
    popt.program = &prog;
    popt.timelineWindow = 5000;
    obs::AttributedPipeline perf(PipelineConfig{}, rec.methods, popt);
    rec.trace->replay(perf);
    obs::ReportSet perfSet("jrs-perf-report-v1");
    perfSet.add("run", perf.perf());
    d.perf = fnv1a(perfSet.toJson());

    obs::AttributedCaches caches(CacheConfig{}, CacheConfig{},
                                 rec.methods);
    rec.trace->replay(caches);
    obs::ReportSet cacheSet("jrs-perf-report-v1");
    cacheSet.add("run", caches.perf());
    d.caches = fnv1a(cacheSet.toJson());

    prof::CctPipeline cct(PipelineConfig{}, rec.methods);
    rec.trace->replay(cct);
    obs::ReportSet cctSet("jrs-cct-v1");
    cctSet.add("run", cct.cct());
    d.cctJson = fnv1a(cctSet.toJson());
    *cctLines = cct.cct().foldedLines();
    d.cctFolded = fnv1a(renderFolded(*cctLines));

    prof::CctBuilder cctEvents(*rec.methods);
    rec.trace->replay(cctEvents);
    obs::ReportSet cctTwo("jrs-cct-v1");
    cctTwo.add("events", cctEvents);
    cctTwo.add("cycles", cct.cct());
    d.cctTwoRun = fnv1a(foldedFile(cctTwo));

    prof::SamplePipeline cycles(PipelineConfig{}, rec.methods);
    rec.trace->replay(cycles);
    obs::ReportSet cycleSet("jrs-sample-v1");
    cycleSet.add("run", cycles.sampler());
    d.sampleCycles = fnv1a(cycleSet.toJson());
    d.sampleCyclesFolded =
        fnv1a(renderFolded(cycles.sampler().foldedLines()));

    prof::SampleOptions eventClock;
    eventClock.period = 512;
    prof::SamplingProfiler events(*rec.methods, eventClock);
    rec.trace->replay(events);
    obs::ReportSet eventSet("jrs-sample-v1");
    eventSet.add("run", events);
    d.sampleEvents = fnv1a(eventSet.toJson());
    d.sampleEventsFolded = fnv1a(renderFolded(events.foldedLines()));

    obs::ReportSet sampleTwo("jrs-sample-v1");
    sampleTwo.add("events", events);
    sampleTwo.add("cycles", cycles.sampler());
    d.sampleTwoRun = fnv1a(foldedFile(sampleTwo));
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
         0x093dbb5a0e2c82ddull, 0x6a5f5f95251856ccull,
         0x0f7934b2bc024617ull, 0x969cacb9337f7592ull,
         0x1a26da5af6cde73full, 0x3c2d457d805d3f02ull},
        {"compress", "jit", 0x3df9d5e5cf288c32ull, 0xb31ff7d0dd26e974ull,
         0x82c53916e95ad4e1ull, 0xce50d51c68393857ull,
         0x28d80f971ef7c5faull, 0x9383aecb493f691eull,
         0x709897bdf09580c0ull, 0xb6301f835b1dbe66ull,
         0xfb33605e7fb094d7ull, 0xcdf1637ce0f197a3ull},
        {"mpeg", "interp", 0x541863fbdbfd8086ull, 0x70c0b0ebaae65446ull,
         0xb67b78194df010b8ull, 0x1ec434b6e22cd45full,
         0x90756d8b73181ccdull, 0xa4743d90ca2aae9aull,
         0x4e8a105c50af7d61ull, 0xecf17725058dcaa6ull,
         0x14129c69e993007eull, 0xa67d18ea63566ebcull},
        {"mpeg", "jit", 0x4dda8f71b60d8131ull, 0xc2f73c9447076b5aull,
         0x2deedd4b26e8fdc6ull, 0xc462cfd7c38f1ce0ull,
         0x866bed791d92b444ull, 0xa6ecb69e1ff925caull,
         0xa3c11a4f50f4ba7dull, 0xb74d28ee250a69fbull,
         0x2213c0f87ba16e58ull, 0xb0d9f6a366ca6765ull},
        {"db", "interp", 0x53f53b5be59ed904ull, 0x89e572aa4f5c4c68ull,
         0x8a17c0fd20478259ull, 0xef56d2920d1cfb94ull,
         0x860a13d9b0027790ull, 0x59ff3b7e13eb3e1aull,
         0x36caae3c1b22e5e2ull, 0x4f1ee387478c8099ull,
         0xe89758a66cc59f13ull, 0x5cbbef41eaca0e00ull},
        {"db", "jit", 0x73642cb945d8abc2ull, 0xe8fbd0c352f571fbull,
         0xb4932b0793511ceaull, 0x4aeb0a31ae54a199ull,
         0x9ef52a869972ee4full, 0x83885d8d6c20af41ull,
         0x712d30093441f775ull, 0x5db1b0a8a737d51cull,
         0x5d054bf5dd24d735ull, 0xa31eae95977b90a4ull},
    };
    // foldedDiff of each workload's interpreted against its JIT run.
    const std::pair<const char *, std::uint64_t> pinnedDiffs[] = {
        {"compress", 0x09be6939b18d12f6ull},
        {"mpeg", 0x2c801843bbcf0795ull},
        {"db", 0x6803d98cbd9e2694ull},
    };
    std::vector<prof::FoldedLine> interp;
    for (const ProfilerDigests &want : pinned) {
        std::vector<prof::FoldedLine> lines;
        const ProfilerDigests got =
            digestProfilers(want.workload, want.mode, &lines);
        EXPECT_EQ(got, want);
        if (std::string(want.mode) == "interp") {
            interp = std::move(lines);
            continue;
        }
        const auto diff = std::find_if(
            std::begin(pinnedDiffs), std::end(pinnedDiffs),
            [&](const auto &p) {
                return std::string(p.first) == want.workload;
            });
        ASSERT_NE(diff, std::end(pinnedDiffs)) << want.workload;
        EXPECT_EQ(fnv1a(prof::foldedDiff(interp, lines)), diff->second)
            << std::hex << want.workload << " diff: 0x"
            << fnv1a(prof::foldedDiff(interp, lines)) << std::dec;
    }
}

/** One report schema: the ObsReports set holding it. */
struct ReportSchema {
    const char *name;    ///< test-name suffix
    const char *schema;
    obs::ReportSet obs::ObsReports::*set;
    bool folded;         ///< its profiler renders folded stacks
};

void
PrintTo(const ReportSchema &s, std::ostream *os)
{
    *os << s.schema;
}

class ReportSetSchemas : public ::testing::TestWithParam<ReportSchema> {};

TEST_P(ReportSetSchemas, SortsReplacesAndPrefixesFolded)
{
    const ReportSchema &param = GetParam();
    const RecordedRun rec = recordTiny("hello", "jit");
    obs::ObsCli cli;
    cli.perfJson = "unused.perf.json";
    cli.cctJson = "unused.cct.json";
    cli.sampleJson = "unused.sample.json";
    // Every profiler on the run, and every profiler on nothing.
    const obs::Observers run = cli.observers(*rec.methods);
    const obs::Observers none = cli.observers(*rec.methods);
    PipelineSim pipe((PipelineConfig()));
    run.attachTo(pipe);
    rec.trace->replay(pipe);

    obs::ObsReports reports;
    const obs::ReportSet &set = reports.*param.set;
    EXPECT_EQ(set.schema(), param.schema);
    run.addTo(reports, "b-run");
    none.addTo(reports, "a-run");
    run.addTo(reports, "a-run");  // replaces the empty snapshot
    EXPECT_EQ(set.size(), 2u);

    // Sorted by label, the empty "a-run" replaced: the document is
    // the one a set given the same run twice, in order, renders.
    obs::ObsReports inOrder;
    run.addTo(inOrder, "a-run");
    run.addTo(inOrder, "b-run");
    const std::string json = set.toJson();
    EXPECT_EQ(json, (inOrder.*param.set).toJson());
    EXPECT_EQ(json.rfind("{\n  \"schema\": \"" + std::string(param.schema)
                             + "\",\n  \"runs\": [\n",
                         0),
              0u);
    EXPECT_LT(json.find("\"a-run\""), json.find("\"b-run\""));

    // Folded stacks: the tree profilers have them, perf has none; with
    // two runs every stack is prefixed with its run's label.
    const std::vector<obs::FoldedLine> lines = set.folded("a-run");
    EXPECT_EQ(lines.empty(), !param.folded);
    EXPECT_TRUE(set.folded("no-such-run").empty());
    std::string two;
    std::string one;
    for (const char *label : {"a-run", "b-run"}) {
        for (const obs::FoldedLine &l : set.folded(label)) {
            two += std::string(label) + ";" + l.stack + " "
                + std::to_string(l.value) + "\n";
        }
    }
    for (const obs::FoldedLine &l : lines)
        one += l.stack + " " + std::to_string(l.value) + "\n";
    EXPECT_EQ(foldedFile(set), two);
    obs::ObsReports single;
    run.addTo(single, "a-run");
    EXPECT_EQ(foldedFile(single.*param.set), one);
}

INSTANTIATE_TEST_SUITE_P(
    ReportSet, ReportSetSchemas,
    ::testing::Values(
        ReportSchema{"perf", "jrs-perf-report-v1",
                     &obs::ObsReports::perf, false},
        ReportSchema{"cct", "jrs-cct-v1", &obs::ObsReports::cct, true},
        ReportSchema{"sample", "jrs-sample-v1",
                     &obs::ObsReports::sample, true}),
    [](const ::testing::TestParamInfo<ReportSchema> &info) {
        return std::string(info.param.name);
    });

/** The message of the VmError @p fn throws ("" when none). */
template <class Fn>
std::string
vmErrorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const VmError &e) {
        return e.what();
    }
    return "";
}

TEST(ReportWrite, FailedWritesThrowNamingThePath)
{
    const std::string missing = "/nonexistent-jrs-dir/report.json";
    const std::string open = vmErrorOf(
        [&] { obs::writeTextFile(missing, "{}\n", "test JSON"); });
    EXPECT_NE(open.find("cannot write test JSON: " + missing + ": "
                        + std::strerror(ENOENT)),
              std::string::npos)
        << open;

    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";
    // Shorter than stdio's buffer: only the close reaches the device.
    const std::string full = ": /dev/full: " + std::string(
                                 std::strerror(ENOSPC));
    const std::string closed = vmErrorOf(
        [] { obs::writeTextFile("/dev/full", "{}\n", "test JSON"); });
    EXPECT_NE(closed.find("cannot write test JSON" + full),
              std::string::npos)
        << closed;

    const RecordedRun rec = recordTiny("hello", "jit");
    prof::CctPipeline cct(PipelineConfig{}, rec.methods);
    rec.trace->replay(cct);
    obs::ObsReports reports;
    reports.cct.add("run", cct.cct());
    const std::string json =
        vmErrorOf([&] { reports.cct.writeJson("/dev/full"); });
    EXPECT_NE(json.find("cannot write jrs-cct-v1 report" + full),
              std::string::npos)
        << json;
    const std::string folded =
        vmErrorOf([&] { reports.cct.writeFolded("/dev/full"); });
    EXPECT_NE(folded.find("cannot write jrs-cct-v1 folded stacks" + full),
              std::string::npos)
        << folded;
}

} // namespace
} // namespace jrs
