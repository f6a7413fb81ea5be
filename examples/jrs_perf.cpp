/**
 * @file
 * jrs_perf — per-method / per-bytecode microarchitectural attribution
 * for one workload run.
 *
 * Runs a workload with an architecture model and a perf-attribution
 * pass (obs/perf.h) fed by its dynamic native stream as the VM emits
 * it, and reports where the cycles, cache misses and branch
 * mispredicts went — per method, per opcode, and per bytecode site.
 * Methods are named against a map that follows the run's code cache,
 * so code that a bounded cache evicts is still charged to its method.
 *
 *   jrs_perf report <workload> [options]    top-N method/opcode tables
 *   jrs_perf annotate <workload> [options]  per-bytecode-site view
 *
 *   --mode interp|jit|counter:N  execution mode (default: jit for
 *                                report, interp for annotate)
 *   --arg N                      workload argument (default: smallArg)
 *   --tiny                       use the workload's tinyArg instead
 *   --model pipeline|cache       attribute the out-of-order pipeline
 *                                (CPI stacks; default) or a bare
 *                                split L1 (miss profiles only)
 *   --top N                      rows per table (default: 10)
 *   --window N                   also sample an interval timeline
 *                                every N trace events
 *   --method NAME                annotate: which method (default: the
 *                                hottest method with executed sites)
 *   --metrics-json FILE          write a jrs-metrics-v1 snapshot
 *   --trace-json FILE            write Chrome trace-event JSON; with
 *                                --window the timeline is included as
 *                                Perfetto counter tracks
 *   --perf-json FILE             write the jrs-perf-report-v1 report
 *   --cct-json FILE              write a jrs-cct-v1 calling-context
 *                                tree (its totals are cross-checked
 *                                like everything else)
 *   --flame FILE                 folded stacks (flamegraph.pl input)
 *   --sample-json FILE           write a jrs-sample-v1 sampled profile
 *                                (its cycle clock must end on the
 *                                pipeline's total cycles)
 *   --sample-period N            mean cycles between samples
 *   --sample-seed N              sampling PRNG seed
 *
 * The tool always cross-checks its tables against the model's own
 * aggregate statistics (event counts, cache accesses/misses,
 * branch/indirect predictions, total cycles) and exits nonzero on any
 * mismatch, so a passing run is itself a conservation proof.
 *
 * Examples:
 *   jrs_perf report compress
 *   jrs_perf report db --mode interp --window 50000
 *   jrs_perf annotate jess --method jess.fire
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "arch/cache/cache.h"
#include "arch/pipeline/pipeline.h"
#include "obs/cli.h"
#include "obs/obs.h"
#include "obs/perf.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "support/statistics.h"
#include "vm/engine/engine.h"
#include "vm/engine/policy.h"
#include "workloads/workload.h"

using namespace jrs;

namespace {

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg != nullptr)
        std::cerr << "error: " << msg << "\n\n";
    std::cerr << "usage: jrs_perf <report|annotate> <workload>"
                 " [--mode interp|jit|counter:N] [--arg N] [--tiny]"
                 " [--model pipeline|cache] [--top N] [--window N]"
                 " [--method NAME]"
              << obs::GcCli::usageText()
              << obs::CodeCacheCli::usageText()
              << obs::ObsCli::usageText()
              << "\n\nworkloads:\n";
    for (const WorkloadInfo &w : allWorkloads())
        std::cerr << "  " << w.name << " — " << w.description << '\n';
    std::exit(2);
}

std::shared_ptr<CompilationPolicy>
parseMode(const std::string &mode)
{
    if (mode == "interp")
        return std::make_shared<NeverCompilePolicy>();
    if (mode == "jit")
        return std::make_shared<AlwaysCompilePolicy>();
    if (mode.rfind("counter:", 0) == 0) {
        const std::string v = mode.substr(8);
        char *end = nullptr;
        const unsigned long n = std::strtoul(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0')
            usage("counter mode expects counter:N");
        return std::make_shared<CounterPolicy>(
            static_cast<std::uint64_t>(n));
    }
    usage("unknown --mode (expect interp, jit, or counter:N)");
}

std::uint64_t
parseU64(const std::string &v, const char *what)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0') {
        std::cerr << "error: " << what << " expects a number\n";
        std::exit(2);
    }
    return n;
}

/** One bit-for-bit comparison; prints and records any mismatch. */
bool
expectEq(const char *what, std::uint64_t got, std::uint64_t want)
{
    if (got == want)
        return true;
    std::cerr << "conservation mismatch: " << what << " = " << got
              << ", model reports " << want << '\n';
    return false;
}

/**
 * Phase cells partition the stream too: mutator phases plus the
 * Phase::Gc collector cell must reproduce the totals bit-for-bit, so
 * the mutator-vs-collector CPI split is itself conserved.
 */
bool
checkPhaseSums(const obs::PerfAttribution &perf)
{
    obs::PerfCell sum;
    for (std::size_t p = 0; p < kNumPhases; ++p)
        sum.merge(perf.phaseCell(static_cast<Phase>(p)));
    bool ok = expectEq("sum(phase insts)", sum.insts,
                       perf.totals().insts);
    for (std::size_t k = 0; k < kNumPerfKinds; ++k) {
        const auto kind = static_cast<PerfKind>(k);
        ok &= expectEq(perfKindName(kind), sum.access[k],
                       perf.totals().access[k]);
        ok &= expectEq(perfKindName(kind), sum.bad[k],
                       perf.totals().bad[k]);
    }
    ok &= expectEq("sum(phase cycles)", sum.cycles(),
                   perf.totals().cycles());
    return ok;
}

/**
 * Per-method cells (including the unattributed bucket) must sum to
 * the totals cell, counter by counter.
 */
bool
checkMethodSums(const obs::PerfAttribution &perf)
{
    obs::PerfCell sum;
    for (std::size_t row = 0; row <= perf.map().rows(); ++row)
        sum.merge(perf.methodCell(row));
    bool ok = expectEq("sum(method insts)", sum.insts,
                       perf.totals().insts);
    for (std::size_t k = 0; k < kNumPerfKinds; ++k) {
        const auto kind = static_cast<PerfKind>(k);
        ok &= expectEq(perfKindName(kind), sum.access[k],
                       perf.totals().access[k]);
        ok &= expectEq(perfKindName(kind), sum.bad[k],
                       perf.totals().bad[k]);
    }
    ok &= expectEq("sum(method cycles)", sum.cycles(),
                   perf.totals().cycles());
    return ok && checkPhaseSums(perf);
}

/** Totals vs the pipeline model's own aggregate statistics. */
bool
checkPipeline(const obs::PerfAttribution &perf, const PipelineSim &p)
{
    const obs::PerfCell &t = perf.totals();
    const auto k = [](PerfKind kind) {
        return static_cast<std::size_t>(kind);
    };
    bool ok = expectEq("events", perf.totalEvents(), p.instructions());
    ok &= expectEq("cycles", t.cycles(), p.cycles());
    ok &= expectEq("icache accesses", t.access[k(PerfKind::ICacheFetch)],
                   p.icache().stats().reads);
    ok &= expectEq("icache misses", t.bad[k(PerfKind::ICacheFetch)],
                   p.icache().stats().readMisses);
    ok &= expectEq("dcache loads", t.access[k(PerfKind::DCacheLoad)],
                   p.dcache().stats().reads);
    ok &= expectEq("dcache load misses", t.bad[k(PerfKind::DCacheLoad)],
                   p.dcache().stats().readMisses);
    ok &= expectEq("dcache stores", t.access[k(PerfKind::DCacheStore)],
                   p.dcache().stats().writes);
    ok &= expectEq("dcache store misses",
                   t.bad[k(PerfKind::DCacheStore)],
                   p.dcache().stats().writeMisses);
    ok &= expectEq("cond branches", t.access[k(PerfKind::CondBranch)],
                   p.condBranches());
    ok &= expectEq("cond mispredicts", t.bad[k(PerfKind::CondBranch)],
                   p.condMispredicts());
    ok &= expectEq("indirects", t.access[k(PerfKind::IndirectTarget)],
                   p.indirects());
    ok &= expectEq("indirect mispredicts",
                   t.bad[k(PerfKind::IndirectTarget)],
                   p.indirectMispredicts());
    return ok && checkMethodSums(perf);
}

/** Totals vs a bare split L1's statistics (no cycle model). */
bool
checkCaches(const obs::PerfAttribution &perf, const CacheSink &c)
{
    const obs::PerfCell &t = perf.totals();
    const auto k = [](PerfKind kind) {
        return static_cast<std::size_t>(kind);
    };
    bool ok =
        expectEq("icache accesses", t.access[k(PerfKind::ICacheFetch)],
                 c.icache().stats().reads);
    ok &= expectEq("icache misses", t.bad[k(PerfKind::ICacheFetch)],
                   c.icache().stats().readMisses);
    ok &= expectEq("dcache loads", t.access[k(PerfKind::DCacheLoad)],
                   c.dcache().stats().reads);
    ok &= expectEq("dcache load misses", t.bad[k(PerfKind::DCacheLoad)],
                   c.dcache().stats().readMisses);
    ok &= expectEq("dcache stores", t.access[k(PerfKind::DCacheStore)],
                   c.dcache().stats().writes);
    ok &= expectEq("dcache store misses",
                   t.bad[k(PerfKind::DCacheStore)],
                   c.dcache().stats().writeMisses);
    return ok && checkMethodSums(perf);
}

/** The method annotate shows when --method was not given: hottest
    (by attributed cycles, then events) with executed bytecode sites. */
std::string
defaultAnnotateTarget(const obs::PerfAttribution &perf)
{
    std::string best;
    std::uint64_t bestCycles = 0;
    std::uint64_t bestInsts = 0;
    for (std::size_t row = 0; row < perf.map().rows(); ++row) {
        const obs::PerfCell &cell = perf.methodCell(row);
        const std::string &name = perf.map().name(static_cast<int>(row));
        if (perf.annotateTable(name).numRows() == 0)
            continue;
        if (best.empty() || cell.cycles() > bestCycles
            || (cell.cycles() == bestCycles
                && cell.insts > bestInsts)) {
            best = name;
            bestCycles = cell.cycles();
            bestInsts = cell.insts;
        }
    }
    return best;
}

} // namespace

int
toolMain(int argc, char **argv)
{
    if (argc < 3)
        usage();
    const std::string command = argv[1];
    if (command != "report" && command != "annotate")
        usage("unknown command (expect report or annotate)");
    const WorkloadInfo *w = findWorkload(argv[2]);
    if (w == nullptr)
        usage("unknown workload");

    // Interpreted runs have bytecode sites to annotate; JIT runs are
    // the interesting default for whole-method CPI stacks.
    std::string mode = command == "annotate" ? "interp" : "jit";
    std::int32_t arg = w->smallArg;
    std::string model = "pipeline";
    std::size_t topN = 10;
    std::uint64_t window = 0;
    std::string methodName;
    obs::ObsCli cli;
    obs::GcCli gcCli;
    obs::CodeCacheCli ccCli;
    for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (a == "--mode") {
            mode = next();
        } else if (a == "--arg") {
            arg = static_cast<std::int32_t>(
                parseU64(next(), "--arg"));
        } else if (a == "--tiny") {
            arg = w->tinyArg;
        } else if (a == "--model") {
            model = next();
            if (model != "pipeline" && model != "cache")
                usage("--model expects pipeline or cache");
        } else if (a == "--top") {
            topN = parseU64(next(), "--top");
        } else if (a == "--window") {
            window = parseU64(next(), "--window");
        } else if (a == "--method") {
            methodName = next();
        } else if (cli.tryParse(a, next)
                   || gcCli.tryParse(a, next)
                   || ccCli.tryParse(a, next)) {
            continue;
        } else {
            usage("unknown option");
        }
    }

    cli.setup();

    // One live run feeds every model and profiler (the Shade step:
    // the VM drives the simulators directly).
    const Program prog = w->build();
    const auto map =
        std::make_shared<obs::MethodMap>(obs::MethodMap::follow(prog));
    EngineConfig cfg;
    cfg.policy = parseMode(mode);
    cfg.codeObserver = map.get();
    gcCli.apply(cfg);
    ccCli.apply(cfg);
    std::shared_ptr<SharedCodeCache> sharedCache;
    if (ccCli.sharedCodeCache) {
        sharedCache = std::make_shared<SharedCodeCache>();
        cfg.sharedCodeCache = sharedCache;
        cfg.sharedProgramKey = w->name;
    }

    obs::PerfOptions popt;
    popt.timelineWindow = window;
    popt.program = &prog;

    // The perf pass rides the chosen model, the CCT and the sampler
    // ride the pipeline (the same one in pipeline mode).
    obs::Observers profs = cli.observers(*map, popt);
    if (profs.perf == nullptr)
        profs.perf = std::make_unique<obs::PerfAttribution>(*map, popt);
    PipelineSim pipe{PipelineConfig{}};
    CacheSink caches(CacheConfig{}, CacheConfig{});
    MultiSink models;
    if (model == "pipeline") {
        profs.attachTo(pipe);
        models.add(&pipe);
    } else {
        caches.observe(*profs.perf);
        models.add(&caches);
        if (profs.cct != nullptr)
            pipe.observe(*profs.cct);
        if (profs.sampler != nullptr)
            pipe.observe(*profs.sampler);
        if (profs.cct != nullptr || profs.sampler != nullptr)
            models.add(&pipe);
    }
    cfg.sink = &models;
    ExecutionEngine engine(prog, cfg);
    const RunResult res = engine.run(arg);
    if (!res.completed) {
        std::cerr << w->name << " did not complete: "
                  << (res.uncaughtException != nullptr
                          ? res.uncaughtException
                          : "unknown")
                  << '\n';
        return 1;
    }
    const obs::PerfAttribution &perf = *profs.perf;
    const std::string label = std::string(w->name) + "/" + mode;
    obs::ObsReports reports;
    profs.addTo(reports, label);

    std::cout << w->name << " --mode " << mode << " --arg " << arg
              << " (" << model << " model): exit=" << res.exitValue
              << ", " << withCommas(perf.totalEvents()) << " events";
    if (model == "pipeline") {
        std::cout << ", " << withCommas(pipe.cycles())
                  << " cycles, IPC " << fixed(pipe.ipc(), 3);
    }
    if (gcCli.enabled()) {
        std::cout << ", " << gc::collectorName(cfg.gc.collector)
                  << ": " << res.gcStats.collections
                  << " collections / "
                  << withCommas(res.gcStats.gcEvents)
                  << " collector events";
    }
    std::cout << '\n';

    if (command == "report") {
        std::cout << "\nper-phase attribution (mutator vs "
                     "collector):\n";
        perf.phaseTable().print(std::cout);
        std::cout << "\nper-method attribution (top " << topN
                  << " by cycles):\n";
        perf.methodTable(topN).print(std::cout);
        if (perf.hasOpcodes()) {
            Table ops = perf.opcodeTable(topN);
            if (ops.numRows() > 0) {
                std::cout << "\nper-opcode attribution (top " << topN
                          << " by events, interpreted only):\n";
                ops.print(std::cout);
            }
        }
        if (window != 0) {
            std::cout << "\ntimeline: " << perf.timeline().size()
                      << " windows of " << withCommas(window)
                      << " events\n";
        }
    } else {
        std::string target = methodName;
        if (target.empty()) {
            target = defaultAnnotateTarget(perf);
            if (target.empty()) {
                std::cerr << "no interpreted bytecode sites to "
                             "annotate (try --mode interp)\n";
                return 1;
            }
        }
        Table t = perf.annotateTable(target);
        if (t.numRows() == 0) {
            std::cerr << "no executed bytecode sites for method '"
                      << target << "' (try --mode interp, and see "
                      << "the method column of `jrs_perf report`)\n";
            return 1;
        }
        std::cout << "\nper-bytecode attribution of " << target
                  << ":\n";
        t.print(std::cout);
    }

    bool conserved;
    if (model == "pipeline") {
        conserved = checkPipeline(perf, pipe);
        conserved &= profs.conserves(pipe, std::cerr);
    } else {
        // The perf pass rode the caches, so checkCaches holds it; the
        // CCT and the sampler rode the pipeline.
        conserved = checkCaches(perf, caches);
        std::unique_ptr<obs::PerfAttribution> onCaches =
            std::move(profs.perf);
        conserved &= profs.conserves(pipe, std::cerr);
        profs.perf = std::move(onCaches);
    }
    cli.write(reports.cct, cli.cctJson, std::cout, cli.flame);

    if (profs.sampler != nullptr) {
        const prof::SamplingProfiler &sampler = *profs.sampler;
        std::cout << "\nsampled profile: "
                  << withCommas(sampler.samples()) << " samples (period "
                  << sampler.options().period << ", seed "
                  << sampler.options().seed << ")\n";
        cli.write(reports.sample, cli.sampleJson, std::cout);
    }

    std::cout << "\nconservation vs model aggregates: "
              << (conserved ? "OK" : "FAILED") << '\n';

    if (window != 0 && !cli.traceJson.empty())
        perf.emitCounterTracks(obs::tracer(), w->name);
    cli.write(reports.perf, cli.perfJson, std::cout);
    cli.finish(std::cout);
    return conserved ? 0 : 1;
}

int
main(int argc, char **argv)
{
    try {
        return toolMain(argc, argv);
    } catch (const std::exception &e) {
        // A report file that cannot be written, or a VM fault: report
        // it rather than terminate.
        std::cerr << "jrs_perf: " << e.what() << '\n';
        return 1;
    }
}
