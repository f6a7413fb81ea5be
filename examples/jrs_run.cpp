/**
 * @file
 * jrs_run — the command-line front door to the workbench.
 *
 *   jrs_run <workload> [options]
 *
 *   --arg N           workload size (default: its bench size)
 *   --mode M          interp | jit | counter:N | oracle   (default jit)
 *   --sync S          thin | monitor-cache | one-bit      (default thin)
 *   --inline          enable JIT inlining/devirtualization
 *   --fold            enable interpreter dispatch folding
 *   --code-cache-bytes N   bound the JIT code cache (0 = unlimited)
 *   --code-cache-policy P  eviction policy: fifo | lru | cost | costpb
 *   --code-cache-alloc S   extent placement: first | best
 *   --osr-back-edges N     on-stack replacement threshold (0 = off)
 *   --shared-code-cache    fetch translations via a shared cache
 *   --report R[,R...] summary | mix | cache | bpred | ipc | locks | all
 *
 * Examples:
 *   jrs_run db --mode oracle --report summary,locks
 *   jrs_run jess --mode jit --inline --report mix,ipc
 *   jrs_run compress --mode interp --fold --report bpred
 */
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "arch/bpred/predictors.h"
#include "isa/trace_io.h"
#include "arch/cache/cache.h"
#include "arch/mix/instruction_mix.h"
#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "obs/cli.h"
#include "support/statistics.h"
#include "support/table.h"

using namespace jrs;

namespace {

struct Options {
    const WorkloadInfo *workload = nullptr;
    std::int32_t arg = 0;
    std::string mode = "jit";
    std::uint64_t counterThreshold = 8;
    SyncKind sync = SyncKind::ThinLock;
    bool inlining = false;
    bool folding = false;
    std::string report = "summary";
    std::string traceOut;
    obs::CodeCacheCli codeCacheCli;
};

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg != nullptr)
        std::cerr << "error: " << msg << "\n\n";
    std::cerr
        << "usage: jrs_run <workload> [--arg N] [--mode "
           "interp|jit|counter:N|oracle]\n"
           "               [--sync thin|monitor-cache|one-bit] "
           "[--inline] [--fold]\n"
           "               [--report summary,mix,cache,bpred,ipc,"
           "locks | all] [--trace-out F]\n              "
        << obs::CodeCacheCli::usageText() << "\n\nworkloads:";
    for (const WorkloadInfo &w : allWorkloads())
        std::cerr << ' ' << w.name;
    std::cerr << '\n';
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Options o;
    o.workload = findWorkload(argv[1]);
    if (o.workload == nullptr)
        usage("unknown workload");
    o.arg = o.workload->smallArg;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (a == "--arg") {
            o.arg = std::atoi(next().c_str());
        } else if (a == "--mode") {
            o.mode = next();
            if (o.mode.rfind("counter:", 0) == 0) {
                o.counterThreshold = std::strtoull(
                    o.mode.c_str() + 8, nullptr, 10);
                o.mode = "counter";
            }
            if (o.mode != "interp" && o.mode != "jit"
                && o.mode != "counter" && o.mode != "oracle") {
                usage("bad --mode");
            }
        } else if (a == "--sync") {
            const std::string s = next();
            if (s == "thin")
                o.sync = SyncKind::ThinLock;
            else if (s == "monitor-cache")
                o.sync = SyncKind::MonitorCache;
            else if (s == "one-bit")
                o.sync = SyncKind::OneBitLock;
            else
                usage("bad --sync");
        } else if (a == "--inline") {
            o.inlining = true;
        } else if (a == "--fold") {
            o.folding = true;
        } else if (a == "--report") {
            o.report = next();
        } else if (a == "--trace-out") {
            o.traceOut = next();
        } else if (o.codeCacheCli.tryParse(a, next)) {
            // handled
        } else {
            usage("unknown option");
        }
    }
    if (o.report == "all")
        o.report = "summary,mix,cache,bpred,ipc,locks";
    return o;
}

bool
wants(const Options &o, const char *section)
{
    return ("," + o.report + ",").find(std::string(",") + section + ",")
        != std::string::npos;
}

std::shared_ptr<CompilationPolicy>
makePolicy(const Options &o, const Program &prog)
{
    if (o.mode == "interp")
        return std::make_shared<NeverCompilePolicy>();
    if (o.mode == "counter")
        return std::make_shared<CounterPolicy>(o.counterThreshold);
    if (o.mode == "oracle") {
        // Two profiling runs, then the derived per-method decisions.
        EngineConfig c1;
        c1.policy = std::make_shared<NeverCompilePolicy>();
        ExecutionEngine e1(prog, c1);
        const RunResult interp = e1.run(o.arg);
        EngineConfig c2;
        c2.policy = std::make_shared<AlwaysCompilePolicy>();
        ExecutionEngine e2(prog, c2);
        const RunResult jit = e2.run(o.arg);
        return std::make_shared<OraclePolicy>(
            computeOracleDecisions(interp.profiles, jit.profiles));
    }
    return std::make_shared<AlwaysCompilePolicy>();
}

/** Run the workload once and print the requested reports. */
int
run(const Options &o)
{
    const Program prog = o.workload->build();

    InstructionMix mix;
    CacheSink caches({64 * 1024, 32, 2, true},
                     {64 * 1024, 32, 4, true});
    PredictorBank bpred;
    PipelineConfig pc4;
    pc4.issueWidth = 4;
    PipelineSim pipe(pc4);
    MultiSink sinks;
    if (wants(o, "mix"))
        sinks.add(&mix);
    if (wants(o, "cache"))
        sinks.add(&caches);
    if (wants(o, "bpred"))
        sinks.add(&bpred);
    if (wants(o, "ipc"))
        sinks.add(&pipe);
    std::unique_ptr<TraceFileWriter> trace_writer;
    if (!o.traceOut.empty()) {
        trace_writer = std::make_unique<TraceFileWriter>(o.traceOut);
        sinks.add(trace_writer.get());
    }

    EngineConfig cfg;
    cfg.policy = makePolicy(o, prog);
    cfg.syncKind = o.sync;
    cfg.jitInlining = o.inlining;
    cfg.interpreterFolding = o.folding;
    o.codeCacheCli.apply(cfg);
    std::shared_ptr<SharedCodeCache> sharedCache;
    if (o.codeCacheCli.sharedCodeCache) {
        // One engine means every fetch is a first request, but the
        // path (and its accounting) is the same one the sweep
        // workers share.
        sharedCache = std::make_shared<SharedCodeCache>();
        cfg.sharedCodeCache = sharedCache;
        cfg.sharedProgramKey = o.workload->name;
    }
    cfg.sink = &sinks;
    ExecutionEngine engine(prog, cfg);
    const RunResult res = engine.run(o.arg);

    std::cout << o.workload->name << " arg=" << o.arg << " mode="
              << o.mode << " sync=" << syncKindName(o.sync)
              << (o.inlining ? " +inline" : "")
              << (o.folding ? " +fold" : "") << "\n";
    if (!res.completed) {
        std::cout << "FAILED: "
                  << (res.uncaughtException ? res.uncaughtException
                                            : "incomplete")
                  << "\n";
        return 1;
    }

    if (wants(o, "summary")) {
        std::cout << "\nchecksum " << res.exitValue << "\n"
                  << "simulated instructions "
                  << withCommas(res.totalEvents) << " (interp "
                  << fixed(percent(res.inPhase(Phase::Interpret),
                                   res.totalEvents), 1)
                  << "%, translate "
                  << fixed(percent(res.inPhase(Phase::Translate),
                                   res.totalEvents), 1)
                  << "%, native "
                  << fixed(percent(res.inPhase(Phase::NativeExec),
                                   res.totalEvents), 1)
                  << "%, runtime "
                  << fixed(percent(res.inPhase(Phase::Runtime),
                                   res.totalEvents), 1)
                  << "%)\nmethods compiled " << res.methodsCompiled
                  << ", call sites inlined " << res.callsInlined
                  << ", dispatches folded " << res.dispatchesFolded
                  << "\ncode cache: evictions "
                  << res.codeCacheEvictions << " ("
                  << withCommas(res.codeCacheBytesEvicted)
                  << " bytes), retranslations " << res.retranslations
                  << ", fragmentation "
                  << fixed(res.codeCacheFreeBytes == 0
                               ? 0.0
                               : static_cast<double>(
                                     res.codeCacheFreeExtents)
                                   / (static_cast<double>(
                                          res.codeCacheFreeBytes)
                                      / 1024.0),
                           2)
                  << "\nmemory: interp-equivalent "
                  << withCommas(res.memory.interpreterTotal() / 1024)
                  << " KiB, with JIT "
                  << withCommas(res.memory.jitTotal() / 1024)
                  << " KiB\n";
        if (sharedCache != nullptr) {
            std::cout << "shared cache: hits "
                      << res.sharedTranslationHits << ", misses "
                      << res.sharedTranslationMisses << ", build "
                      << withCommas(res.translateBuildNs)
                      << " ns, saved "
                      << withCommas(res.translateBuildNsSaved)
                      << " ns\n";
        }
    }
    if (wants(o, "mix")) {
        std::cout << "\ninstruction mix:\n";
        Table t({"category", "share%"});
        t.addRow({"memory", fixed(mix.pct(mix.memoryOps()), 2)});
        t.addRow({"int", fixed(mix.pct(mix.intOps()), 2)});
        t.addRow({"fp", fixed(mix.pct(mix.fpOps()), 2)});
        t.addRow({"control", fixed(mix.pct(mix.controlOps()), 2)});
        t.addRow({"indirect", fixed(mix.pct(mix.indirectOps()), 2)});
        t.print(std::cout);
    }
    if (wants(o, "cache")) {
        std::cout << "\nL1 (64K, 32B; I 2-way, D 4-way):\n";
        Table t({"cache", "refs", "misses", "miss%", "wmiss%"});
        const CacheStats &ic = caches.icache().stats();
        const CacheStats &dc = caches.dcache().stats();
        t.addRow({"I", withCommas(ic.accesses()),
                  withCommas(ic.misses()),
                  fixed(100.0 * ic.missRate(), 3), "-"});
        t.addRow({"D", withCommas(dc.accesses()),
                  withCommas(dc.misses()),
                  fixed(100.0 * dc.missRate(), 3),
                  fixed(100.0 * dc.writeMissFraction(), 1)});
        t.print(std::cout);
    }
    if (wants(o, "bpred")) {
        std::cout << "\nbranch prediction:\n";
        Table t({"scheme", "mispredict%"});
        for (const PredictorResult &r : bpred.results())
            t.addRow({r.name, fixed(100.0 * r.mispredictRate(), 2)});
        t.addRow({"(indirect via btb)",
                  fixed(percent(bpred.btbMisses(), bpred.indirects()),
                        2)});
        t.print(std::cout);
    }
    if (wants(o, "ipc")) {
        std::cout << "\npipeline (4-wide OOO): IPC "
                  << fixed(pipe.ipc(), 2) << " over "
                  << withCommas(pipe.cycles()) << " cycles, "
                  << withCommas(pipe.mispredicts())
                  << " mispredicts\n";
    }
    if (trace_writer) {
        std::cout << "trace: " << withCommas(
                         trace_writer->eventsWritten())
                  << " events -> " << o.traceOut << "\n";
    }
    if (wants(o, "locks")) {
        std::cout << "\nsynchronization (" << syncKindName(o.sync)
                  << "):\n";
        Table t({"case", "count"});
        for (std::size_t c = 0; c < kNumLockCases; ++c) {
            t.addRow({lockCaseName(static_cast<LockCase>(c)),
                      withCommas(res.lockStats.caseCount[c])});
        }
        t.addRow({"total cycles",
                  withCommas(res.lockStats.simCycles)});
        t.addRow({"blocks", withCommas(res.lockStats.blocks)});
        t.print(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    try {
        return run(o);
    } catch (const std::exception &e) {
        // A trace file that cannot be opened or flushed, or a VM
        // fault: report it rather than terminate.
        std::cerr << "jrs_run: " << e.what() << "\n";
        return 1;
    }
}
