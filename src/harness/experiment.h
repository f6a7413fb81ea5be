/**
 * @file
 * Experiment harness: one-call execution of (workload, policy, sinks)
 * combinations, plus the paper's three-run oracle procedure.
 *
 * Every bench binary is a thin layer over these helpers: it attaches
 * the architecture models it needs as TraceSinks, runs the suite, and
 * formats the table/figure rows.
 */
#ifndef JRS_HARNESS_EXPERIMENT_H
#define JRS_HARNESS_EXPERIMENT_H

#include <functional>
#include <memory>

#include "isa/trace_buffer.h"
#include "obs/attribution.h"
#include "vm/engine/engine.h"
#include "workloads/workload.h"

namespace jrs {

/** What to run and how. */
struct RunSpec {
    const WorkloadInfo *workload = nullptr;
    std::int32_t arg = 0;           ///< 0 = workload's smallArg
    std::shared_ptr<CompilationPolicy> policy;  ///< null = AlwaysCompile
    SyncKind syncKind = SyncKind::ThinLock;
    TraceSink *sink = nullptr;
    std::uint64_t quantum = 300;
    /** Collector configuration (default: the GC-less arena). */
    gc::GcOptions gc;
    /** Heap arena capacity in bytes. */
    std::size_t heapBytes = kDefaultHeapBytes;
    /** Code-cache management (default: unlimited, never evicts). */
    CodeCacheConfig codeCache;
    /** On-stack-replacement back-edge threshold (0 disables). */
    std::uint64_t osrBackEdgeThreshold = 0;
    /**
     * Process-wide shared translation cache (null = private
     * translation). The program key passed to the engine is the
     * workload name, so only same-workload runs share artifacts.
     */
    std::shared_ptr<SharedCodeCache> sharedCache;
};

/**
 * Builds what observes a run that names its methods as it goes:
 * called with the run's method map (obs::MethodMap::follow, attached
 * to the engine) before the VM starts, it returns the sink to feed
 * (null for none). The map changes while the run goes on; a sink may
 * keep it for as long as it likes.
 */
using AttachFn = std::function<TraceSink *(
    const std::shared_ptr<const obs::MethodMap> &)>;

/**
 * Build the workload's program, run it, and return the result.
 * spec.sink (when set) observes the stream live, as the VM emits it;
 * nothing is recorded. With @p attach, the sink it returns observes
 * the stream too (after spec.sink), resolving methods against a map
 * that follows the run. Throws VmError when the run does not complete
 * cleanly (benches and tests should never tolerate a broken guest
 * program).
 */
RunResult runWorkload(const RunSpec &spec, const AttachFn &attach = {});

/**
 * One completed run captured for offline replay: the VM's RunResult
 * plus the full dynamic native stream. The shared_ptr lets many
 * consumers (possibly on different threads) share one recording.
 */
struct RecordedRun {
    RunResult result;
    /** The stream (null for a run that was observed live). */
    std::shared_ptr<const TraceBuffer> trace;
    /**
     * Method map of the run. recordWorkload builds it with
     * MethodMap::forRun before the engine is torn down, so offline
     * attribution passes (obs/perf.h) can join the replayed stream
     * with method names; it maps only the code still installed at the
     * end, so under eviction the stream's evicted code is misnamed.
     * A live sweep group carries its followed map here instead.
     */
    std::shared_ptr<const obs::MethodMap> methods;
};

/**
 * Run @p spec once with a TraceBuffer attached (fanned out alongside
 * spec.sink when that is set) and return the result together with the
 * recorded stream. This is the Shade step: record the stream once,
 * then feed it to any number of offline architecture models.
 */
RecordedRun recordWorkload(const RunSpec &spec);

/** Interp + JIT results for one workload (shared arg and sinks). */
struct ModePair {
    RunResult interp;
    RunResult jit;
};

/**
 * Run a workload twice: pure interpretation (optionally observed by
 * @p interp_sink) and compile-everything (@p jit_sink).
 */
ModePair runBothModes(const WorkloadInfo &w, std::int32_t arg,
                      TraceSink *interp_sink, TraceSink *jit_sink);

/** Outcome of the paper's Section 3 oracle experiment. */
struct OracleOutcome {
    RunResult interpRun;   ///< profiling run 1: pure interpretation
    RunResult jitRun;      ///< profiling run 2: compile everything
    RunResult oracleRun;   ///< the "opt" run with per-method decisions
    std::vector<bool> decisions;
    std::size_t methodsCompiledByOracle = 0;
};

/**
 * Execute the three-run oracle procedure on a workload; @p oracle_sink
 * (may be null) observes only the final opt run.
 */
OracleOutcome runOracleExperiment(const WorkloadInfo &w,
                                  std::int32_t arg,
                                  TraceSink *oracle_sink = nullptr);

} // namespace jrs

#endif // JRS_HARNESS_EXPERIMENT_H
