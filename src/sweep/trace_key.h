/**
 * @file
 * Stream identity for the sweep engine.
 *
 * A TraceKey names one dynamic native stream — workload, input size,
 * execution mode, monitor implementation, scheduling quantum,
 * collector, heap, code cache, OSR, and the JRSTRACE format version.
 * The sweep engine runs the VM once per distinct key and feeds every
 * point of that key from the one run (sweep.h).
 */
#ifndef JRS_SWEEP_TRACE_KEY_H
#define JRS_SWEEP_TRACE_KEY_H

#include <cstdint>
#include <memory>
#include <string>

#include "harness/experiment.h"

namespace jrs::sweep {

/** How the recorded VM run executes bytecode. */
struct ExecMode {
    enum class Kind : std::uint8_t { Interp, Jit, Counter };

    Kind kind = Kind::Jit;
    /** Invocation threshold when kind == Counter. */
    std::uint64_t counterThreshold = 8;

    /** Filename-safe identity: "interp", "jit", "counter8". */
    std::string id() const;

    /** Fresh policy instance implementing this mode. */
    std::shared_ptr<CompilationPolicy> makePolicy() const;

    static ExecMode interp() { return {Kind::Interp, 0}; }
    static ExecMode jit() { return {Kind::Jit, 0}; }
    static ExecMode counter(std::uint64_t threshold) {
        return {Kind::Counter, threshold};
    }
};

/** Identity of one dynamic stream: what a sweep groups points by. */
struct TraceKey {
    std::string workload;          ///< registry name ("compress")
    std::int32_t arg = 0;          ///< 0 = the workload's smallArg
    ExecMode mode;
    SyncKind sync = SyncKind::ThinLock;
    std::uint64_t quantum = 300;   ///< green-thread time slice
    /** Collector configuration baked into the stream (GC events!). */
    gc::GcOptions gc;
    /** Heap arena capacity of the recorded run. */
    std::size_t heapBytes = kDefaultHeapBytes;
    /** Code-cache bound, eviction policy and extent-allocation
     *  strategy of the recorded run (eviction changes the stream:
     *  retranslations, interp fallback; allocation placement changes
     *  generated-code addresses). */
    CodeCacheConfig codeCache;
    /** OSR back-edge threshold of the recorded run (0 = OSR off).
     *  OSR changes the stream: loop-dominated methods transfer into
     *  native code mid-frame. */
    std::uint64_t osrBackEdgeThreshold = 0;

    /**
     * Canonical, filename-safe string, e.g.
     * "compress-a0-jit-thin_lock-q300-v1", which names every sweep
     * result row and profiler report. The trailing v component
     * versions the stream the key names, not a file encoding of it
     * (the JRSTRACE version). Collector and heap components
     * ("-marksweep", "-h33554432", "-gb65536", "-ge8"), code-cache
     * components ("-cc65536-lru", "-bestfit") and the OSR component
     * ("-osr64") appear only when non-default, so every pre-existing
     * key is unchanged. A SharedCodeCache is deliberately NOT part of
     * the key: shared and private translation produce bit-identical
     * streams.
     */
    std::string str() const;

    /** RunSpec that generates this stream; throws on unknown workload. */
    RunSpec toRunSpec() const;
};

/** Convenience TraceKey builder. */
TraceKey traceKey(const std::string &workload, ExecMode mode,
                  std::int32_t arg = 0,
                  SyncKind sync = SyncKind::ThinLock);

} // namespace jrs::sweep

#endif // JRS_SWEEP_TRACE_KEY_H
