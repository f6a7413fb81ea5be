/**
 * @file
 * Record-once trace store for the sweep engine.
 *
 * A TraceKey names one dynamic native stream — workload, input size,
 * execution mode, monitor implementation, scheduling quantum, and the
 * JRSTRACE format version. TraceCache::get() hands back the recording
 * for a key, producing it at most once per process: the first caller
 * records the (single-threaded) VM run; concurrent callers for the
 * same key block on that recording; later callers hit memory. With a
 * cache directory configured, recordings persist as
 * `<key>.jrstrace` + `<key>.jrstrace.meta` (+ `.jrstrace.methods`,
 * the method-map sidecar) and later processes load the stream instead
 * of re-running the VM.
 *
 * Disk-loaded runs restore only the headline RunResult fields kept in
 * the sidecar (completed / exitValue / totalEvents) plus the method
 * map; profile tables and footprints exist only in the recording
 * process.
 *
 * runLive() is the other way to consume a key: the VM feeds a sink
 * directly and nothing is stored. The sweep engine takes it for groups
 * that need no recording (see sweep.h), so a cold sweep neither pays
 * for nor holds the stream; a private in-memory cache therefore keeps
 * only the streams that such groups could not avoid recording.
 */
#ifndef JRS_SWEEP_TRACE_CACHE_H
#define JRS_SWEEP_TRACE_CACHE_H

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
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

/** Identity of one dynamic stream; the cache key. */
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
     * "compress-a0-jit-thin_lock-q300-v1". The trailing v component
     * is the JRSTRACE format version, so stale on-disk caches are
     * never picked up across format changes. Collector and heap
     * components ("-marksweep", "-h33554432", "-gb65536", "-ge8"),
     * code-cache components ("-cc65536-lru", "-bestfit") and the OSR
     * component ("-osr64") appear only when non-default, so every
     * pre-existing key — and its on-disk recording — is unchanged.
     * A SharedCodeCache is deliberately NOT part of the key: shared
     * and private translation produce bit-identical streams.
     */
    std::string str() const;

    /** RunSpec that generates this stream; throws on unknown workload. */
    RunSpec toRunSpec() const;
};

/** Convenience TraceKey builder. */
TraceKey traceKey(const std::string &workload, ExecMode mode,
                  std::int32_t arg = 0,
                  SyncKind sync = SyncKind::ThinLock);

/** See file comment. */
class TraceCache {
  public:
    struct Stats {
        std::uint64_t recordings = 0;  ///< VM runs executed
        std::uint64_t memoryHits = 0;  ///< served from process memory
        std::uint64_t diskLoads = 0;   ///< served from the directory
        /** Host ns the recorded runs spent building translations
         *  (RunResult::translateBuildNs summed over recordings; the
         *  number a shared cache shrinks). */
        std::uint64_t translateBuildNs = 0;
    };

    /**
     * @param dir On-disk store; "" keeps recordings in memory only.
     *            Created (with parents) when it does not exist.
     */
    explicit TraceCache(std::string dir = "");

    /**
     * The recording for @p key; records/loads at most once per key.
     * Thread-safe. A failed recording poisons the key: every waiter
     * and later caller receives the original exception.
     */
    std::shared_ptr<const RecordedRun> get(const TraceKey &key);

    /**
     * Run @p key's VM once with @p sink attached and record nothing:
     * the live path. Neither reads nor fills the store, so every call
     * runs the VM; it counts in Stats::recordings ("VM runs executed")
     * and in the trace_cache.recordings metric. Thread-safe. Throws
     * whatever the run throws (unknown workload, a guest that does not
     * complete). @p sink must not throw; wrap fallible sinks (the
     * sweep engine's fan-out guards each one).
     */
    RunResult runLive(const TraceKey &key, TraceSink &sink);

    /**
     * Route every VM run this cache performs through @p shared
     * (vm/jit/shared_cache.h): recordings fetch translation artifacts
     * from the process-wide cache instead of building privately. The
     * streams recorded are bit-identical either way — the shared
     * cache is a host-side translation-work saver, not a stream
     * component — so keys are unaffected. Null detaches.
     */
    void setSharedCache(std::shared_ptr<SharedCodeCache> shared);

    /** Counters so far (thread-safe snapshot). */
    Stats stats() const;

    /** Directory backing this cache ("" = memory only). */
    const std::string &dir() const { return dir_; }

  private:
    using Entry = std::shared_future<std::shared_ptr<const RecordedRun>>;

    std::shared_ptr<const RecordedRun> produce(const TraceKey &key);

    /** key.toRunSpec() routed through the shared translation cache. */
    RunSpec runSpecFor(const TraceKey &key) const;

    /** Count one VM run that built @p result. */
    void countRun(const RunResult &result);

    std::string dir_;
    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
    std::shared_ptr<SharedCodeCache> shared_;
    Stats stats_;
};

} // namespace jrs::sweep

#endif // JRS_SWEEP_TRACE_CACHE_H
