/**
 * @file
 * The mixed-mode execution engine — the core public API of jrs.
 *
 * An ExecutionEngine loads a Program and runs it under a configurable
 * runtime system: compilation policy (interpret / JIT / counter /
 * oracle), monitor implementation, green-thread quantum, and an
 * optional TraceSink receiving every simulated native instruction.
 * Interpreted and compiled frames interleave freely on the same call
 * stack; invocations are routed per-method.
 *
 * Typical use:
 * @code
 *   EngineConfig cfg;
 *   cfg.policy = std::make_shared<AlwaysCompilePolicy>();
 *   cfg.sink = &myCacheModel;
 *   ExecutionEngine engine(program, cfg);
 *   RunResult res = engine.run(100);
 * @endcode
 */
#ifndef JRS_VM_ENGINE_ENGINE_H
#define JRS_VM_ENGINE_ENGINE_H

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "gc/collector.h"
#include "gc/config.h"
#include "vm/engine/context.h"
#include "vm/engine/policy.h"
#include "vm/engine/profile.h"
#include "vm/interp/interpreter.h"
#include "vm/jit/code_cache.h"
#include "vm/jit/translator.h"
#include "vm/native/executor.h"

namespace jrs::gc {
class GcController;
} // namespace jrs::gc

namespace jrs {

/** Engine configuration. */
struct EngineConfig {
    /** Compilation policy (defaults to compile-on-first-invocation). */
    std::shared_ptr<CompilationPolicy> policy;
    /** Monitor implementation. */
    SyncKind syncKind = SyncKind::ThinLock;
    /** Observer of the native instruction stream (may be null). */
    TraceSink *sink = nullptr;
    /**
     * Told of every code-cache install and eviction and of each move
     * between compiled methods, stamped with the stream position
     * (vm/jit/code_cache.h; may be null). Notices never change the
     * stream.
     */
    CodeObserver *codeObserver = nullptr;
    /** Green-thread time slice, in stepper steps. */
    std::uint64_t quantum = 300;
    /** Safety cap on simulated instructions (0 = unlimited). */
    std::uint64_t maxEvents = 0;
    /** Heap arena size in bytes. */
    std::size_t heapBytes = kDefaultHeapBytes;
    /**
     * JIT method inlining + monomorphic devirtualization (the paper's
     * Section 7 proposal). Off by default: the baseline experiments
     * model the paper's non-inlining JITs.
     */
    bool jitInlining = false;
    /**
     * Interpreter dispatch folding (picoJava-style superinstructions,
     * paper Section 4.4). Off by default.
     */
    bool interpreterFolding = false;
    /**
     * On-stack replacement: when an interpreted frame takes this many
     * backward branches, compile its method and transfer the live
     * frame into native code (0 disables). OSR triggers independently
     * of the invocation policy — the tiered-VM combination the
     * counter-threshold ablation shows is necessary for loop-dominated
     * methods.
     */
    std::uint64_t osrBackEdgeThreshold = 0;
    /**
     * Garbage collection (off by default). With gc.collector set the
     * engine installs allocation safepoints and collector work shows
     * up as Phase::Gc trace events; with it off, behaviour — digests,
     * traces, cycle counts — is bit-identical to a GC-less build.
     */
    gc::GcOptions gc;
    /**
     * Code-cache management (vm/jit/code_cache.h). Default is
     * unlimited capacity — no eviction, layout and accounting
     * bit-identical to the unmanaged cache. With a capacity set,
     * translations are evicted under the configured policy; evicted
     * methods fall back to the interpreter and the counter policy is
     * re-armed so they must earn retranslation.
     */
    CodeCacheConfig codeCache;
    /**
     * Process-wide shared translation cache (vm/jit/shared_cache.h).
     * Null (default) keeps translation fully private. When set, the
     * engine fetches address-independent translation artifacts through
     * it — building at most once per compatibility key across all
     * participating engines — while installing per-engine clones in
     * its own code cache, so the trace stream stays bit-identical to a
     * private run. Requires sharedProgramKey.
     */
    std::shared_ptr<SharedCodeCache> sharedCodeCache;
    /**
     * Program identity for the shared-cache compatibility key
     * (typically the workload name). Engines running different
     * programs must pass different keys; ignored without
     * sharedCodeCache.
     */
    std::string sharedProgramKey;
};

/** Memory-footprint accounting (Table 1). */
struct MemoryFootprint {
    std::size_t classDataBytes = 0;   ///< bytecode + metadata + statics
    std::size_t heapBytes = 0;        ///< objects and arrays allocated
    std::size_t stackBytes = 0;       ///< thread stack high-water marks
    std::size_t codeCacheBytes = 0;   ///< JIT-generated code
    std::size_t translatorBytes = 0;  ///< peak compiler working memory
    /**
     * Fixed image sizes, calibrated against JDK-1.1-era footprints:
     * the interpreter VM image (loader, verifier, libraries) and the
     * additional JIT compiler image.
     */
    static constexpr std::size_t kInterpImageBytes = 500u << 10;
    static constexpr std::size_t kJitImageBytes = 64u << 10;

    /** Total for an interpreter-only runtime. */
    std::size_t interpreterTotal() const {
        return classDataBytes + heapBytes + stackBytes
            + kInterpImageBytes;
    }
    /**
     * Total for a runtime with the JIT: compiler image, generated code
     * plus per-method metadata (maps, handler tables — roughly 2x the
     * code itself), and the compiler's peak working arena.
     */
    std::size_t jitTotal() const {
        return interpreterTotal() + kJitImageBytes
            + 3 * codeCacheBytes + translatorBytes;
    }
};

/** Result of ExecutionEngine::run. */
struct RunResult {
    bool completed = false;  ///< main thread ran to completion
    /** Diagnostic name of an uncaught exception, or nullptr. */
    const char *uncaughtException = nullptr;
    bool hasExitValue = false;
    std::int32_t exitValue = 0;        ///< entry method's return value
    std::string output;                ///< print-intrinsic output

    std::uint64_t totalEvents = 0;     ///< simulated native instructions
    std::uint64_t phaseEvents[kNumPhases] = {};
    std::uint64_t bytecodesInterpreted = 0;
    std::uint64_t nativeInstsRetired = 0;
    std::uint64_t methodsCompiled = 0;
    std::uint64_t callsInlined = 0;
    std::uint64_t callsDevirtualized = 0;
    std::uint64_t dispatchesFolded = 0;
    std::uint64_t osrTransitions = 0;
    /** Methods evicted from a bounded code cache. */
    std::uint64_t codeCacheEvictions = 0;
    /** Simulated extent bytes recycled by those evictions. */
    std::uint64_t codeCacheBytesEvicted = 0;
    /** Successful translations of previously evicted methods. */
    std::uint64_t retranslations = 0;
    /** Free-extent bytes inside the code cache at end of run (0 when
     *  the allocator never released an extent). */
    std::uint64_t codeCacheFreeBytes = 0;
    /** Number of free extents those bytes are split across — together
     *  with codeCacheFreeBytes this is the fragmentation gauge. */
    std::uint64_t codeCacheFreeExtents = 0;
    /** Shared-cache artifacts this engine attached to without
     *  building (0 without a shared cache). */
    std::uint64_t sharedTranslationHits = 0;
    /** Shared-cache requests this engine built itself. */
    std::uint64_t sharedTranslationMisses = 0;
    /** Host ns this engine spent building translation artifacts. */
    std::uint64_t translateBuildNs = 0;
    /** Host ns shared hits saved this engine. */
    std::uint64_t translateBuildNsSaved = 0;
    /** Dynamic bytecode counts per opcode (interpreted steps only). */
    std::vector<std::uint64_t> bytecodeCounts;

    /** Threads spawned beyond the main thread. */
    std::uint32_t threadsSpawned = 0;
    /** Guest exceptions that reached the unwinder (caught or not). */
    std::uint64_t guestThrows = 0;
    /**
     * Order-sensitive FNV-1a hash over every guest throw: exception
     * class id, faulting method id, and faulting *bytecode* pc (native
     * frames are mapped back through bc2n so interpreted and compiled
     * runs of the same program hash identically). jrs::check compares
     * this across execution modes.
     */
    std::uint64_t throwChainHash = 14695981039346656037ull;

    ProfileTable profiles;
    LockStats lockStats;
    MemoryFootprint memory;
    /** Collection statistics (all zero when GC is off). */
    gc::GcStats gcStats;

    /** Events in a phase by enum. */
    std::uint64_t inPhase(Phase p) const {
        return phaseEvents[static_cast<std::size_t>(p)];
    }
};

/** The mixed-mode virtual machine. */
class ExecutionEngine : public EngineServices {
  public:
    /**
     * Create an engine for @p prog. The Program must outlive the
     * engine; @p cfg.sink (when set) must outlive run().
     */
    ExecutionEngine(const Program &prog, EngineConfig cfg);
    ~ExecutionEngine() override;

    ExecutionEngine(const ExecutionEngine &) = delete;
    ExecutionEngine &operator=(const ExecutionEngine &) = delete;

    /**
     * Run the program's entry method with @p arg. A fresh engine is
     * required per run (heap and code cache are not reset).
     */
    RunResult run(std::int32_t arg);

    // --- EngineServices -----------------------------------------------
    void invokeMethod(VmThread &thread, MethodId target,
                      const Value *args, std::uint8_t nargs) override;
    std::uint32_t spawnThread(MethodId target, Value arg) override;
    bool threadDone(std::uint32_t tid) const override;
    std::uint64_t eventCount() const override;

    /** Access to the sync system (examples and tests). */
    SyncSystem &sync() { return *sync_; }

    /** Access to the heap (tests). */
    Heap &heap() { return *heap_; }

    /** Access to the registry (tests). */
    ClassRegistry &registry() { return *registry_; }

    /** Access to the code cache (profilers build method maps from it). */
    const CodeCache &codeCache() const { return *cache_; }

    /**
     * Test hook: the compiled method whose frame the executor is
     * stepping, or null when the thread being stepped runs
     * interpreted code. Read it from a sink: while a NativeExec event
     * is delivered it names the method that emitted it.
     */
    const NativeMethod *steppingNative() const;

    /** The configured collector (CollectorKind::None when GC is off). */
    gc::CollectorKind collectorKind() const { return cfg_.gc.collector; }

    /** The GC controller, or nullptr when GC is off. */
    gc::GcController *gcController() { return gc_.get(); }

    /**
     * Relocation-independent digest of the currently reachable heap
     * (gc/live_digest.h). Meaningful for cross-collector comparison
     * once the run has finished and all frames have unwound.
     */
    std::uint64_t liveHeapHash();

  private:
    void unwind(VmThread &thread, SimAddr exception, const char *name);
    /** Attempt on-stack replacement of the top (interpreter) frame. */
    bool tryOsr(VmThread &thread);
    void deliverReturn(VmThread &thread, const StepResult &r);
    bool stepThread(VmThread &thread);  ///< one quantum; true if progress

    const Program &prog_;
    EngineConfig cfg_;

    // Order matters: heap before registry before everything else.
    std::unique_ptr<Heap> heap_;
    std::unique_ptr<ClassRegistry> registry_;
    TraceEmitter emitter_;
    MultiSink internalSink_;
    CountingSink counting_;
    std::unique_ptr<SyncSystem> sync_;
    std::unique_ptr<RuntimeSupport> runtime_;
    std::unique_ptr<CodeCache> cache_;
    std::unique_ptr<Translator> translator_;
    std::unique_ptr<VmContext> ctx_;
    std::unique_ptr<Interpreter> interp_;
    std::unique_ptr<NativeExecutor> exec_;

    std::vector<std::unique_ptr<VmThread>> threads_;
    /** Thread stepThread is running (steppingNative). */
    const VmThread *stepping_ = nullptr;
    /** Method of the native frame last reported to codeObserver. */
    const NativeMethod *lastNative_ = nullptr;
    std::unique_ptr<gc::GcController> gc_;
    ProfileTable profiles_;
    std::set<MethodId> uncompilable_;
    /**
     * Per-method invocation count at the moment of eviction: the
     * counter policy sees invocations *since* eviction, so a method
     * must re-earn compilation instead of being retranslated on its
     * first post-eviction call.
     */
    std::unordered_map<MethodId, std::uint64_t> rearmBase_;
    /** Observed cost (trace events) of each method's last translation;
     *  feeds the kCost eviction policy's cheapest-to-retranslate
     *  ranking. */
    std::unordered_map<MethodId, std::uint64_t> lastTranslateCost_;
    std::uint64_t retranslations_ = 0;
    std::uint64_t translateEventsThisStep_ = 0;
    std::uint64_t guestThrows_ = 0;
    std::uint64_t throwChainHash_ = 14695981039346656037ull;
    std::int32_t mainExitValue_ = 0;
    std::uint64_t osrTransitions_ = 0;
    bool mainHasExit_ = false;
    bool ran_ = false;
};

} // namespace jrs

#endif // JRS_VM_ENGINE_ENGINE_H
