/**
 * @file
 * The JIT code cache: owns translated methods and assigns them
 * simulated addresses inside seg::kCodeCache. Methods are installed
 * with 64-byte alignment, so consecutively compiled methods are
 * adjacent — the layout property whose cache behaviour the paper
 * discusses (Section 4.3).
 *
 * The cache is *managed*: with a capacity configured it evicts
 * translations under a pluggable policy (FIFO, LRU-by-dispatch,
 * cheapest-to-retranslate, or cheapest-per-extent-byte) and reuses the
 * freed extents through a coalescing free list held by an
 * ExtentAllocator (first-fit or best-fit). The default capacity is
 * unlimited, in which case nothing is ever evicted and allocation
 * degenerates to the historical bump cursor — bit-identical layout and
 * accounting.
 *
 * Eviction never frees host memory for a NativeMethod: native frames
 * hold raw pointers across calls, so evicted methods are retired into
 * a side vector and only their *simulated* extent is recycled.
 */
#ifndef JRS_VM_JIT_CODE_CACHE_H
#define JRS_VM_JIT_CODE_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vm/jit/native_inst.h"

namespace jrs {

/** Victim-selection policy for a bounded code cache. */
enum class EvictionPolicy : std::uint8_t {
    kFifo,        ///< oldest installation first
    kLru,         ///< least recently dispatched (by lookup() tick) first
    kCost,        ///< cheapest to retranslate (per the cost callback) first
    kCostPerByte, ///< cheapest retranslate cost per extent byte first
};

/** Stable lowercase name ("fifo", "lru", "cost", "costpb"). */
const char *evictionPolicyName(EvictionPolicy p);

/** Parse an eviction-policy name. @return false on unknown name. */
bool parseEvictionPolicy(const std::string &name, EvictionPolicy *out);

/** Placement strategy for recycled extents. */
enum class AllocStrategy : std::uint8_t {
    kFirstFit, ///< lowest-address fitting extent (historical default)
    kBestFit,  ///< smallest fitting extent, lowest address on ties
};

/** Stable lowercase name ("first", "best"). */
const char *allocStrategyName(AllocStrategy s);

/** Parse an allocation-strategy name. @return false on unknown name. */
bool parseAllocStrategy(const std::string &name, AllocStrategy *out);

/** Configuration for a CodeCache. Defaults reproduce the unmanaged
 *  (unbounded, never-evicting) historical behaviour exactly. */
struct CodeCacheConfig {
    /** Capacity in simulated bytes; 0 = unlimited (no eviction). */
    std::size_t capacityBytes = 0;
    /** Victim selection when bounded. */
    EvictionPolicy policy = EvictionPolicy::kFifo;
    /** Free-extent placement strategy. */
    AllocStrategy strategy = AllocStrategy::kFirstFit;
    /**
     * Hard ceiling of the backing segment. Generated code must never
     * cross it (beyond lies seg::kRuntimeCode and phase attribution
     * breaks). Defaults to the real segment size; tests shrink it to
     * exercise overflow without gigabytes of simulated code.
     */
    std::size_t segmentLimit = seg::kSegmentSize;
};

/**
 * A coalescing extent allocator over one address range [0, limit).
 *
 * Extents are handed out either from the free list (first-fit or
 * best-fit) or from a bump cursor at the top of the used region.
 * Releases coalesce with both neighbours and retreat the cursor over
 * any freed top extent, so a fully drained allocator returns to
 * cursor 0. All offsets and sizes are caller-aligned (the code cache
 * uses multiples of 64); the allocator itself imposes no granularity.
 *
 * Shared by CodeCache (per-engine simulated placement) and
 * SharedCodeCache (process-wide artifact byte accounting).
 */
class ExtentAllocator {
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};

    ExtentAllocator() = default;
    ExtentAllocator(std::size_t limit, AllocStrategy strategy)
        : limit_(limit), strategy_(strategy)
    {
    }

    /** Allocate @p bytes; @return offset, or kNone if nothing fits. */
    std::size_t allocate(std::size_t bytes);

    /** Return [off, off+bytes) to the free list, coalescing. */
    void release(std::size_t off, std::size_t bytes);

    /** Shrink/grow the ceiling (existing allocations unaffected). */
    void setLimit(std::size_t limit) { limit_ = limit; }

    std::size_t limit() const { return limit_; }
    AllocStrategy strategy() const { return strategy_; }

    /** High-water mark of the bump cursor. */
    std::size_t cursorBytes() const { return cursor_; }

    /** Total bytes sitting on the free list. */
    std::size_t freeBytes() const;

    /** Number of discrete free-list extents. */
    std::size_t freeExtents() const { return free_.size(); }

    /**
     * Fragmentation gauge: free extents per free KiB
     * (freeExtents / (freeBytes/1024)); 0 when nothing is free. A
     * perfectly coalesced free list scores low, a shattered one high.
     */
    double fragmentation() const;

  private:
    /** Free extents keyed by offset (so first-fit = lowest address). */
    std::map<std::size_t, std::size_t> free_;
    std::size_t cursor_ = 0;
    std::size_t limit_ = seg::kSegmentSize;
    AllocStrategy strategy_ = AllocStrategy::kFirstFit;
};

/**
 * Told as generated code comes and goes and as the executor moves
 * between compiled methods, so a consumer of the trace stream can
 * tell which method owns each native pc at each point of the run
 * (obs::MethodMap::follow). @p at is the number of trace events
 * emitted before the notice: the change holds from event @p at on.
 */
class CodeObserver {
  public:
    virtual ~CodeObserver() = default;

    /** @p nm now occupies its code range (before its install stores). */
    virtual void onInstall(const NativeMethod &nm, std::uint64_t at) = 0;

    /** @p nm's range is about to be recycled; its frames may still run. */
    virtual void onEvict(const NativeMethod &nm, std::uint64_t at) = 0;

    /**
     * The executor is about to step a frame of @p nm, and the last
     * native frame it stepped belonged to another method.
     */
    virtual void onNativeFrame(const NativeMethod &nm,
                               std::uint64_t at) = 0;
};

/** Owner of all NativeMethods produced in a run. */
class CodeCache {
  public:
    /** Retranslation-cost oracle for EvictionPolicy::kCost (the engine
     *  supplies observed per-method translation cost). */
    using CostFn = std::function<std::uint64_t(MethodId)>;
    /** Invoked just before a method's extent is recycled. */
    using EvictionHook = std::function<void(const NativeMethod &)>;
    /** Invoked once a method has its codeBase, before install returns. */
    using InstallHook = std::function<void(const NativeMethod &)>;

    CodeCache() : alloc_(cfg_.segmentLimit, cfg_.strategy) {}
    explicit CodeCache(const CodeCacheConfig &cfg);
    CodeCache(const CodeCache &) = delete;
    CodeCache &operator=(const CodeCache &) = delete;

    /**
     * Install @p nm: assigns its codeBase and takes ownership.
     *
     * Allocation comes from the free list under the configured
     * strategy (first-fit by default), falling back to the bump
     * cursor. When bounded and space is short, methods are evicted per
     * the configured policy until the new method fits. Installing a
     * method whose id is still live without an intervening uninstall()
     * throws VmError (a double-compile is an engine bug); reinstall
     * after eviction or uninstall is legal.
     *
     * @return the installed method, or nullptr when bounded and the
     *         method alone exceeds capacity (caller keeps
     *         interpreting it).
     * @throws VmError on double-install of a live method, or when
     *         unbounded growth would cross the segment limit.
     */
    const NativeMethod *install(std::unique_ptr<NativeMethod> nm);

    /**
     * Drop @p id's translation: its extent returns to the free list
     * (coalescing with neighbours; the bump cursor retreats when the
     * top extent frees) and the NativeMethod is retired, not
     * destroyed — live native frames may still reference it.
     * @return true if the method was live.
     */
    bool uninstall(MethodId id);

    /** Translated method for @p id, or nullptr. */
    const NativeMethod *lookup(MethodId id) const;

    /** Simulated bytes of live generated code (64-byte extents). */
    std::size_t codeBytes() const { return liveBytes_; }

    /** High-water mark of the bump cursor, in simulated bytes. */
    std::size_t cursorBytes() const { return alloc_.cursorBytes(); }

    /** Total bytes sitting on the free list. */
    std::size_t freeBytes() const { return alloc_.freeBytes(); }

    /** Number of discrete free-list extents (coalescing visibility). */
    std::size_t freeExtents() const { return alloc_.freeExtents(); }

    /** Free-list fragmentation gauge (see ExtentAllocator). */
    double fragmentation() const { return alloc_.fragmentation(); }

    /** Number of live (installed, not evicted) methods. */
    std::size_t numMethods() const { return methods_.size(); }

    /** Every live method, in code-cache address order. */
    std::vector<const NativeMethod *> all() const;

    /** lookup() calls so far (dispatch-count observability). */
    std::uint64_t lookups() const
    {
        return lookups_.load(std::memory_order_relaxed);
    }

    /** lookup() calls that found no translation. */
    std::uint64_t lookupMisses() const
    {
        return lookupMisses_.load(std::memory_order_relaxed);
    }

    /** Methods evicted or explicitly uninstalled so far. */
    std::uint64_t evictions() const { return evictions_; }

    /** Extent bytes recycled by those evictions. */
    std::uint64_t bytesEvicted() const { return bytesEvicted_; }

    /** Configured capacity (0 = unlimited). */
    std::size_t capacityBytes() const { return cfg_.capacityBytes; }

    /** Configured victim-selection policy. */
    EvictionPolicy policy() const { return cfg_.policy; }

    /** Configured free-extent placement strategy. */
    AllocStrategy strategy() const { return cfg_.strategy; }

    /** Set the retranslation-cost oracle for kCost eviction. */
    void setRetranslateCost(CostFn fn) { costFn_ = std::move(fn); }

    /** Set the pre-eviction notification hook. */
    void setEvictionHook(EvictionHook fn) { hook_ = std::move(fn); }

    /** Set the post-install notification hook. */
    void setInstallHook(InstallHook fn) { installHook_ = std::move(fn); }

  private:
    struct Entry {
        std::unique_ptr<NativeMethod> nm;
        std::size_t extentBytes = 0;  ///< 64-byte-aligned footprint
        std::uint64_t installSeq = 0; ///< FIFO order / tie-break
        std::uint64_t lastUse = 0;    ///< lookups() tick at last hit
    };

    bool bounded() const { return cfg_.capacityBytes != 0; }
    std::size_t usableLimit() const;
    /** Evict one method per policy. @return false if cache empty. */
    bool evictOne();
    MethodId pickVictim() const;

    CodeCacheConfig cfg_;
    std::unordered_map<MethodId, Entry> methods_;
    ExtentAllocator alloc_;
    /** Evicted methods, kept alive for outstanding native frames. */
    std::vector<std::unique_ptr<NativeMethod>> retired_;
    std::size_t liveBytes_ = 0;
    std::uint64_t installSeq_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t bytesEvicted_ = 0;
    CostFn costFn_;
    EvictionHook hook_;
    InstallHook installHook_;
    mutable std::atomic<std::uint64_t> lookups_{0};
    mutable std::atomic<std::uint64_t> lookupMisses_{0};
};

} // namespace jrs

#endif // JRS_VM_JIT_CODE_CACHE_H
