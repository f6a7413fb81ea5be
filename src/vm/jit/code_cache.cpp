#include "vm/jit/code_cache.h"

#include <algorithm>
#include <string>

#include "vm/runtime/vm_error.h"

namespace jrs {

const char *
evictionPolicyName(EvictionPolicy p)
{
    switch (p) {
    case EvictionPolicy::kFifo: return "fifo";
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kCost: return "cost";
    case EvictionPolicy::kCostPerByte: return "costpb";
    }
    return "?";
}

bool
parseEvictionPolicy(const std::string &name, EvictionPolicy *out)
{
    if (name == "fifo")
        *out = EvictionPolicy::kFifo;
    else if (name == "lru")
        *out = EvictionPolicy::kLru;
    else if (name == "cost")
        *out = EvictionPolicy::kCost;
    else if (name == "costpb")
        *out = EvictionPolicy::kCostPerByte;
    else
        return false;
    return true;
}

const char *
allocStrategyName(AllocStrategy s)
{
    switch (s) {
    case AllocStrategy::kFirstFit: return "first";
    case AllocStrategy::kBestFit: return "best";
    }
    return "?";
}

bool
parseAllocStrategy(const std::string &name, AllocStrategy *out)
{
    if (name == "first" || name == "firstfit" || name == "first-fit")
        *out = AllocStrategy::kFirstFit;
    else if (name == "best" || name == "bestfit" || name == "best-fit")
        *out = AllocStrategy::kBestFit;
    else
        return false;
    return true;
}

std::size_t
ExtentAllocator::allocate(std::size_t bytes)
{
    // Free extents sit below the cursor, so scanning them first keeps
    // fit-by-address exact for both strategies.
    auto chosen = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
        if (it->second < bytes)
            continue;
        if (strategy_ == AllocStrategy::kFirstFit) {
            chosen = it;
            break;
        }
        // Best-fit: smallest fitting extent; the in-order scan makes
        // the lowest address win ties.
        if (chosen == free_.end() || it->second < chosen->second)
            chosen = it;
        if (chosen->second == bytes)
            break;
    }
    if (chosen != free_.end()) {
        const std::size_t off = chosen->first;
        const std::size_t remain = chosen->second - bytes;
        free_.erase(chosen);
        if (remain != 0)
            free_.emplace(off + bytes, remain);
        return off;
    }
    if (cursor_ + bytes <= limit_) {
        const std::size_t off = cursor_;
        cursor_ += bytes;
        return off;
    }
    return kNone;
}

void
ExtentAllocator::release(std::size_t off, std::size_t bytes)
{
    auto [it, ok] = free_.emplace(off, bytes);
    (void)ok;
    // Coalesce with the predecessor…
    if (it != free_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            free_.erase(it);
            it = prev;
        }
    }
    // …and the successor.
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        free_.erase(next);
    }
    // Retreat the bump cursor over any top extent (cascades so a fully
    // drained allocator returns to cursor 0 and eviction loops
    // terminate).
    while (!free_.empty()) {
        auto top = std::prev(free_.end());
        if (top->first + top->second != cursor_)
            break;
        cursor_ = top->first;
        free_.erase(top);
    }
}

std::size_t
ExtentAllocator::freeBytes() const
{
    std::size_t total = 0;
    for (const auto &[off, sz] : free_)
        total += sz;
    return total;
}

double
ExtentAllocator::fragmentation() const
{
    const std::size_t bytes = freeBytes();
    if (bytes == 0)
        return 0.0;
    return static_cast<double>(free_.size()) /
           (static_cast<double>(bytes) / 1024.0);
}

CodeCache::CodeCache(const CodeCacheConfig &cfg)
    : cfg_(cfg), alloc_(usableLimit(), cfg.strategy)
{
}

std::size_t
CodeCache::usableLimit() const
{
    if (!bounded())
        return cfg_.segmentLimit;
    return std::min(cfg_.capacityBytes, cfg_.segmentLimit);
}

MethodId
CodeCache::pickVictim() const
{
    // Deterministic regardless of hash-map iteration order: minimize
    // (criterion, installSeq).
    bool have = false;
    MethodId victim = 0;
    std::uint64_t bestKey = 0, bestSeq = 0;
    for (const auto &[id, e] : methods_) {
        std::uint64_t key = 0;
        switch (cfg_.policy) {
        case EvictionPolicy::kFifo: key = e.installSeq; break;
        case EvictionPolicy::kLru: key = e.lastUse; break;
        case EvictionPolicy::kCost:
            key = costFn_ ? costFn_(id) : 0;
            break;
        case EvictionPolicy::kCostPerByte:
            // Scaled integer cost density: cost per extent byte in
            // 1/4096ths, so small relative differences survive the
            // integer division (extents are 64-byte multiples).
            key = costFn_ ? costFn_(id) * 4096 /
                                std::max<std::size_t>(e.extentBytes, 1)
                          : 0;
            break;
        }
        if (!have || key < bestKey ||
            (key == bestKey && e.installSeq < bestSeq)) {
            have = true;
            victim = id;
            bestKey = key;
            bestSeq = e.installSeq;
        }
    }
    return victim;
}

bool
CodeCache::evictOne()
{
    if (methods_.empty())
        return false;
    return uninstall(pickVictim());
}

const NativeMethod *
CodeCache::install(std::unique_ptr<NativeMethod> nm)
{
    if (methods_.count(nm->id) != 0) {
        const std::string name =
            nm->src != nullptr ? nm->src->name
                               : ("#" + std::to_string(nm->id));
        throw VmError("method compiled twice without uninstall: " +
                      name);
    }
    const std::size_t extent =
        (nm->codeBytes() + 63) & ~std::size_t{63};
    std::size_t off = alloc_.allocate(extent);
    if (off == ExtentAllocator::kNone && bounded()) {
        while (off == ExtentAllocator::kNone && evictOne())
            off = alloc_.allocate(extent);
    }
    if (off == ExtentAllocator::kNone) {
        if (!bounded())
            throw VmError(
                "code cache overflows its segment: cursor " +
                std::to_string(alloc_.cursorBytes()) + " + " +
                std::to_string(extent) + " bytes exceeds limit " +
                std::to_string(usableLimit()));
        // Bounded, cache emptied, and the method alone still does not
        // fit: report failure so the engine keeps interpreting it.
        return nullptr;
    }
    nm->codeBase = seg::kCodeCache + off;
    const MethodId id = nm->id;
    Entry e;
    e.nm = std::move(nm);
    e.extentBytes = extent;
    e.installSeq = installSeq_++;
    e.lastUse = lookups_.load(std::memory_order_relaxed);
    liveBytes_ += extent;
    auto [it, ok] = methods_.emplace(id, std::move(e));
    (void)ok;
    if (installHook_)
        installHook_(*it->second.nm);
    return it->second.nm.get();
}

bool
CodeCache::uninstall(MethodId id)
{
    auto it = methods_.find(id);
    if (it == methods_.end())
        return false;
    Entry &e = it->second;
    if (hook_)
        hook_(*e.nm);
    ++evictions_;
    bytesEvicted_ += e.extentBytes;
    liveBytes_ -= e.extentBytes;
    alloc_.release(
        static_cast<std::size_t>(e.nm->codeBase - seg::kCodeCache),
        e.extentBytes);
    e.nm->retired = true;
    retired_.push_back(std::move(e.nm));
    methods_.erase(it);
    return true;
}

const NativeMethod *
CodeCache::lookup(MethodId id) const
{
    const std::uint64_t tick =
        lookups_.fetch_add(1, std::memory_order_relaxed) + 1;
    auto it = methods_.find(id);
    if (it == methods_.end()) {
        lookupMisses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    // Safe despite const: lookup() is only called from the VM thread;
    // concurrent observers read the atomic counters, never entries.
    const_cast<Entry &>(it->second).lastUse = tick;
    return it->second.nm.get();
}

std::vector<const NativeMethod *>
CodeCache::all() const
{
    std::vector<const NativeMethod *> out;
    out.reserve(methods_.size());
    for (const auto &[id, e] : methods_)
        out.push_back(e.nm.get());
    std::sort(out.begin(), out.end(),
              [](const NativeMethod *a, const NativeMethod *b) {
                  return a->codeBase < b->codeBase;
              });
    return out;
}

} // namespace jrs
