#include "arch/cache/cache.h"

#include "vm/runtime/vm_error.h"

namespace jrs {

namespace {

std::uint32_t
log2u(std::uint32_t v)
{
    std::uint32_t s = 0;
    while ((1u << s) < v)
        ++s;
    return s;
}

bool
isPow2(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(CacheConfig cfg)
    : cfg_(cfg)
{
    if (!isPow2(cfg.lineBytes) || !isPow2(cfg.sizeBytes) || cfg.assoc == 0
        || cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) != 0
        || !isPow2(cfg.numSets())) {
        throw VmError("bad cache configuration");
    }
    lineShift_ = log2u(cfg.lineBytes);
    setMask_ = cfg.numSets() - 1;
    tags_.assign(static_cast<std::size_t>(cfg.numSets()) * cfg.assoc, 0);
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t tag = line | 0x8000'0000'0000'0000ull;
    const std::uint64_t *const set =
        tags_.data()
        + (static_cast<std::size_t>(line) & setMask_) * cfg_.assoc;
    for (std::uint32_t i = 0; i < cfg_.assoc; ++i) {
        if (set[i] == tag)
            return true;
    }
    return false;
}

CacheStats
Cache::statsExcluding(Phase p) const
{
    CacheStats out;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
        if (i == static_cast<std::size_t>(p))
            continue;
        out.reads += perPhase_[i].reads;
        out.writes += perPhase_[i].writes;
        out.readMisses += perPhase_[i].readMisses;
        out.writeMisses += perPhase_[i].writeMisses;
    }
    return out;
}

void
Cache::resetStats()
{
    total_ = CacheStats();
    for (auto &p : perPhase_)
        p = CacheStats();
}

} // namespace jrs
