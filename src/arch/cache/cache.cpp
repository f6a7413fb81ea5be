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
    sets_.resize(cfg.numSets());
    for (auto &s : sets_)
        s.reserve(cfg.assoc);
}

bool
Cache::access(std::uint64_t addr, bool is_write, Phase phase)
{
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t tag = line | 0x8000'0000'0000'0000ull;  // valid
    auto &set = sets_[static_cast<std::size_t>(line) & setMask_];

    CacheStats &ps = perPhase_[static_cast<std::size_t>(phase)];
    if (is_write) {
        ++total_.writes;
        ++ps.writes;
    } else {
        ++total_.reads;
        ++ps.reads;
    }

    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i] == tag) {
            // Hit: move to MRU position.
            for (std::size_t j = i; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = tag;
            return true;
        }
    }

    // Miss.
    if (is_write) {
        ++total_.writeMisses;
        ++ps.writeMisses;
    } else {
        ++total_.readMisses;
        ++ps.readMisses;
    }
    if (is_write && !cfg_.writeAllocate)
        return false;  // write-around: no fill

    if (set.size() < cfg_.assoc) {
        set.insert(set.begin(), tag);
    } else {
        for (std::size_t j = set.size() - 1; j > 0; --j)
            set[j] = set[j - 1];
        set[0] = tag;
    }
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t tag = line | 0x8000'0000'0000'0000ull;
    const auto &set = sets_[static_cast<std::size_t>(line) & setMask_];
    for (std::uint64_t t : set) {
        if (t == tag)
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
