/**
 * @file
 * Set-associative cache model (the cachesim5 stand-in).
 *
 * True-LRU replacement, configurable size / line size / associativity,
 * write-allocate or write-no-allocate. Statistics are kept both in
 * total and split by execution phase so the translate-vs-rest analyses
 * of Figures 3 and 5 fall out directly. CacheSink adapts the trace
 * stream to a split L1: every event's pc touches the I-cache, loads and
 * stores touch the D-cache; its observers (arch/outcome.h) see each
 * access as an Outcome of the event's Step.
 */
#ifndef JRS_ARCH_CACHE_CACHE_H
#define JRS_ARCH_CACHE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "arch/outcome.h"
#include "isa/trace.h"

namespace jrs {

/** Static cache parameters. */
struct CacheConfig {
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t lineBytes = 32;
    std::uint32_t assoc = 2;
    bool writeAllocate = true;

    std::uint32_t numSets() const {
        return sizeBytes / (lineBytes * assoc);
    }
};

/** Access counters. */
struct CacheStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;

    std::uint64_t accesses() const { return reads + writes; }
    std::uint64_t misses() const { return readMisses + writeMisses; }
    double missRate() const {
        return accesses() == 0
            ? 0.0
            : static_cast<double>(misses())
                / static_cast<double>(accesses());
    }
    /** Fraction of misses that are write misses (Figure 3). */
    double writeMissFraction() const {
        return misses() == 0
            ? 0.0
            : static_cast<double>(writeMisses)
                / static_cast<double>(misses());
    }
};

/** One cache level. */
class Cache {
  public:
    explicit Cache(CacheConfig cfg);

    /**
     * Access @p addr. @return true on hit. Updates total and per-phase
     * stats. Inline: every modelled instruction makes one or two.
     */
    bool access(std::uint64_t addr, bool is_write, Phase phase);

    /** Hit check without state change (tests). */
    bool probe(std::uint64_t addr) const;

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return total_; }
    const CacheStats &phaseStats(Phase p) const {
        return perPhase_[static_cast<std::size_t>(p)];
    }

    /** Misses outside a given phase (Fig 5's "rest of JIT"). */
    CacheStats statsExcluding(Phase p) const;

    void resetStats();

  private:
    CacheConfig cfg_;
    std::uint32_t lineShift_;
    std::uint32_t setMask_;
    /**
     * numSets x assoc tags, one set after another, each in MRU-first
     * order. 0 marks an empty way; empty ways trail the valid ones.
     * Tags carry a valid bit, so 0 never matches a lookup.
     */
    std::vector<std::uint64_t> tags_;
    CacheStats total_;
    CacheStats perPhase_[kNumPhases];
};

inline bool
Cache::access(std::uint64_t addr, bool is_write, Phase phase)
{
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t tag = line | 0x8000'0000'0000'0000ull;  // valid
    std::uint64_t *const set =
        tags_.data()
        + (static_cast<std::size_t>(line) & setMask_) * cfg_.assoc;

    CacheStats &ps = perPhase_[static_cast<std::size_t>(phase)];
    if (is_write) {
        ++total_.writes;
        ++ps.writes;
    } else {
        ++total_.reads;
        ++ps.reads;
    }

    if (set[0] == tag)
        return true;  // MRU hit: nothing moves
    // Ways [0, i) are valid and miss; i stops at a hit, the first
    // empty way, or the set's end.
    std::size_t i = 0;
    while (i < cfg_.assoc && set[i] != tag && set[i] != 0)
        ++i;
    const bool hit = i < cfg_.assoc && set[i] == tag;
    if (!hit) {
        if (is_write) {
            ++total_.writeMisses;
            ++ps.writeMisses;
        } else {
            ++total_.readMisses;
            ++ps.readMisses;
        }
        if (is_write && !cfg_.writeAllocate)
            return false;  // write-around: no fill
        // Fill an empty way, or evict the LRU way when the set is full.
        if (i == cfg_.assoc)
            --i;
    }
    // Move (or install) the tag at MRU, shifting ways [0, i) down.
    for (std::size_t j = i; j > 0; --j)
        set[j] = set[j - 1];
    set[0] = tag;
    return hit;
}

/** Split L1 fed from the trace stream. */
class CacheSink : public TraceSink {
  public:
    CacheSink(CacheConfig icfg, CacheConfig dcfg)
        : icache_(icfg), dcache_(dcfg) {}

    /**
     * Observers get one Step per event: an Outcome per access with
     * penalty 0 (a bare cache charges no cycles) and no CPI stack.
     */
    void onEvent(const TraceEvent &ev) override {
        const bool ihit = icache_.access(ev.pc, false, ev.phase);
        bool dhit = true;
        if (ev.kind == NKind::Load)
            dhit = dcache_.access(ev.mem, false, ev.phase);
        else if (ev.kind == NKind::Store)
            dhit = dcache_.access(ev.mem, true, ev.phase);
        if (!observers_.empty()) {
            Step &s = observers_.open(ev);
            s.add(PerfKind::ICacheFetch, !ihit);
            if (ev.kind == NKind::Load)
                s.add(PerfKind::DCacheLoad, !dhit);
            else if (ev.kind == NKind::Store)
                s.add(PerfKind::DCacheStore, !dhit);
            observers_.commit();
        }
    }
    void onFinish() override { observers_.finish(); }

    Cache &icache() { return icache_; }
    Cache &dcache() { return dcache_; }
    const Cache &icache() const { return icache_; }
    const Cache &dcache() const { return dcache_; }

    /** Feed @p o as PipelineSim::observe does (cache outcomes only). */
    void observe(StreamObserver &o) { observers_.add(o); }

  private:
    Cache icache_;
    Cache dcache_;
    ObserverList observers_;
};

} // namespace jrs

#endif // JRS_ARCH_CACHE_CACHE_H
