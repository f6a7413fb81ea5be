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
 * access as an Outcome.
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
     * stats.
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
    /** Per set: tags in MRU-first order (0 = invalid). */
    std::vector<std::vector<std::uint64_t>> sets_;
    CacheStats total_;
    CacheStats perPhase_[kNumPhases];
};

/** Split L1 fed from the trace stream. */
class CacheSink : public TraceSink {
  public:
    CacheSink(CacheConfig icfg, CacheConfig dcfg)
        : icache_(icfg), dcache_(dcfg) {}

    /**
     * Observers see each event first, then one Outcome per access:
     * Outcome::pc is the accessed address and the penalty is 0 (a
     * bare cache charges no cycles).
     */
    void onEvent(const TraceEvent &ev) override {
        observers_.event(ev);
        const bool ihit = icache_.access(ev.pc, false, ev.phase);
        observers_.report(ev.pc, PerfKind::ICacheFetch, ev.phase, !ihit);
        if (ev.kind == NKind::Load) {
            const bool hit = dcache_.access(ev.mem, false, ev.phase);
            observers_.report(ev.mem, PerfKind::DCacheLoad, ev.phase,
                              !hit);
        } else if (ev.kind == NKind::Store) {
            const bool hit = dcache_.access(ev.mem, true, ev.phase);
            observers_.report(ev.mem, PerfKind::DCacheStore, ev.phase,
                              !hit);
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
