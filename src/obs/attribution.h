/**
 * @file
 * Hot-method attribution: join a phase-tagged native stream with the
 * method map and report where the instructions went.
 *
 * The paper's whole method is counting phase-tagged native
 * instructions; this pass adds the "which *method* was that?"
 * dimension JXPerf-style tools provide. A MethodMap records the two
 * kinds of simulated address ranges that identify a method:
 *
 *  - its bytecode range in seg::kClassData (what the interpreter
 *    fetches and the translator reads), and
 *  - its generated-code range in seg::kCodeCache (what the native
 *    executor's pc walks and the translator's install stores hit).
 *
 * AttributionSink replays any recorded stream against that map:
 *
 *  - NativeExec events attribute by pc range;
 *  - Interpret events attribute to the method of the last bytecode
 *    fetch — the interpreter begins every step with a fetch from
 *    `bytecodeAddr + pc`, so this is exact per interpreted step;
 *  - Translate events attribute to the method whose bytecode the
 *    translator last read (or whose code it last installed);
 *  - Runtime events attribute to the last interpreted/native method,
 *    i.e. the method that called into the runtime.
 *
 * The join is entirely offline: it needs only the TraceEvent stream
 * plus the map, so it works on replayed `.jrstrace` recordings as
 * well as live runs. Events seen before any mapped access land in a
 * "(unattributed)" bucket, and per-phase sums always equal the
 * stream's per-phase totals (conservation; tested in test_obs.cpp).
 */
#ifndef JRS_OBS_ATTRIBUTION_H
#define JRS_OBS_ATTRIBUTION_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/address_map.h"
#include "isa/trace.h"
#include "support/table.h"
#include "vm/jit/code_cache.h"
#include "vm/runtime/class_registry.h"

namespace jrs::obs {

/** Simulated-address-range -> method index; see file comment. */
class MethodMap {
  public:
    /**
     * Register [lo, hi) as belonging to @p name. Ranges of the same
     * name (bytecode + generated code) share one row. Empty ranges
     * are ignored. Ranges must not overlap.
     */
    void add(SimAddr lo, SimAddr hi, const std::string &name);

    /**
     * Every method of a finished run: bytecode ranges from the
     * registry's program, generated-code ranges from the code cache.
     */
    static MethodMap forRun(const ClassRegistry &registry,
                            const CodeCache &cache);

    /** Row owning @p addr, or -1. */
    int rowOf(SimAddr addr) const;

    /**
     * The largest run of addresses around one address that resolve
     * alike: a mapped range (row >= 0) or the gap between two ranges
     * (row == -1). Every address in [lo, hi) has rowOf() == row.
     */
    struct Span {
        SimAddr lo = 0;
        SimAddr hi = 0;
        int row = -1;
    };

    /** The Span holding @p addr (hi saturates at the top address). */
    Span spanOf(SimAddr addr) const;

    /**
     * False when no range touches @p addr's 256 MiB segment (the
     * seg:: layout of isa/address_map.h), so rowOf(addr) is -1
     * without a search. Segments at or above index 63 share one bit.
     */
    bool segmentMapped(SimAddr addr) const {
        return (segments_ >> segmentIndex(addr)) & 1u;
    }

    /** Name of @p row. */
    const std::string &name(int row) const { return names_[row]; }

    /** Number of distinct method names. */
    std::size_t rows() const { return names_.size(); }

    /**
     * Visit every registered range in address order as
     * fn(lo, hi, name). Feeding the visits back through add()
     * reconstructs an identical map (trace-cache persistence).
     */
    template <typename Fn>
    void forEachRange(Fn &&fn) const {
        for (const Range &r : ranges_)
            fn(r.lo, r.hi, names_[r.row]);
    }

  private:
    struct Range {
        SimAddr lo;
        SimAddr hi;
        int row;
    };

    static unsigned segmentIndex(SimAddr addr) {
        const SimAddr index = addr / seg::kSegmentSize;
        return index < 63 ? static_cast<unsigned>(index) : 63u;
    }

    std::vector<Range> ranges_;  ///< kept sorted by lo
    std::vector<std::string> names_;
    std::uint64_t segments_ = 0;  ///< bit per segment any range touches
};

/**
 * The streaming half of the attribution join: tracks which method is
 * "current" per the phase rules in the file comment and resolves each
 * TraceEvent to a MethodMap row (-1 = unattributed). Shared by
 * AttributionSink (event counting) and PerfAttribution (outcome and
 * CPI-stack folding, obs/perf.h) so both agree on every event.
 *
 * Lookups take a fast path that returns exactly MethodMap::rowOf:
 * addresses in segments no range touches (the heap and the thread
 * stacks, which most interpreted loads hit) resolve to -1 at once,
 * and the last few Spans looked up are cached, since consecutive
 * events nearly always fall in the same method or gap.
 */
class MethodContext {
  public:
    /** @p map must outlive the context. */
    explicit MethodContext(const MethodMap &map) : map_(&map) {}

    /** map.rowOf(@p addr), through the fast path above. */
    int rowOf(SimAddr addr) {
        if (!map_->segmentMapped(addr))
            return -1;
        for (const MethodMap::Span &sp : spans_) {
            if (addr - sp.lo < sp.hi - sp.lo)
                return sp.row;
        }
        const MethodMap::Span sp = map_->spanOf(addr);
        spans_[nextSpan_] = sp;
        nextSpan_ = (nextSpan_ + 1) % kSpans;
        return sp.row;
    }

    /** Resolve @p ev's method row, updating the phase contexts. */
    int observe(const TraceEvent &ev) {
        int row = -1;
        switch (ev.phase) {
          case Phase::NativeExec:
            row = rowOf(ev.pc);
            if (row >= 0)
                lastRunning_ = row;
            break;
          case Phase::Interpret:
            if (ev.kind == NKind::Load) {
                const int r = rowOf(ev.mem);
                if (r >= 0)
                    curInterp_ = r;
            }
            row = curInterp_;
            if (row >= 0)
                lastRunning_ = row;
            break;
          case Phase::Translate:
            if (isMemory(ev.kind)) {
                const int r = rowOf(ev.mem);
                if (r >= 0)
                    curTranslate_ = r;
            }
            row = curTranslate_;
            break;
          case Phase::Runtime:
            row = lastRunning_;
            break;
          case Phase::Gc:
            // Collector work belongs to no method: the mutator it
            // interrupted did not ask for it.
            row = -1;
            break;
        }
        return row;
    }

  private:
    /** Cached spans, replaced round-robin; empty spans match nothing. */
    static constexpr std::size_t kSpans = 4;

    const MethodMap *map_;
    MethodMap::Span spans_[kSpans];
    std::size_t nextSpan_ = 0;
    int curInterp_ = -1;     ///< method of the last bytecode fetch
    int curTranslate_ = -1;  ///< method the translator last touched
    int lastRunning_ = -1;   ///< last interp/native attribution
};

/** One row of an attribution report. */
struct AttributedMethod {
    std::string name;
    std::uint64_t events = 0;
    /** Share of the phase's total events, in percent. */
    double pct = 0.0;
};

/** Offline joining sink; see file comment. */
class AttributionSink : public TraceSink {
  public:
    /** @p map must outlive the sink. */
    explicit AttributionSink(const MethodMap &map);

    void onEvent(const TraceEvent &ev) override;

    /** Total events observed. */
    std::uint64_t totalEvents() const { return total_; }

    /** Events observed in @p phase. */
    std::uint64_t phaseEvents(Phase phase) const {
        return phaseTotals_[static_cast<std::size_t>(phase)];
    }

    /** Events in @p phase attributed to a real method. */
    std::uint64_t attributed(Phase phase) const;

    /**
     * Top @p n methods of @p phase by event count, descending
     * (ties broken by name for deterministic output). The
     * "(unattributed)" bucket is included when it is non-zero.
     */
    std::vector<AttributedMethod> top(Phase phase,
                                      std::size_t n) const;

    /** Render top(phase, n) as a table: rank, method, events, pct. */
    Table phaseTable(Phase phase, std::size_t n) const;

  private:
    const MethodMap *map_;
    MethodContext ctx_;
    /** Per row (rows() entries + trailing unattributed bucket). */
    std::vector<std::uint64_t> counts_;  ///< row-major [row][phase]
    std::uint64_t phaseTotals_[kNumPhases] = {};
    std::uint64_t total_ = 0;
};

} // namespace jrs::obs

#endif // JRS_OBS_ATTRIBUTION_H
