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
 * MethodContext joins a stream with that map (obs::PerfAttribution
 * counts what it joins, obs/perf.h):
 *
 *  - NativeExec events attribute by pc range (or to the evicted
 *    method still running there; see MethodMap::Change::Op::Pin);
 *  - Interpret events attribute to the method of the last bytecode
 *    fetch — the interpreter begins every step with a fetch from
 *    `bytecodeAddr + pc`, so this is exact per interpreted step;
 *  - Translate events attribute to the method whose bytecode the
 *    translator last read (or whose code it last installed);
 *  - Runtime events attribute to the last interpreted/native method,
 *    i.e. the method that called into the runtime.
 *
 * The join needs only the TraceEvent stream plus the map. A map that
 * follows its run (MethodMap::follow) names every event by the code as
 * it stood when the event ran, also under code-cache eviction; a map
 * of a finished run (MethodMap::forRun, for replaying a recording)
 * knows only the code still installed at the end, so a replay under
 * eviction charges evicted code to whatever holds its addresses at
 * the end, or to no method. Events seen before any mapped access
 * resolve to no method (PerfAttribution's "(unattributed)" bucket),
 * so per-phase sums always equal the stream's per-phase totals
 * (conservation; tested in test_obs.cpp).
 */
#ifndef JRS_OBS_ATTRIBUTION_H
#define JRS_OBS_ATTRIBUTION_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/address_map.h"
#include "isa/trace.h"
#include "vm/jit/code_cache.h"
#include "vm/runtime/class_registry.h"

namespace jrs::obs {

/** Simulated-address-range -> method index; see file comment. */
class MethodMap : public CodeObserver {
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
     * Only the code still installed at the end of the run is mapped,
     * so a replayed stream of a run that evicted code charges the
     * evicted methods' events to whatever holds their addresses at
     * the end (or leaves them unattributed); follow() has no such gap.
     */
    static MethodMap forRun(const ClassRegistry &registry,
                            const CodeCache &cache);

    /**
     * A map that follows a run of @p prog: the same rows and bytecode
     * ranges as forRun's, and generated-code ranges that change as the
     * engine the map is attached to (EngineConfig::codeObserver)
     * installs and evicts code — recorded as changes(), so every
     * consumer resolves each event against the code as it stood when
     * the event ran, however far behind the VM it reads. The log grows
     * during the run without locking: the engine and every consumer
     * must share one thread (a sweep group's do).
     */
    static MethodMap follow(const Program &prog);

    /**
     * Row owning @p addr, or -1. For a followed map this is the start
     * of the stream (bytecode only); MapView applies the changes.
     */
    int rowOf(SimAddr addr) const { return ranges_.rowOf(addr); }

    /**
     * A run of addresses that resolve alike: a mapped range
     * (row >= 0) or the gap between two ranges (row == -1).
     */
    struct Span {
        SimAddr lo = 0;
        SimAddr hi = 0;
        int row = -1;

        bool contains(SimAddr addr) const { return addr - lo < hi - lo; }
    };

    /** Name of @p row. */
    const std::string &name(int row) const { return names_[row]; }

    /** Number of distinct method names. */
    std::size_t rows() const { return names_.size(); }

    /** Visit every registered range in address order as
     *  fn(lo, hi, name). */
    template <typename Fn>
    void forEachRange(Fn &&fn) const {
        for (const Range &r : ranges_.ranges)
            fn(r.lo, r.hi, names_[r.row]);
    }

    /** One change to a followed map's generated-code ranges. */
    struct Change {
        enum class Op : std::uint8_t {
            Add,     ///< span.row now owns [span.lo, span.hi)
            Remove,  ///< the range starting at span.lo is gone
            /**
             * The executor runs span.row's evicted code: NativeExec
             * pcs inside span resolve to span.row, whoever holds those
             * addresses now.
             */
            Pin,
            Unpin,   ///< the executor runs installed code again
        };
        std::uint64_t at = 0;  ///< index of the first event it governs
        Op op = Op::Add;
        Span span;
    };

    /** Changes so far, in stream order (empty unless followed). */
    const std::vector<Change> &changes() const { return changes_; }

    // --- CodeObserver (follow()) --------------------------------------
    void onInstall(const NativeMethod &nm, std::uint64_t at) override;
    void onEvict(const NativeMethod &nm, std::uint64_t at) override;
    void onNativeFrame(const NativeMethod &nm, std::uint64_t at) override;

  private:
    friend class MapView;

    struct Range {
        SimAddr lo;
        SimAddr hi;
        int row;
    };

    /** Sorted, non-overlapping ranges and the segments they touch. */
    struct RangeSet {
        std::vector<Range> ranges;  ///< sorted by lo
        std::uint64_t segments = 0; ///< bit per segment touched

        /** Insert [lo, hi) for @p row; throws VmError on overlap. */
        void insert(SimAddr lo, SimAddr hi, int row,
                    const std::string &name);
        /** Drop the range starting at @p lo (no-op when absent). */
        void erase(SimAddr lo);
        int rowOf(SimAddr addr) const;
        /**
         * The largest Span holding @p addr: every address in
         * [lo, hi) has rowOf() == row (hi saturates at the top).
         */
        Span spanOf(SimAddr addr) const;
        /**
         * False when no range touches @p addr's 256 MiB segment (the
         * seg:: layout of isa/address_map.h), so rowOf(addr) is -1
         * without a search. Segments at or above index 63 share one
         * bit.
         */
        bool segmentMapped(SimAddr addr) const {
            return (segments >> segmentIndex(addr)) & 1u;
        }
    };

    static unsigned segmentIndex(SimAddr addr) {
        const SimAddr index = addr / seg::kSegmentSize;
        return index < 63 ? static_cast<unsigned>(index) : 63u;
    }

    /** Rows and bytecode ranges of @p prog's methods. */
    static MethodMap ofProgram(const Program &prog);
    /** Row of @p name, or -1. */
    int rowNamed(const std::string &name) const;
    /** @p nm's generated-code span and row. */
    Span codeSpan(const NativeMethod &nm) const;
    void log(std::uint64_t at, Change::Op op, Span span) {
        changes_.push_back(Change{at, op, span});
    }

    RangeSet ranges_;
    std::vector<std::string> names_;
    std::vector<Change> changes_;
    bool followed_ = false;  ///< built by follow(): changes may come
    const NativeMethod *running_ = nullptr;  ///< last onNativeFrame
    bool pinned_ = false;                    ///< a Pin is in force
};

/**
 * The ranges of a MethodMap in force at one point of its stream: the
 * map's own ranges, then each of its changes() from the event it is
 * stamped with. Lookups name the index of the event they resolve;
 * the indices must never decrease.
 *
 * Lookups take a fast path that returns exactly the map's answer at
 * that point: addresses in segments no range touches (the heap and
 * the thread stacks, which most interpreted loads hit) resolve to -1
 * at once, and the last few Spans looked up are cached, since
 * consecutive events nearly always fall in the same method or gap.
 * Applying a change empties that cache, so it never serves a span
 * that has gone stale. A map that follows no run (forRun, hand-built)
 * costs one test of a flag per lookup.
 */
class MapView {
  public:
    /** @p map must outlive the view. */
    explicit MapView(const MethodMap &map)
        : map_(&map), cur_(&map.ranges_), follows_(map.followed_) {}

    /** Row owning @p addr at event @p at, or -1. */
    int rowOf(SimAddr addr, std::uint64_t at) {
        sync(at);
        return lookup(addr);
    }

    /** As rowOf, for the pc of NativeExec event @p at: evicted code
     *  still running (a Pin) wins over the current owner. */
    int pcRowOf(SimAddr pc, std::uint64_t at) {
        sync(at);
        if (pin_.row >= 0 && pin_.contains(pc))
            return pin_.row;
        return lookup(pc);
    }

  private:
    void sync(std::uint64_t at) {
        if (!follows_)
            return;
        const std::vector<MethodMap::Change> &c = map_->changes_;
        if (applied_ != c.size() && c[applied_].at <= at) [[unlikely]]
            apply(at);
    }

    /** Apply every change stamped at or before @p at. */
    void apply(std::uint64_t at);

    int lookup(SimAddr addr) {
        if (!cur_->segmentMapped(addr))
            return -1;
        for (const MethodMap::Span &sp : spans_) {
            if (sp.contains(addr))
                return sp.row;
        }
        const MethodMap::Span sp = cur_->spanOf(addr);
        spans_[nextSpan_] = sp;
        nextSpan_ = (nextSpan_ + 1) % kSpans;
        return sp.row;
    }

    /** Cached spans, replaced round-robin; empty spans match nothing. */
    static constexpr std::size_t kSpans = 4;

    const MethodMap *map_;
    const MethodMap::RangeSet *cur_;  ///< map's ranges, or own_
    MethodMap::RangeSet own_;         ///< copy once a change applies
    MethodMap::Span spans_[kSpans];
    std::size_t nextSpan_ = 0;
    MethodMap::Span pin_;             ///< row -1: nothing pinned
    bool follows_;                    ///< the map may gain changes
    std::size_t applied_ = 0;         ///< changes applied so far
};

/**
 * The streaming half of the attribution join: tracks which method is
 * "current" per the phase rules in the file comment and resolves each
 * TraceEvent to a MethodMap row (-1 = unattributed), through a
 * MapView. PerfAttribution (obs/perf.h) folds each event into the
 * row it resolves to. observe() must see every event of the stream,
 * in order: the count is the stream position.
 */
class MethodContext {
  public:
    /** @p map must outlive the context. */
    explicit MethodContext(const MethodMap &map) : view_(map) {}

    /** Row owning @p addr at the current stream position. */
    int rowOf(SimAddr addr) { return view_.rowOf(addr, seen_); }

    /** Resolve @p ev's method row, updating the phase contexts. */
    int observe(const TraceEvent &ev) {
        const std::uint64_t at = seen_++;
        int row = -1;
        switch (ev.phase) {
          case Phase::NativeExec:
            row = view_.pcRowOf(ev.pc, at);
            if (row >= 0)
                lastRunning_ = row;
            break;
          case Phase::Interpret:
            if (ev.kind == NKind::Load) {
                const int r = view_.rowOf(ev.mem, at);
                if (r >= 0)
                    curInterp_ = r;
            }
            row = curInterp_;
            if (row >= 0)
                lastRunning_ = row;
            break;
          case Phase::Translate:
            if (isMemory(ev.kind)) {
                const int r = view_.rowOf(ev.mem, at);
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
    MapView view_;
    std::uint64_t seen_ = 0;  ///< events observed (stream position)
    int curInterp_ = -1;     ///< method of the last bytecode fetch
    int curTranslate_ = -1;  ///< method the translator last touched
    int lastRunning_ = -1;   ///< last interp/native attribution
};

} // namespace jrs::obs

#endif // JRS_OBS_ATTRIBUTION_H
