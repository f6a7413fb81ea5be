/**
 * @file
 * Per-event microarchitectural attribution: CPI stacks, miss and
 * mispredict profiles, and interval timelines.
 *
 * The architecture models report aggregate numbers; obs/attribution.h
 * says which *method* each instruction belonged to. This pass joins
 * the two: a PerfAttribution is a StreamObserver (arch/outcome.h)
 * riding one model, and folds every cache hit/miss, branch/indirect
 * prediction and retired-instruction CPI sample into
 *
 *  - per-method tables (method rows from a MethodMap, plus the
 *    "(unattributed)" bucket),
 *  - per-opcode and per-bytecode-site tables (when given the Program:
 *    the interpreter's dispatch fetch — the Load at kDispatchPc — is
 *    decoded back to the opcode it fetched, and every Interpret-phase
 *    event until the next dispatch belongs to that bytecode), and
 *  - an IntervalTimeline: fixed windows of N trace events with their
 *    miss/mispredict counts and CPI-stack slices, the Figure 6 curve
 *    generalized to every event kind.
 *
 * Each Step (arch/outcome.h) carries an event together with the
 * outcomes and CPI stack the model produced for it, so the whole step
 * lands in that event's context (method, opcode, window) by
 * construction. Attach the attribution with PipelineSim::observe or
 * CacheSink::observe; other profilers may ride the same model
 * alongside it. AttributedPipeline / AttributedCaches are that wiring
 * with one observer and a shared MethodMap.
 *
 * Each step is folded once, into the cell of its (method, phase)
 * pair; the whole-run, per-method and per-phase views are sums of
 * those cells, derived when first read after new steps arrive. The
 * sums are exact integers, so the views conserve as a direct fold
 * would.
 *
 * Conservation (tested in tests/test_perf.cpp): per-method access
 * counts sum to the model's aggregate stats bit-for-bit, and
 * per-method CPI components sum exactly to PipelineSim::cycles().
 *
 * The cells' event counts are also the hot-method view jrs_profile
 * prints: top() and topTable() rank a phase's methods by events. Fed
 * straight from a stream (StreamObserver's model-free onEvent) the
 * pass needs no model for that view.
 *
 * Reports render as tables (report/annotate views), as one run object
 * of the stable "jrs-perf-report-v1" JSON document (see DESIGN.md; an
 * obs::ReportSet holds the runs), and as Perfetto counter tracks via
 * SpanTracer::recordCounter.
 */
#ifndef JRS_OBS_PERF_H
#define JRS_OBS_PERF_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/cache/cache.h"
#include "arch/outcome.h"
#include "arch/pipeline/pipeline.h"
#include "obs/attribution.h"
#include "obs/spans.h"
#include "support/table.h"
#include "vm/bytecode/class_def.h"
#include "vm/bytecode/opcode.h"

namespace jrs::obs {

/** Accumulated microarchitectural stats for one attribution bucket. */
struct PerfCell {
    std::uint64_t insts = 0;  ///< trace events in this bucket
    std::uint64_t access[kNumPerfKinds] = {};
    std::uint64_t bad[kNumPerfKinds] = {};      ///< misses/mispredicts
    std::uint64_t penalty[kNumPerfKinds] = {};  ///< cycles charged
    std::uint64_t cpi[kNumCpiComponents] = {};  ///< CPI-stack cycles

    /** Total cycles attributed here (sum of the CPI stack). */
    std::uint64_t cycles() const {
        std::uint64_t t = 0;
        for (const std::uint64_t c : cpi)
            t += c;
        return t;
    }

    /** Miss/mispredict rate for @p k (0 when never accessed). */
    double badRate(PerfKind k) const {
        const auto i = static_cast<std::size_t>(k);
        return access[i] == 0
            ? 0.0
            : static_cast<double>(bad[i])
                / static_cast<double>(access[i]);
    }

    void merge(const PerfCell &o);
};

/** One timeline window (a generalized Figure 6 sample). */
struct IntervalSample {
    std::uint64_t events = 0;  ///< trace events in this window
    std::uint64_t access[kNumPerfKinds] = {};
    std::uint64_t bad[kNumPerfKinds] = {};
    std::uint64_t translateEvents = 0;
    std::uint64_t cpi[kNumCpiComponents] = {};

    std::uint64_t cycles() const {
        std::uint64_t t = 0;
        for (const std::uint64_t c : cpi)
            t += c;
        return t;
    }
};

/** One row of a per-phase hot-method ranking (PerfAttribution::top). */
struct AttributedMethod {
    std::string name;
    std::uint64_t events = 0;
    /** Share of the phase's total events, in percent. */
    double pct = 0.0;
};

/** Knobs for a PerfAttribution pass. */
struct PerfOptions {
    /** Timeline window in trace events; 0 disables the timeline. */
    std::uint64_t timelineWindow = 0;
    /**
     * Program of the traced run; enables the per-opcode and
     * per-bytecode-site views. Must outlive the sink. Null skips
     * those views (method tables and timeline still work).
     */
    const Program *program = nullptr;
};

/** See file comment. */
class PerfAttribution : public StreamObserver {
  public:
    using Options = PerfOptions;

    /** @p map must outlive the sink. */
    explicit PerfAttribution(const MethodMap &map, Options opt = {});

    void onSteps(const Step *steps, std::size_t n) override;
    void onFinish() override;

    /** Trace events observed. */
    std::uint64_t totalEvents() const { return events_; }

    /** Whole-run totals (every bucket summed). */
    const PerfCell &totals() const { return views().totals; }

    const MethodMap &map() const { return *map_; }

    /** Cell of method @p row; row == map().rows() is unattributed. */
    const PerfCell &methodCell(std::size_t row) const {
        return views().methods[row];
    }

    /**
     * Cell of execution phase @p p. Phase cells partition the stream
     * exactly (every event has one phase), so summing them reproduces
     * totals() bit-for-bit — this is what separates mutator cycles
     * from Phase::Gc collector cycles in one conserved CPI stack.
     */
    const PerfCell &phaseCell(Phase p) const {
        return views().phases[static_cast<std::size_t>(p)];
    }

    /**
     * Cell of method @p row in phase @p p (row == map().rows() is
     * unattributed): the one cell every such step folded into.
     */
    const PerfCell &cell(std::size_t row, Phase p) const {
        return cells_[row * kNumPhases + static_cast<std::size_t>(p)];
    }

    /** One row per non-empty phase, hot-first: mutator vs collector. */
    Table phaseTable() const;

    /**
     * Top @p n methods of @p phase by events, descending (ties broken
     * by name). The "(unattributed)" bucket is included when non-zero.
     */
    std::vector<AttributedMethod> top(Phase phase, std::size_t n) const;

    /** Render top(phase, n) as a table: rank, method, events, share. */
    Table topTable(Phase phase, std::size_t n) const;

    /** True when a Program was supplied (opcode views available). */
    bool hasOpcodes() const { return opt_.program != nullptr; }

    /** Cell of @p op (Interpret-phase events only). */
    const PerfCell &opcodeCell(Op op) const {
        return opCells_[static_cast<std::size_t>(op)];
    }

    const std::vector<IntervalSample> &timeline() const {
        return timeline_;
    }
    std::uint64_t timelineWindow() const {
        return opt_.timelineWindow;
    }

    /** Top @p n methods by cycles (then events): the `report` view. */
    Table methodTable(std::size_t n) const;

    /** Top @p n opcodes by events (requires a Program). */
    Table opcodeTable(std::size_t n) const;

    /**
     * Per-bytecode-site view of @p methodName: one row per executed
     * bytecode offset (requires a Program). The `annotate` view.
     */
    Table annotateTable(const std::string &methodName) const;

    /**
     * One run object of the "jrs-perf-report-v1" document, indented
     * for nesting under "runs". Deterministic field and row order.
     */
    std::string runJson(const std::string &label) const;

    /**
     * Emit the timeline as Perfetto counter tracks named
     * "<prefix>.misses", "<prefix>.mispredicts" and "<prefix>.cpi"
     * on the calling thread's lane; ts is the window's starting
     * trace-event index (simulated time, not wall-clock).
     */
    void emitCounterTracks(SpanTracer &tracer,
                           const std::string &prefix) const;

  private:
    struct SiteCell {
        Op op = static_cast<Op>(0);
        PerfCell cell;
    };

    /** The views summed from cells_. */
    struct Views {
        PerfCell totals;
        std::vector<PerfCell> methods;  ///< indexed like cells_' slots
        PerfCell phases[kNumPhases];
    };

    void step(const Step &s);
    void flushWindow();
    const Method *methodAtBytecode(SimAddr addr) const;
    /** The views, re-summed when steps arrived since the last read. */
    const Views &views() const;

    const MethodMap *map_;
    Options opt_;
    MethodContext ctx_;

    std::uint64_t events_ = 0;
    /**
     * One cell per (slot, phase), slot-major: rows() method slots plus
     * a trailing unattributed one. Every step folds into exactly one.
     */
    std::vector<PerfCell> cells_;
    mutable Views views_;
    mutable bool stale_ = false;  ///< cells_ changed since views_

    // Opcode/site context (Program-backed; empty when no program).
    struct BytecodeRange {
        SimAddr lo;
        SimAddr hi;
        const Method *method;
    };
    std::vector<BytecodeRange> bytecodeRanges_;  ///< sorted by lo
    std::vector<PerfCell> opCells_;
    /** (method row << 32 | bytecode offset) -> site stats. */
    std::map<std::uint64_t, SiteCell> siteCells_;
    int curOp_ = -1;       ///< opcode being interpreted, -1 unknown
    /** Cell of the site being interpreted (valid when curOp_ >= 0). */
    PerfCell *curSite_ = nullptr;

    // Timeline state.
    std::uint64_t inWindow_ = 0;
    IntervalSample cur_;
    std::vector<IntervalSample> timeline_;
};

/**
 * A PipelineSim observed by a PerfAttribution, owning the shared
 * MethodMap so it can outlive the run that built it (sweep replay).
 */
class AttributedPipeline : public PipelineSim {
  public:
    AttributedPipeline(PipelineConfig cfg,
                       std::shared_ptr<const MethodMap> map,
                       PerfAttribution::Options opt = {})
        : PipelineSim(cfg), map_(std::move(map)), perf_(*map_, opt)
    {
        observe(perf_);
    }

    PipelineSim &pipeline() { return *this; }
    const PipelineSim &pipeline() const { return *this; }
    PerfAttribution &perf() { return perf_; }
    const PerfAttribution &perf() const { return perf_; }

  private:
    std::shared_ptr<const MethodMap> map_;
    PerfAttribution perf_;
};

/** As AttributedPipeline, for a bare split L1 (no pipeline model). */
class AttributedCaches : public CacheSink {
  public:
    AttributedCaches(CacheConfig icfg, CacheConfig dcfg,
                     std::shared_ptr<const MethodMap> map,
                     PerfAttribution::Options opt = {})
        : CacheSink(icfg, dcfg), map_(std::move(map)), perf_(*map_, opt)
    {
        observe(perf_);
    }

    CacheSink &caches() { return *this; }
    const CacheSink &caches() const { return *this; }
    PerfAttribution &perf() { return perf_; }
    const PerfAttribution &perf() const { return perf_; }

  private:
    std::shared_ptr<const MethodMap> map_;
    PerfAttribution perf_;
};

} // namespace jrs::obs

#endif // JRS_OBS_PERF_H
