/**
 * @file
 * Calling-context tree (CCT) profiling over the trace stream.
 *
 * obs/perf.h answers "which method is expensive" as flat tables; this
 * pass answers "expensive *called from where*". A CctBuilder follows
 * the stream's Call/Ret brackets (the well-known stub pcs in
 * isa/address_map.h) to maintain a calling-context stack, creating
 * one tree node per distinct context, and folds every step's event
 * and CPI stack (arch/outcome.h) into the node that is current at the
 * event's attribution point, in one call. Phase is a dimension
 * on every node — collector and translation work show up *in the
 * calling context that triggered them*, split per Phase.
 *
 * Frame discipline (Method/Runtime/Gc/Translate brackets, lazy
 * method naming, unmatched-Ret tolerance, depth overflow) lives in
 * prof/frame_tracker.h, shared with the sampling profiler
 * (prof/sampler.h); this builder mirrors the tracker's pushes and
 * pops into a node stack. The stack may then be an approximation of
 * the true context (exception unwinds, green threads), but
 * attribution still conserves exactly: every step lands in exactly
 * one node, so
 *
 *     sum over nodes of self cycles == PipelineSim::cycles()
 *
 * bit-for-bit (tested in tests/test_prof.cpp), regardless of stack
 * shape. Method frames fall back to "(method#N)" until the tracker
 * resolves a MethodMap row.
 *
 * The tree itself — node identity, interning, naming, output order,
 * folded lines and the JSON node skeleton — is prof::ContextTree
 * (prof/context_tree.h), shared with the sampler; a CctNode is a
 * context plus the counts above (CctCounts).
 *
 * Output: one run object of the stable "jrs-cct-v1" JSON document
 * (schema in DESIGN.md §10; an obs::ReportSet holds the runs),
 * Brendan-Gregg folded-stack text (`a;b;c_[i] 123` — the leaf frame
 * carries a phase suffix: _[i] interpret, _[t] translate, _[j]
 * native/JIT, _[r] runtime, _[gc] collector), and a two-run
 * differential folded output (`stack valueA valueB`, the difffolded
 * convention) for e.g. interp-vs-jit or gc-on-vs-off flamegraphs.
 */
#ifndef JRS_PROF_CCT_H
#define JRS_PROF_CCT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/outcome.h"
#include "arch/pipeline/pipeline.h"
#include "isa/trace.h"
#include "obs/attribution.h"
#include "prof/context_tree.h"
#include "prof/frame_tracker.h"

namespace jrs::prof {

/** What the exact profiler counts per calling context. */
struct CctCounts {
    std::uint64_t calls = 0;  ///< times this context was entered
    std::uint64_t events = 0;  ///< self trace events (not children)
    std::uint64_t phaseEvents[kNumPhases] = {};
    std::uint64_t cpi[kNumCpiComponents] = {};  ///< self cycles
    std::uint64_t phaseCycles[kNumPhases] = {};

    /** Self cycles attributed here (sum of the CPI stack). */
    std::uint64_t cycles() const {
        std::uint64_t t = 0;
        for (const std::uint64_t c : cpi)
            t += c;
        return t;
    }
};

/** One calling context of the exact profiler. */
using CctNode = ContextNode<CctCounts>;

/** Knobs for a CCT pass. */
struct CctOptions {
    /**
     * Deepest stack tracked. Pushes beyond it are suppressed (their
     * events accrue to the deepest real frame) and counted, so
     * pathological unwind shapes cannot grow the tree unboundedly.
     */
    std::size_t maxDepth = 1024;
};

/** See file comment. */
class CctBuilder : public StreamObserver {
  public:
    using Options = CctOptions;

    /** @p map must outlive the builder. */
    explicit CctBuilder(const obs::MethodMap &map, Options opt = {});

    void onSteps(const Step *steps, std::size_t n) override;

    /** All nodes; index 0 is the root. Parent/kids index into this. */
    const std::vector<CctNode> &nodes() const { return tree_.nodes(); }

    /** The tree (naming, output order). */
    const ContextTree<CctCounts> &tree() const { return tree_; }

    /** Trace events observed (== sum of node self events). */
    std::uint64_t totalEvents() const { return events_; }

    /** Cycles observed (== sum of node self cycles). */
    std::uint64_t totalCycles() const { return cycles_; }

    /** The shared shadow stack (Ret/depth counters). */
    const FrameTracker &tracker() const { return tracker_; }

    /** Display name of @p n (see file comment on lazy naming). */
    std::string nodeName(const CctNode &n) const { return tree_.name(n); }

    /**
     * Folded-stack lines, one per node x non-empty phase, leaf frame
     * suffixed with the phase. Values are self cycles when the builder
     * observed a pipeline, self events otherwise (cache-only
     * replays). Deterministic order (DFS, children sorted by name).
     */
    std::vector<FoldedLine> foldedLines() const;

    /**
     * One run object of the "jrs-cct-v1" document, indented for
     * nesting under "runs". Deterministic node ids and field order.
     */
    std::string runJson(const std::string &label) const;

  private:
    void step(const Step &s);

    FrameTracker tracker_;       ///< shared frame discipline
    ContextTree<CctCounts> tree_;
    std::vector<int> stack_;     ///< node indices, root at [0]
    std::uint64_t events_ = 0;
    std::uint64_t cycles_ = 0;
};

/**
 * A PipelineSim observed by a CctBuilder, owning the shared MethodMap
 * so it can outlive the run that built it (the AttributedPipeline
 * pattern).
 */
class CctPipeline : public PipelineSim {
  public:
    CctPipeline(PipelineConfig cfg,
                std::shared_ptr<const obs::MethodMap> map,
                CctOptions opt = {})
        : PipelineSim(cfg), map_(std::move(map)), cct_(*map_, opt)
    {
        observe(cct_);
    }

    PipelineSim &pipeline() { return *this; }
    const PipelineSim &pipeline() const { return *this; }
    CctBuilder &cct() { return cct_; }
    const CctBuilder &cct() const { return cct_; }

  private:
    std::shared_ptr<const obs::MethodMap> map_;
    CctBuilder cct_;
};

/**
 * Merge two runs' folded lines into difffolded-format text: one line
 * per stack present in either run, "stack valueA valueB", sorted.
 * flamegraph.pl --negate renders the regression view directly.
 */
std::string foldedDiff(const std::vector<FoldedLine> &a,
                       const std::vector<FoldedLine> &b);

} // namespace jrs::prof

#endif // JRS_PROF_CCT_H
