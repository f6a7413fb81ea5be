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
 * Output: one stable "jrs-cct-v1" JSON document (schema in DESIGN.md
 * §10), Brendan-Gregg folded-stack text (`a;b;c_[i] 123` — the leaf
 * frame carries a phase suffix: _[i] interpret, _[t] translate,
 * _[j] native/JIT, _[r] runtime, _[gc] collector), and a two-run
 * differential folded output (`stack valueA valueB`, the difffolded
 * convention) for e.g. interp-vs-jit or gc-on-vs-off flamegraphs.
 */
#ifndef JRS_PROF_CCT_H
#define JRS_PROF_CCT_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "arch/outcome.h"
#include "arch/pipeline/pipeline.h"
#include "isa/trace.h"
#include "obs/attribution.h"
#include "prof/frame_tracker.h"

namespace jrs::prof {

/** One calling context: a path of frames from the root. */
struct CctNode {
    std::uint64_t key = 0;    ///< identity under parent (kind + id)
    FrameKind kind = FrameKind::Root;
    int parent = -1;          ///< node index, -1 for the root
    std::uint32_t methodId = 0;  ///< Method frames: trampoline id
    int methodRow = -1;       ///< lazily resolved MethodMap row
    const char *stubName = nullptr;  ///< non-method display name
    std::uint64_t calls = 0;  ///< times this context was entered
    std::uint64_t events = 0;  ///< self trace events (not children)
    std::uint64_t phaseEvents[kNumPhases] = {};
    std::uint64_t cpi[kNumCpiComponents] = {};  ///< self cycles
    std::uint64_t phaseCycles[kNumPhases] = {};
    std::vector<int> kids;    ///< child node indices

    /** Self cycles attributed here (sum of the CPI stack). */
    std::uint64_t cycles() const {
        std::uint64_t t = 0;
        for (const std::uint64_t c : cpi)
            t += c;
        return t;
    }
};

/** Knobs for a CCT pass. */
struct CctOptions {
    /**
     * Deepest stack tracked. Pushes beyond it are suppressed (their
     * events accrue to the deepest real frame) and counted, so
     * pathological unwind shapes cannot grow the tree unboundedly.
     */
    std::size_t maxDepth = 1024;
};

/** One folded-stack output line (before rendering). */
struct FoldedLine {
    std::string stack;     ///< "frame;frame;leaf_[suffix]"
    std::uint64_t value;   ///< self cycles (or events, see foldedLines)
};

/**
 * Folded-stack phase suffix for phase index @p p: "_[i]" interpret,
 * "_[t]" translate, "_[j]" native/JIT, "_[r]" runtime, "_[gc]"
 * collector (flamegraph.pl renders _[x]-suffixed frames in their own
 * hue). Shared by the exact and sampled folded writers.
 */
const char *foldedPhaseSuffix(std::size_t p);

/** See file comment. */
class CctBuilder : public StreamObserver {
  public:
    using Options = CctOptions;

    /** @p map must outlive the builder. */
    explicit CctBuilder(const obs::MethodMap &map, Options opt = {});

    void onSteps(const Step *steps, std::size_t n) override;

    /** All nodes; index 0 is the root. Parent/kids index into this. */
    const std::vector<CctNode> &nodes() const { return nodes_; }

    /** Trace events observed (== sum of node self events). */
    std::uint64_t totalEvents() const { return events_; }

    /** Cycles observed (== sum of node self cycles). */
    std::uint64_t totalCycles() const { return cycles_; }

    /** Rets that arrived with only the root on the stack. */
    std::uint64_t unmatchedRets() const {
        return tracker_.unmatchedRets();
    }

    /** Rets whose phase did not match the open frame's kind. */
    std::uint64_t mismatchedRets() const {
        return tracker_.mismatchedRets();
    }

    /** Translate frames closed without their install return. */
    std::uint64_t abandonedTranslations() const {
        return tracker_.abandonedTranslations();
    }

    /** Pushes suppressed by CctOptions::maxDepth. */
    std::uint64_t overflowPushes() const {
        return tracker_.overflowPushes();
    }

    /** Deepest stack reached (frames, root included). */
    std::size_t maxDepthSeen() const {
        return tracker_.maxDepthSeen();
    }

    const obs::MethodMap &map() const { return *map_; }

    /** Display name of @p n (see file comment on lazy naming). */
    std::string nodeName(const CctNode &n) const;

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
    int childOf(int parent, FrameKind kind, std::uint64_t key,
                std::uint32_t methodId, const char *stubName);
    /** DFS over @p n's children sorted by display name. */
    template <class Fn>
    void walk(int n, std::vector<int> &path, Fn &&fn) const;
    std::vector<int> sortedKids(const CctNode &n) const;

    const obs::MethodMap *map_;
    FrameTracker tracker_;       ///< shared frame discipline
    std::vector<CctNode> nodes_;
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
 * Thread-safe collection of labeled CCT snapshots, rendered as one
 * "jrs-cct-v1" document and/or one folded-stack file. Runs are
 * sorted by label so output is stable regardless of which sweep
 * worker finished first. Re-adding a label replaces its snapshot.
 */
class CctReportSet {
  public:
    void add(const std::string &label, const CctBuilder &cct);

    std::size_t size() const;

    /** The full "jrs-cct-v1" document. */
    std::string toJson() const;

    /** Write toJson() to @p path; throws VmError on I/O failure. */
    void writeJson(const std::string &path) const;

    /**
     * Write all runs' folded lines to @p path. With more than one
     * run each stack is prefixed with its run label as the outermost
     * frame, so one flamegraph shows the runs side by side.
     */
    void writeFolded(const std::string &path) const;

    /** Folded lines of run @p label (empty when absent). */
    std::vector<FoldedLine> folded(const std::string &label) const;

  private:
    struct Snapshot {
        std::string json;
        std::vector<FoldedLine> folded;
    };
    mutable std::mutex mu_;
    std::vector<std::pair<std::string, Snapshot>> runs_;
};

/**
 * Merge two runs' folded lines into difffolded-format text: one line
 * per stack present in either run, "stack valueA valueB", sorted.
 * flamegraph.pl --negate renders the regression view directly.
 */
std::string foldedDiff(const std::vector<FoldedLine> &a,
                       const std::vector<FoldedLine> &b);

/** Write foldedDiff() to @p path; throws VmError on I/O failure. */
void writeFoldedDiff(const std::vector<FoldedLine> &a,
                     const std::vector<FoldedLine> &b,
                     const std::string &path);

} // namespace jrs::prof

#endif // JRS_PROF_CCT_H
