/**
 * @file
 * Deterministic statistical sampling profiler over the trace stream,
 * with ground-truth calibration against the exact profiler.
 *
 * The exact passes (obs/perf.h, prof/cct.h) observe every event;
 * production profilers cannot, they sample. This simulator is in the
 * rare position of holding bit-exact ground truth for the same run,
 * so its sampler exists for two jobs: model what a sampling profiler
 * would have reported, and *quantify* how wrong that report is as a
 * function of sampling period (bench/abl_sample_period.cpp records
 * the error-vs-period and overhead-vs-period curves).
 *
 * Mechanics. A SamplingProfiler rides the stream like CctBuilder,
 * maintaining the shared shadow call stack (prof/frame_tracker.h —
 * one implementation of the Call/Ret frame discipline for both exact
 * and sampled profilers). A seeded XorShift64 draws jittered sample
 * gaps uniform in [period/2, period/2 + period) — jitter breaks
 * lockstep with loop periodicity, the fixed seed keeps every run
 * bit-reproducible. The sampling clock advances in simulated cycles
 * when the profiler observes a pipeline model (PipelineSim::observe,
 * as SamplePipeline does; each Step carries its instruction's CPI
 * stack) and in events otherwise.
 * Each step is handled in one call: move the shadow stack to the
 * event's attribution point, advance the clock, and whenever it
 * crosses a threshold intern the current stack into a sampled CCT,
 * tagged with the event's phase and opcode kind; then apply the
 * event's own push/pop. Samples thus attribute at the same point the
 * exact profiler attributes — after abandoned-Translate close, before
 * the event's own push/pop — so a period-1 event-clock sampler
 * reproduces CctBuilder's per-context event counts exactly (tested).
 *
 * Sampling is read-only on the stream: a SamplePipeline's model is
 * bit-identical to a bare PipelineSim, and an exact profiler sharing
 * the replay is unperturbed (tests/test_sample.cpp).
 *
 * Calibration. calibrate() flattens both trees per method name and
 * compares cycle (or event) shares: per-method share error, top-N
 * hot-set overlap and pairwise rank agreement. The helpers
 * topShareOverlap()/shareRankAgreement() are standalone so the
 * metrics are testable on hand-built profiles.
 *
 * The sampled tree is a prof::ContextTree (prof/context_tree.h), the
 * same tree code as the exact profiler's, so both name, order and fold
 * their contexts identically; a node carries SampleCounts.
 *
 * Output: one run object of the stable "jrs-sample-v1" JSON document
 * (schema in DESIGN.md §11; an obs::ReportSet holds the runs) and
 * folded-flamegraph text, same conventions as prof/cct.h.
 */
#ifndef JRS_PROF_SAMPLER_H
#define JRS_PROF_SAMPLER_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/outcome.h"
#include "arch/pipeline/pipeline.h"
#include "isa/trace.h"
#include "obs/attribution.h"
#include "prof/cct.h"
#include "prof/context_tree.h"
#include "prof/frame_tracker.h"
#include "support/random.h"

namespace jrs::prof {

/** Default --sample-period when output is requested without one. */
inline constexpr std::uint64_t kDefaultSamplePeriod = 4096;

/** Knobs for a sampling pass. */
struct SampleOptions {
    /** Mean gap between samples, in clock units (see cycleClock). */
    std::uint64_t period = kDefaultSamplePeriod;
    /** PRNG seed for the jittered gaps; same seed, same samples. */
    std::uint64_t seed = 1;
    /** Shadow-stack depth bound (prof/frame_tracker.h). */
    std::size_t maxDepth = 1024;
    /**
     * When true the clock advances by each step's CPI-stack cycles
     * (requires observing a PipelineSim, as SamplePipeline does);
     * when false, by one per trace event.
     */
    bool cycleClock = false;
};

/**
 * Next jittered sample gap: uniform in [period/2, period/2 + period),
 * never 0 (mean ~= period). Exposed for the jitter-bounds test.
 */
inline std::uint64_t
jitteredGap(XorShift64 &prng, std::uint64_t period)
{
    const std::uint64_t p = period == 0 ? 1 : period;
    const std::uint64_t gap = p / 2 + prng.nextBounded(p);
    return gap == 0 ? 1 : gap;
}

/** What the sampler counts per calling context. */
struct SampleCounts {
    std::uint64_t samples = 0;  ///< self samples (leaf hits)
    std::uint64_t phaseSamples[kNumPhases] = {};
};

/** See file comment. */
class SamplingProfiler : public StreamObserver {
  public:
    using Options = SampleOptions;

    /** @p map must outlive the profiler. */
    explicit SamplingProfiler(const obs::MethodMap &map,
                              Options opt = {});

    void onSteps(const Step *steps, std::size_t n) override;

    /** The sampled tree (nodes, naming, output order). */
    const ContextTree<SampleCounts> &tree() const { return tree_; }

    /** Samples taken so far. */
    std::uint64_t samples() const { return samples_; }

    /** Clock advanced so far (cycles or events, per options). */
    std::uint64_t clockTotal() const { return clock_; }

    /** Samples whose event had opcode kind @p k. */
    std::uint64_t kindSamples(NKind k) const {
        return kindSamples_[static_cast<std::size_t>(k)];
    }

    const Options &options() const { return opt_; }

    /** The shared shadow stack (counters, depth). */
    const FrameTracker &tracker() const { return tracker_; }

    /**
     * Folded-stack lines, one per node x non-empty phase, values are
     * self samples. Deterministic order (DFS, children sorted by
     * name), leaf frames carry the phase suffix — the same folded
     * conventions as CctBuilder::foldedLines().
     */
    std::vector<FoldedLine> foldedLines() const;

    /**
     * One run object of the "jrs-sample-v1" document, indented for
     * nesting under "runs". Deterministic node ids and field order.
     */
    std::string runJson(const std::string &label) const;

  private:
    void step(const Step &s);
    void takeSample(Phase phase, NKind kind);

    Options opt_;
    FrameTracker tracker_;
    XorShift64 prng_;
    ContextTree<SampleCounts> tree_;
    std::uint64_t clock_ = 0;
    std::uint64_t nextAt_ = 0;  ///< clock value of the next sample
    std::uint64_t samples_ = 0;
    std::uint64_t kindSamples_[kNumNKinds] = {};
};

/**
 * A PipelineSim observed by a SamplingProfiler on the cycle clock,
 * owning the shared MethodMap so it can outlive the run that built it
 * (the CctPipeline pattern).
 */
class SamplePipeline : public PipelineSim {
  public:
    SamplePipeline(PipelineConfig cfg,
                   std::shared_ptr<const obs::MethodMap> map,
                   SampleOptions opt = {})
        : PipelineSim(cfg), map_(std::move(map)),
          sampler_(*map_, cycleClocked(opt))
    {
        observe(sampler_);
    }

    PipelineSim &pipeline() { return *this; }
    const PipelineSim &pipeline() const { return *this; }
    SamplingProfiler &sampler() { return sampler_; }
    const SamplingProfiler &sampler() const { return sampler_; }

  private:
    static SampleOptions cycleClocked(SampleOptions opt) {
        opt.cycleClock = true;
        return opt;
    }

    std::shared_ptr<const obs::MethodMap> map_;
    SamplingProfiler sampler_;
};

/** One method's exact-vs-sampled share comparison. */
struct CalibrationRow {
    std::string name;          ///< flat method/frame display name
    double exactShare = 0;     ///< fraction of exact self value
    double sampledShare = 0;   ///< fraction of samples
    std::uint64_t exactValue = 0;   ///< exact self cycles (or events)
    std::uint64_t sampleCount = 0;  ///< samples landing here
};

/** Result of calibrate(); see file comment. */
struct CalibrationReport {
    /** Union of names, sorted by exact share descending. */
    std::vector<CalibrationRow> rows;
    std::string value;          ///< "cycles" or "events" (exact side)
    std::uint64_t samples = 0;  ///< samples the estimate rests on
    std::size_t topN = 10;      ///< the N used for topOverlap
    double meanAbsErrPct = 0;   ///< mean |exact% - sampled%| over rows
    double maxAbsErrPct = 0;    ///< worst row's |exact% - sampled%|
    double topOverlap = 0;      ///< top-N hot-set overlap, [0, 1]
    double rankAgreement = 0;   ///< pairwise rank agreement, [0, 1]

    /** Render the top rows + summary as an aligned text table. */
    std::string text(std::size_t maxRows = 10) const;
};

/**
 * Fraction of the top-@p n entries (by share, ties broken by name)
 * shared between the two profiles, in [0, 1]. n is clamped to the
 * smaller profile; empty profiles agree vacuously (1.0).
 */
double topShareOverlap(
    const std::vector<std::pair<std::string, double>> &exact,
    const std::vector<std::pair<std::string, double>> &sampled,
    std::size_t n);

/**
 * Pairwise (Kendall-style) rank agreement over names present in both
 * profiles: the fraction of name pairs ordered the same way by both,
 * in [0, 1]. Fewer than two common names agree vacuously (1.0).
 */
double shareRankAgreement(
    const std::vector<std::pair<std::string, double>> &exact,
    const std::vector<std::pair<std::string, double>> &sampled);

/**
 * Flatten @p exact (per-name self cycles, or self events when the
 * exact pass saw no pipeline) and @p sampled (per-name samples) and
 * compare shares; see file comment. Both must come from the same
 * replayed stream for the comparison to mean anything.
 */
CalibrationReport calibrate(const CctBuilder &exact,
                            const SamplingProfiler &sampled,
                            std::size_t topN = 10);

} // namespace jrs::prof

#endif // JRS_PROF_SAMPLER_H
