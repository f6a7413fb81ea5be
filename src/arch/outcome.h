/**
 * @file
 * Per-instruction step records: what a model did with each event.
 *
 * The architecture models (Cache, PredictorBank, PipelineSim) only
 * expose end-of-run totals; this header adds the record layer that
 * lets a profiler see *each* hit/miss and predict/mispredict, joined
 * with the event that caused it (obs/perf.h). A profiler is a
 * StreamObserver: PipelineSim and CacheSink each keep a list of them
 * (observe()) and, after modelling an event, fill one Step for it —
 * the event itself, one Outcome per modelled access (fetch, then data
 * access, then control prediction) and, for the pipeline, the
 * instruction's CPI stack. Steps collect in one fixed block that goes
 * to every observer through onSteps() when it is full and always
 * before onFinish is forwarded, so one model feeds any number of
 * profilers in one pass, and each profiler folds each step once.
 *
 * The list is empty by default: the unobserved cost is one emptiness
 * test per event, and observers never touch timing, so plain runs are
 * unchanged bit-for-bit. A profiler's state therefore lags the model
 * by up to one block until onFinish; read it only after the stream
 * has finished.
 *
 * The pipeline model decomposes every retired instruction's
 * commit-cycle delta into a CPI stack (Step::cpi). The components
 * always sum exactly to the instruction's delta, so summing steps over
 * any partition of the stream conserves total cycles.
 */
#ifndef JRS_ARCH_OUTCOME_H
#define JRS_ARCH_OUTCOME_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/trace.h"

namespace jrs {

/** What kind of microarchitectural event an Outcome reports. */
enum class PerfKind : std::uint8_t {
    ICacheFetch,     ///< instruction fetch (every event)
    DCacheLoad,      ///< data-cache read (NKind::Load)
    DCacheStore,     ///< data-cache write (NKind::Store)
    CondBranch,      ///< conditional-branch direction prediction
    IndirectTarget,  ///< BTB target prediction (ind. jump/call)
};

/** Number of distinct PerfKind values (for counting arrays). */
inline constexpr std::size_t kNumPerfKinds = 5;

/** Human-readable name of a perf-event kind. */
const char *perfKindName(PerfKind kind);

/**
 * One modelled access and how it went. @c bad means miss (caches) or
 * mispredict (predictors); @c penalty is the cycle cost the reporting
 * model charged (0 for pure-count models like a bare CacheSink).
 */
struct Outcome {
    PerfKind kind = PerfKind::ICacheFetch;
    bool bad = false;
    std::uint32_t penalty = 0;
};

/**
 * Components of the pipeline model's CPI stack. "Backend" is the
 * ROB-or-dependence bucket: cycles the commit stream waited on ROB
 * occupancy, register/memory dependences, execution latency, or the
 * bounded-MLP memory port — everything behind dispatch that is not a
 * cache miss or a mispredict refill.
 */
enum class CpiComponent : std::uint8_t {
    Base,              ///< no-stall issue/commit cycles
    ICache,            ///< I-cache miss stall
    DCache,            ///< D-cache (load) miss stall
    BranchMispredict,  ///< conditional-direction refill bubble
    IndirectTarget,    ///< indirect-target (BTB) refill bubble
    Backend,           ///< ROB / dependence / latency
};

/** Number of CPI-stack components. */
inline constexpr std::size_t kNumCpiComponents = 6;

/** Human-readable name of a CPI component. */
const char *cpiComponentName(CpiComponent c);

/** Most outcomes one event yields: fetch, data access, control. */
inline constexpr std::size_t kMaxOutcomes = 3;

/**
 * One modelled instruction. out[0, outcomes) are its accesses in
 * model order (the fetch first). When hasCpi is set, cpi[] sums
 * exactly to this instruction's commit delta (the cycles the
 * machine's commit point advanced retiring it), so the steps of a run
 * partition PipelineSim::cycles() with no residue; otherwise cpi[] is
 * all zero. A step fed straight from a stream (StreamObserver::onEvent)
 * has neither outcomes nor a CPI stack.
 */
struct Step {
    TraceEvent ev;
    std::uint8_t outcomes = 0;
    bool hasCpi = false;
    Outcome out[kMaxOutcomes];
    std::uint64_t cpi[kNumCpiComponents] = {};

    /** Append one access to out[] (at most kMaxOutcomes). */
    void add(PerfKind kind, bool bad, std::uint32_t penalty = 0) {
        out[outcomes++] = Outcome{kind, bad, penalty};
    }

    /** Cycles this instruction retired in (0 without a CPI stack). */
    std::uint64_t cycles() const {
        std::uint64_t t = 0;
        for (const std::uint64_t c : cpi)
            t += c;
        return t;
    }
};

/**
 * A profiler riding a model: it receives the model's steps in blocks,
 * in stream order, and onFinish once they are all delivered.
 */
class StreamObserver : public TraceSink {
  public:
    /** Steps [steps, steps + n) of the stream, in order. */
    virtual void onSteps(const Step *steps, std::size_t n) = 0;

    /** The model-free feed: @p ev as a step with no outcomes or CPI. */
    void onEvent(const TraceEvent &ev) final {
        Step s;
        s.ev = ev;
        onSteps(&s, 1);
    }
};

/**
 * The observers one model feeds, in attach order, and the block of
 * steps they have not been handed yet.
 */
class ObserverList {
  public:
    /**
     * Steps per delivered block: enough to make the virtual onSteps
     * call rare, few enough (7 KiB) that the block stays in the L1
     * data cache between the model filling it and the observers
     * reading it.
     */
    static constexpr std::size_t kBlockSteps = 64;

    void add(StreamObserver &o) {
        list_.push_back(&o);
        block_.resize(kBlockSteps);
    }
    bool empty() const { return list_.empty(); }

    /**
     * The next step's slot, with its event set and no outcomes; call
     * only when observed. The caller adds the outcomes and, if it
     * models timing, sets hasCpi and every cpi[] component (a model
     * that never does leaves them false and zero), then commits.
     */
    Step &open(const TraceEvent &ev) {
        Step &s = block_[filled_];
        s.ev = ev;
        s.outcomes = 0;
        return s;
    }
    /** The opened step is complete; deliver the block when full. */
    void commit() {
        if (++filled_ == kBlockSteps)
            flush();
    }

    /** Deliver the pending steps, then forward onFinish. */
    void finish() {
        flush();
        for (StreamObserver *o : list_)
            o->onFinish();
    }

  private:
    void flush() {
        if (filled_ == 0)
            return;
        for (StreamObserver *o : list_)
            o->onSteps(block_.data(), filled_);
        filled_ = 0;
    }

    std::vector<StreamObserver *> list_;
    std::vector<Step> block_;
    std::size_t filled_ = 0;
};

} // namespace jrs

#endif // JRS_ARCH_OUTCOME_H
