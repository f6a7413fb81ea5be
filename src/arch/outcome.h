/**
 * @file
 * Per-event microarchitectural outcomes.
 *
 * The architecture models (Cache, PredictorBank, PipelineSim) only
 * expose end-of-run totals; this header adds the event layer that lets
 * an observer see *each* hit/miss and predict/mispredict as it
 * happens, carrying the simulated pc so the outcome can be joined with
 * the VM's symbol maps (obs/perf.h). A profiler is a StreamObserver:
 * PipelineSim and CacheSink each keep a list of them (observe()), hand
 * every TraceEvent to all of them before modelling it, and send every
 * outcome, CPI sample and onFinish to all of them. One model therefore
 * feeds any number of profilers in one pass. The list is empty by
 * default: the unobserved cost is one emptiness test per modelled
 * access, and the observers never touch timing, so plain runs are
 * unchanged bit-for-bit.
 *
 * The pipeline model additionally decomposes every retired
 * instruction's commit-cycle delta into a CPI stack (CpiSample). The
 * components always sum exactly to the instruction's delta, so summing
 * samples over any partition of the stream conserves total cycles.
 */
#ifndef JRS_ARCH_OUTCOME_H
#define JRS_ARCH_OUTCOME_H

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
 * One modelled access and how it went. @c pc is the accessed address
 * as the reporting model sees it: the instruction address for fetches
 * and branch predictions, the effective data address for D-cache
 * accesses. @c bad means miss (caches) or mispredict (predictors);
 * @c penalty is the cycle cost the reporting model charged (0 for
 * pure-count models like a bare Cache or PredictorBank).
 */
struct Outcome {
    std::uint64_t pc = 0;
    PerfKind kind = PerfKind::ICacheFetch;
    Phase phase = Phase::Interpret;
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

/**
 * One retired instruction's share of total cycles, decomposed.
 * cycles[] sums exactly to this instruction's commit delta (the
 * cycles the machine's commit point advanced retiring it), so the
 * samples of a run partition PipelineSim::cycles() with no residue.
 */
struct CpiSample {
    std::uint64_t pc = 0;
    Phase phase = Phase::Interpret;
    std::uint64_t cycles[kNumCpiComponents] = {};

    std::uint64_t total() const {
        std::uint64_t t = 0;
        for (const std::uint64_t c : cycles)
            t += c;
        return t;
    }
};

/**
 * Observer of per-event outcomes. Both hooks default to no-ops so a
 * listener can subscribe to only the stream it needs. Implementations
 * must be cheap and must not touch the reporting model (the models
 * call out mid-access).
 */
class OutcomeListener {
  public:
    virtual ~OutcomeListener() = default;

    /** One modelled access (cache or predictor). */
    virtual void onOutcome(const Outcome &) {}

    /** One retired instruction's CPI decomposition (pipeline only). */
    virtual void onRetire(const CpiSample &) {}
};

/**
 * A profiler riding a model: it sees each TraceEvent before the model
 * does, so the outcomes the model then reports land in that event's
 * context (method, opcode, calling context, window).
 */
class StreamObserver : public TraceSink, public OutcomeListener {};

/**
 * The observers one model feeds, in attach order. Each hook is a
 * no-op on an empty list; report() builds its Outcome only when
 * someone listens.
 */
class ObserverList {
  public:
    void add(StreamObserver &o) { list_.push_back(&o); }
    bool empty() const { return list_.empty(); }

    void event(const TraceEvent &ev) const {
        for (StreamObserver *o : list_)
            o->onEvent(ev);
    }
    void report(std::uint64_t pc, PerfKind kind, Phase phase, bool bad,
                std::uint32_t penalty = 0) const {
        if (list_.empty())
            return;
        const Outcome out{pc, kind, phase, bad, penalty};
        for (StreamObserver *o : list_)
            o->onOutcome(out);
    }
    void retire(const CpiSample &s) const {
        for (StreamObserver *o : list_)
            o->onRetire(s);
    }
    void finish() const {
        for (StreamObserver *o : list_)
            o->onFinish();
    }

  private:
    std::vector<StreamObserver *> list_;
};

} // namespace jrs

#endif // JRS_ARCH_OUTCOME_H
