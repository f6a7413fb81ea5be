/**
 * @file
 * Trace-driven out-of-order superscalar model (Figures 9 and 10).
 *
 * A dataflow-with-constraints simulator in the style of trace-driven
 * ILP studies: each retired instruction is assigned a fetch cycle
 * (bounded by fetch width, taken-branch redirects, I-cache misses and
 * branch/indirect-target mispredict refills), an issue cycle (register
 * and memory dependences, ROB occupancy), an execution latency by
 * instruction class (plus D-cache miss latency on loads), and retires
 * in order at the commit width. IPC = instructions / final commit
 * cycle.
 *
 * The model deliberately keeps the predictor + BTB inside, so the key
 * interaction the paper reports emerges: the interpreter's dispatch
 * indirect jump mispredicts its target almost always, serializing
 * fetch once per bytecode and capping wide-issue scaling.
 *
 * Observers (arch/outcome.h, attached with observe()) receive one
 * Step per modelled event: its I-/D-cache accesses and
 * direction/target prediction with the cycle penalty charged, and its
 * commit-cycle delta decomposed into base / I-cache / D-cache /
 * branch-mispredict / indirect-target / backend components. The
 * decomposition is interval-style: the delta is assigned to the stall
 * causes this instruction actually suffered, front end first, each
 * capped at its modelled budget, with the residue counted as base
 * cycles — so steps always sum exactly to cycles() and the timing
 * computation itself is untouched (bit-identical with or without
 * observers).
 */
#ifndef JRS_ARCH_PIPELINE_PIPELINE_H
#define JRS_ARCH_PIPELINE_PIPELINE_H

#include <array>
#include <cstdint>
#include <vector>

#include "arch/bpred/btb.h"
#include "arch/bpred/predictors.h"
#include "arch/cache/cache.h"
#include "arch/outcome.h"
#include "isa/trace.h"

namespace jrs {

/** Pipeline parameters. */
struct PipelineConfig {
    std::uint32_t issueWidth = 4;
    std::uint32_t robSize = 64;
    std::uint32_t frontendDepth = 2;       ///< fetch-to-issue stages
    std::uint32_t mispredictPenalty = 4;   ///< refill bubble
    std::uint32_t icacheMissPenalty = 8;
    std::uint32_t dcacheMissPenalty = 12;
    CacheConfig icache{64 * 1024, 32, 2, true};
    CacheConfig dcache{64 * 1024, 32, 4, true};
};

/** The trace-driven pipeline. */
class PipelineSim : public TraceSink {
  public:
    explicit PipelineSim(PipelineConfig cfg);

    void onEvent(const TraceEvent &ev) override;
    void onFinish() override { observers_.finish(); }

    /** Instructions retired. */
    std::uint64_t instructions() const { return insts_; }

    /** Total cycles (last commit). */
    std::uint64_t cycles() const { return lastCommit_; }

    /** Instructions per cycle. */
    double ipc() const {
        return lastCommit_ == 0
            ? 0.0
            : static_cast<double>(insts_)
                / static_cast<double>(lastCommit_);
    }

    /** Branch mispredicts incurred (cond + indirect). */
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Conditional branches seen / mispredicted. */
    std::uint64_t condBranches() const { return condBranches_; }
    std::uint64_t condMispredicts() const { return condMispredicts_; }

    /** Indirect transfers seen / target-mispredicted. */
    std::uint64_t indirects() const { return indirects_; }
    std::uint64_t indirectMispredicts() const {
        return indirectMispredicts_;
    }

    /** The model's internal caches (read-only; stats for joins). */
    const Cache &icache() const { return icache_; }
    const Cache &dcache() const { return dcache_; }

    /**
     * Feed @p o one Step per event (outcomes and CPI stack), after
     * any observers attached earlier. @p o must outlive the replay.
     * Never affects timing.
     */
    void observe(StreamObserver &o) { observers_.add(o); }

    const PipelineConfig &config() const { return cfg_; }

  private:
    static std::uint32_t latencyOf(NKind kind);

    PipelineConfig cfg_;
    Cache icache_;
    Cache dcache_;
    GShare predictor_;
    Btb btb_;

    std::uint64_t insts_ = 0;
    std::uint64_t mispredicts_ = 0;
    std::uint64_t condBranches_ = 0;
    std::uint64_t condMispredicts_ = 0;
    std::uint64_t indirects_ = 0;
    std::uint64_t indirectMispredicts_ = 0;

    ObserverList observers_;
    /** Refill bubble owed to the previous mispredicted transfer. */
    CpiComponent pendingRedirect_ = CpiComponent::Base;
    std::uint32_t pendingRedirectBudget_ = 0;

    // Fetch state.
    std::uint64_t fetchCycle_ = 1;
    std::uint32_t fetchedThisCycle_ = 0;

    // Register scoreboard: cycle each architectural reg becomes ready.
    std::array<std::uint64_t, 256> regReady_{};

    // Approximate store->load forwarding: small direct-mapped table of
    // last-store completion times keyed by 4-byte granule.
    struct StoreEntry {
        std::uint64_t addr = ~0ull;
        std::uint64_t done = 0;
    };
    std::array<StoreEntry, 4096> stores_{};

    // Miss-status-holding registers: bound memory-level parallelism
    // to 4 outstanding misses.
    std::array<std::uint64_t, 4> mshr_{};
    std::size_t mshrHead_ = 0;

    // In-order commit: ring of completion times (ROB) + commit clock.
    std::vector<std::uint64_t> rob_;
    std::size_t robHead_ = 0;
    std::uint64_t lastCommit_ = 0;
    std::uint32_t commitsThisCycle_ = 0;
};

} // namespace jrs

#endif // JRS_ARCH_PIPELINE_PIPELINE_H
