/**
 * @file
 * Branch predictors (Table 2).
 *
 * The paper's four conditional schemes, left to right in increasing
 * sophistication:
 *  - TwoBitPredictor : a single global 2-bit saturating counter
 *    ("included only for validation and consistency checking")
 *  - Bht1Level       : 2K-entry PC-indexed table of 2-bit counters
 *  - GShare          : 5 bits of global history XORed into the PC index
 *  - TwoLevelPc      : two-level, PC-indexed first level (per-address
 *    8-bit histories) indexing a 256-entry second-level counter table
 *    (the paper's GAp-style predictor)
 *
 * Register-indirect jumps/calls are covered by a 1K-entry BTB
 * (arch/bpred/btb.h); PredictorBank drives all of them from one trace
 * and reports per-scheme misprediction rates over all control
 * transfers needing prediction (conditional + indirect), the figure of
 * merit Table 2 tabulates.
 */
#ifndef JRS_ARCH_BPRED_PREDICTORS_H
#define JRS_ARCH_BPRED_PREDICTORS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/bpred/btb.h"
#include "isa/trace.h"

namespace jrs {

/** Conditional branch predictor interface. */
class BranchPredictor {
  public:
    virtual ~BranchPredictor() = default;

    /** Predict the branch at @p pc. */
    virtual bool predict(std::uint64_t pc) = 0;

    /** Train with the actual outcome. */
    virtual void update(std::uint64_t pc, bool taken) = 0;

    /** Scheme name. */
    virtual const char *name() const = 0;
};

/** One global 2-bit saturating counter. */
class TwoBitPredictor : public BranchPredictor {
  public:
    bool predict(std::uint64_t) override { return counter_ >= 2; }
    void update(std::uint64_t, bool taken) override {
        if (taken && counter_ < 3)
            ++counter_;
        else if (!taken && counter_ > 0)
            --counter_;
    }
    const char *name() const override { return "2bit"; }

  private:
    std::uint8_t counter_ = 2;
};

/** PC-indexed table of 2-bit counters (1-level BHT). */
class Bht1Level : public BranchPredictor {
  public:
    explicit Bht1Level(std::size_t entries = 2048)
        : table_(entries, 2), mask_(entries - 1) {}

    bool predict(std::uint64_t pc) override {
        return table_[index(pc)] >= 2;
    }
    void update(std::uint64_t pc, bool taken) override {
        std::uint8_t &c = table_[index(pc)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
    }
    const char *name() const override { return "bht"; }

  private:
    std::size_t index(std::uint64_t pc) const {
        return static_cast<std::size_t>(pc >> 2) & mask_;
    }
    std::vector<std::uint8_t> table_;
    std::size_t mask_;
};

/** GShare: global history XOR PC. */
class GShare : public BranchPredictor {
  public:
    explicit GShare(std::size_t entries = 2048,
                    std::uint32_t history_bits = 5)
        : table_(entries, 2), mask_(entries - 1),
          histMask_((1u << history_bits) - 1) {}

    bool predict(std::uint64_t pc) override {
        return table_[index(pc)] >= 2;
    }
    void update(std::uint64_t pc, bool taken) override {
        std::uint8_t &c = table_[index(pc)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
        history_ = ((history_ << 1) | (taken ? 1u : 0u)) & histMask_;
    }
    const char *name() const override { return "gshare"; }

  private:
    std::size_t index(std::uint64_t pc) const {
        return (static_cast<std::size_t>(pc >> 2)
                ^ static_cast<std::size_t>(history_))
            & mask_;
    }
    std::vector<std::uint8_t> table_;
    std::size_t mask_;
    std::uint32_t histMask_;
    std::uint32_t history_ = 0;
};

/** Two-level, PC-indexed first level (GAp-style). */
class TwoLevelPc : public BranchPredictor {
  public:
    TwoLevelPc(std::size_t first_entries = 2048,
               std::size_t second_entries = 256)
        : histories_(first_entries, 0), firstMask_(first_entries - 1),
          counters_(second_entries, 2), secondMask_(second_entries - 1)
    {}

    bool predict(std::uint64_t pc) override {
        return counters_[secondIndex(pc)] >= 2;
    }
    void update(std::uint64_t pc, bool taken) override {
        std::uint8_t &c = counters_[secondIndex(pc)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
        std::uint8_t &h = histories_[firstIndex(pc)];
        h = static_cast<std::uint8_t>((h << 1) | (taken ? 1 : 0));
    }
    const char *name() const override { return "two_level_pc"; }

  private:
    std::size_t firstIndex(std::uint64_t pc) const {
        return static_cast<std::size_t>(pc >> 2) & firstMask_;
    }
    std::size_t secondIndex(std::uint64_t pc) const {
        return static_cast<std::size_t>(histories_[firstIndex(pc)])
            & secondMask_;
    }
    std::vector<std::uint8_t> histories_;
    std::size_t firstMask_;
    std::vector<std::uint8_t> counters_;
    std::size_t secondMask_;
};

/** Per-scheme results from a PredictorBank run. */
struct PredictorResult {
    const char *name;
    std::uint64_t condBranches;
    std::uint64_t condMispredicts;
    std::uint64_t indirects;
    std::uint64_t indirectMispredicts;

    /** Combined misprediction rate over cond + indirect transfers. */
    double mispredictRate() const {
        const std::uint64_t n = condBranches + indirects;
        return n == 0 ? 0.0
                      : static_cast<double>(condMispredicts
                                            + indirectMispredicts)
                / static_cast<double>(n);
    }
    /** Conditional-only misprediction rate. */
    double condRate() const {
        return condBranches == 0
            ? 0.0
            : static_cast<double>(condMispredicts)
                / static_cast<double>(condBranches);
    }
};

/** Runs the paper's four predictors + a shared BTB over one trace. */
class PredictorBank : public TraceSink {
  public:
    PredictorBank();

    void onEvent(const TraceEvent &ev) override;

    /** Results for every scheme, left-to-right as in Table 2. */
    std::vector<PredictorResult> results() const;

    /** BTB statistics. */
    std::uint64_t indirects() const { return indirects_; }
    std::uint64_t btbMisses() const { return btbMisses_; }

  private:
    std::vector<std::unique_ptr<BranchPredictor>> preds_;
    std::vector<std::uint64_t> mispredicts_;
    std::uint64_t condBranches_ = 0;
    Btb btb_;
    std::uint64_t indirects_ = 0;
    std::uint64_t btbMisses_ = 0;
};

} // namespace jrs

#endif // JRS_ARCH_BPRED_PREDICTORS_H
