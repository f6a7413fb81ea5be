#include "arch/pipeline/pipeline.h"

#include <algorithm>

namespace jrs {

PipelineSim::PipelineSim(PipelineConfig cfg)
    : cfg_(cfg), icache_(cfg.icache), dcache_(cfg.dcache)
{
    rob_.assign(cfg_.robSize, 0);
}

std::uint32_t
PipelineSim::latencyOf(NKind kind)
{
    switch (kind) {
      case NKind::IntAlu:       return 1;
      case NKind::IntMul:       return 3;
      case NKind::IntDiv:       return 12;
      case NKind::FpAlu:        return 3;
      case NKind::FpMul:        return 3;
      case NKind::FpDiv:        return 12;
      case NKind::Load:         return 2;
      case NKind::Store:        return 1;
      default:                  return 1;
    }
}

void
PipelineSim::onEvent(const TraceEvent &ev)
{
    ++insts_;
    const std::uint64_t prevCommit = lastCommit_;

    // Redirect bubble owed by the previous mispredicted transfer: the
    // first instruction down the correct path pays it, so its commit
    // delta is what the sample decomposition charges it against.
    const CpiComponent redirectComp = pendingRedirect_;
    const std::uint64_t redirectBudget = pendingRedirectBudget_;
    pendingRedirectBudget_ = 0;

    // ------------------------------------------------------------ fetch
    if (fetchedThisCycle_ >= cfg_.issueWidth) {
        ++fetchCycle_;
        fetchedThisCycle_ = 0;
    }
    const bool imiss = !icache_.access(ev.pc, false, ev.phase);
    if (imiss) {
        fetchCycle_ += cfg_.icacheMissPenalty;
        fetchedThisCycle_ = 0;
    }
    const std::uint64_t fetch = fetchCycle_;
    ++fetchedThisCycle_;

    // ---------------------------------------------------------- dispatch
    const std::uint64_t dispatch = fetch + cfg_.frontendDepth;

    // ROB occupancy: this instruction's slot must have committed.
    const std::uint64_t rob_free = rob_[robHead_];
    std::uint64_t ready = std::max(dispatch, rob_free);
    const std::uint64_t robWait =
        rob_free > dispatch ? rob_free - dispatch : 0;
    const std::uint64_t readyAfterRob = ready;

    // Register dependences.
    if (ev.rs1 != kNoReg)
        ready = std::max(ready, regReady_[ev.rs1]);
    if (ev.rs2 != kNoReg)
        ready = std::max(ready, regReady_[ev.rs2]);

    // Memory dependences through the store table.
    if (ev.kind == NKind::Load) {
        const StoreEntry &se =
            stores_[static_cast<std::size_t>(ev.mem >> 2) & 4095];
        if (se.addr == (ev.mem >> 2))
            ready = std::max(ready, se.done);
    }
    const std::uint64_t depWait = ready - readyAfterRob;

    // ----------------------------------------------------------- execute
    const std::uint32_t latencyBase = latencyOf(ev.kind);
    std::uint32_t latency = latencyBase;
    std::uint64_t dcacheBudget = 0;
    bool dmiss = false;
    if (ev.kind == NKind::Load) {
        dmiss = !dcache_.access(ev.mem, false, ev.phase);
        if (dmiss) {
            // A miss needs a free MSHR: memory-level parallelism is
            // bounded, so streams of misses serialize on the memory
            // port.
            const std::uint64_t mshrWait =
                mshr_[mshrHead_] > ready ? mshr_[mshrHead_] - ready : 0;
            ready = std::max(ready, mshr_[mshrHead_]);
            latency += cfg_.dcacheMissPenalty;
            mshr_[mshrHead_] = ready + latency;
            mshrHead_ = (mshrHead_ + 1) % mshr_.size();
            dcacheBudget = cfg_.dcacheMissPenalty + mshrWait;
        }
    } else if (ev.kind == NKind::Store) {
        dmiss = !dcache_.access(ev.mem, true, ev.phase);
        if (dmiss) {
            // Write-allocate fill occupies an MSHR but does not stall
            // the store itself (write buffer).
            mshr_[mshrHead_] =
                std::max(mshr_[mshrHead_], ready)
                + cfg_.dcacheMissPenalty;
            mshrHead_ = (mshrHead_ + 1) % mshr_.size();
        }
    }
    const std::uint64_t done = ready + latency;

    if (ev.rd != kNoReg)
        regReady_[ev.rd] = done;
    if (ev.kind == NKind::Store) {
        StoreEntry &se =
            stores_[static_cast<std::size_t>(ev.mem >> 2) & 4095];
        se.addr = ev.mem >> 2;
        se.done = done;
    }

    // ---------------------------------------------------------- control
    bool wrong = false;
    if (ev.kind == NKind::Branch) {
        ++condBranches_;
        const bool pred = predictor_.predict(ev.pc);
        predictor_.update(ev.pc, ev.taken);
        wrong = pred != ev.taken;
        if (wrong) {
            ++mispredicts_;
            ++condMispredicts_;
            fetchCycle_ =
                std::max(fetchCycle_, done + cfg_.mispredictPenalty);
            fetchedThisCycle_ = 0;
            pendingRedirect_ = CpiComponent::BranchMispredict;
            pendingRedirectBudget_ =
                cfg_.mispredictPenalty + cfg_.frontendDepth;
        }
        // Correctly predicted taken branches fetch through: the BTB
        // steers the front end with no bubble.
    } else if (ev.kind == NKind::IndirectJump
               || ev.kind == NKind::IndirectCall) {
        ++indirects_;
        const std::uint64_t pred = btb_.predict(ev.pc);
        btb_.update(ev.pc, ev.target);
        wrong = pred != ev.target;
        if (wrong) {
            ++mispredicts_;
            ++indirectMispredicts_;
            fetchCycle_ =
                std::max(fetchCycle_, done + cfg_.mispredictPenalty);
            fetchedThisCycle_ = 0;
            pendingRedirect_ = CpiComponent::IndirectTarget;
            pendingRedirectBudget_ =
                cfg_.mispredictPenalty + cfg_.frontendDepth;
        }
    }
    // Direct jumps/calls/returns and predicted-taken branches are
    // steered by the BTB without a fetch bubble.

    // ----------------------------------------------------------- commit
    std::uint64_t commit = std::max(done, lastCommit_);
    if (commit == lastCommit_) {
        if (commitsThisCycle_ >= cfg_.issueWidth) {
            ++commit;
            commitsThisCycle_ = 1;
        } else {
            ++commitsThisCycle_;
        }
    } else {
        commitsThisCycle_ = 1;
    }
    lastCommit_ = commit;
    rob_[robHead_] = commit;
    robHead_ = (robHead_ + 1) % rob_.size();

    if (!observers_.empty()) {
        Step &s = observers_.open(ev);
        s.add(PerfKind::ICacheFetch, imiss,
              imiss ? cfg_.icacheMissPenalty : 0);
        if (ev.kind == NKind::Load) {
            s.add(PerfKind::DCacheLoad, dmiss,
                  static_cast<std::uint32_t>(dcacheBudget));
        } else if (ev.kind == NKind::Store) {
            s.add(PerfKind::DCacheStore, dmiss);
        }
        const std::uint32_t redirect =
            wrong ? cfg_.mispredictPenalty : 0;
        if (ev.kind == NKind::Branch) {
            s.add(PerfKind::CondBranch, wrong, redirect);
        } else if (ev.kind == NKind::IndirectJump
                   || ev.kind == NKind::IndirectCall) {
            s.add(PerfKind::IndirectTarget, wrong, redirect);
        }

        // Interval-style CPI stack: split this instruction's commit
        // delta across the stalls it suffered, front end first, each
        // capped at its modelled budget; the residue is base work.
        // The caps make the split exact: steps sum to cycles().
        s.hasCpi = true;
        for (std::uint64_t &c : s.cpi)
            c = 0;
        std::uint64_t remaining = lastCommit_ - prevCommit;
        const auto take = [&](CpiComponent c, std::uint64_t budget) {
            const std::uint64_t t = std::min(remaining, budget);
            s.cpi[static_cast<std::size_t>(c)] += t;
            remaining -= t;
        };
        take(redirectComp, redirectBudget);
        take(CpiComponent::ICache,
             imiss ? cfg_.icacheMissPenalty : 0);
        take(CpiComponent::DCache, dcacheBudget);
        take(CpiComponent::Backend,
             robWait + depWait + (latencyBase - 1));
        s.cpi[static_cast<std::size_t>(CpiComponent::Base)] +=
            remaining;
        observers_.commit();
    }
}

} // namespace jrs
