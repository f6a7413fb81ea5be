#include "arch/bpred/predictors.h"

namespace jrs {

PredictorBank::PredictorBank()
{
    preds_.push_back(std::make_unique<TwoBitPredictor>());
    preds_.push_back(std::make_unique<Bht1Level>());
    preds_.push_back(std::make_unique<GShare>());
    preds_.push_back(std::make_unique<TwoLevelPc>());
    mispredicts_.assign(preds_.size(), 0);
}

void
PredictorBank::onEvent(const TraceEvent &ev)
{
    if (ev.kind == NKind::Branch) {
        ++condBranches_;
        for (std::size_t i = 0; i < preds_.size(); ++i) {
            if (preds_[i]->predict(ev.pc) != ev.taken)
                ++mispredicts_[i];
            preds_[i]->update(ev.pc, ev.taken);
        }
        return;
    }
    if (ev.kind == NKind::IndirectJump
        || ev.kind == NKind::IndirectCall) {
        ++indirects_;
        if (btb_.predict(ev.pc) != ev.target)
            ++btbMisses_;
        btb_.update(ev.pc, ev.target);
    }
}

std::vector<PredictorResult>
PredictorBank::results() const
{
    std::vector<PredictorResult> out;
    for (std::size_t i = 0; i < preds_.size(); ++i) {
        PredictorResult r;
        r.name = preds_[i]->name();
        r.condBranches = condBranches_;
        r.condMispredicts = mispredicts_[i];
        r.indirects = indirects_;
        r.indirectMispredicts = btbMisses_;
        out.push_back(r);
    }
    return out;
}

} // namespace jrs
