#include "prof/cct.h"

#include <map>
#include <sstream>

#include "obs/json.h"

namespace jrs::prof {

CctBuilder::CctBuilder(const obs::MethodMap &map, Options opt)
    : tracker_(&map, FrameTrackerOptions{opt.maxDepth}), tree_(map)
{
    tree_[0].calls = 1;
    stack_.push_back(0);
}

void
CctBuilder::onSteps(const Step *steps, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        step(steps[i]);
}

void
CctBuilder::step(const Step &s)
{
    const TraceEvent &ev = s.ev;
    // The tracker closes an abandoned Translate frame before the
    // attribution point; mirror that into the node stack.
    if (tracker_.begin(ev).closedTranslate)
        stack_.pop_back();

    const int cur = stack_.back();
    CctNode &n = tree_[cur];

    // Mirror the tracker's lazily resolved method row (frames and
    // nodes advance in lockstep, so the frame at the same depth is
    // this node's current activation).
    if (n.methodRow < 0)
        n.methodRow = tracker_.stack()[stack_.size() - 1].methodRow;

    // The step's cycles belong to this context, even when the event
    // itself pushes or pops a frame (a Call's own cycles are the
    // caller's).
    const std::size_t p = static_cast<std::size_t>(ev.phase);
    ++events_;
    ++n.events;
    ++n.phaseEvents[p];
    if (s.hasCpi) {
        for (std::size_t c = 0; c < kNumCpiComponents; ++c)
            n.cpi[c] += s.cpi[c];
        const std::uint64_t t = s.cycles();
        n.phaseCycles[p] += t;
        cycles_ += t;
    }

    switch (tracker_.finish(ev)) {
      case FrameTracker::Action::Push: {
        const int child = tree_.childOf(cur, tracker_.stack().back());
        ++tree_[child].calls;
        stack_.push_back(child);
        break;
      }
      case FrameTracker::Action::Pop:
        stack_.pop_back();
        break;
      case FrameTracker::Action::None:
        break;
    }
}

std::vector<FoldedLine>
CctBuilder::foldedLines() const
{
    const bool useCycles = cycles_ > 0;
    return tree_.foldedLines([&](const CctNode &n, std::size_t ph) {
        return useCycles ? n.phaseCycles[ph] : n.phaseEvents[ph];
    });
}

std::string
CctBuilder::runJson(const std::string &label) const
{
    std::ostringstream os;
    os << "    {\n";
    os << "      \"label\": \"" << obs::jsonEscape(label) << "\",\n";
    os << "      \"value\": \""
       << (cycles_ > 0 ? "cycles" : "events") << "\",\n";
    os << "      \"events\": " << events_ << ",\n";
    os << "      \"cycles\": " << cycles_ << ",\n";
    os << "      \"nodes_total\": " << tree_.nodes().size() << ",\n";
    os << "      \"max_depth\": " << tracker_.maxDepthSeen() << ",\n";
    os << "      \"unmatched_rets\": " << tracker_.unmatchedRets()
       << ",\n";
    os << "      \"mismatched_rets\": " << tracker_.mismatchedRets()
       << ",\n";
    os << "      \"abandoned_translations\": "
       << tracker_.abandonedTranslations() << ",\n";
    os << "      \"overflow_pushes\": " << tracker_.overflowPushes()
       << ",\n";
    tree_.writeNodes(os, [](std::ostream &o, const CctNode &n) {
        o << ", \"calls\": " << n.calls << ", \"events\": " << n.events
          << ", \"cycles\": " << n.cycles() << ",\n";
        o << "         \"cpi\": {";
        for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
            if (c > 0)
                o << ", ";
            o << '"' << cpiComponentName(static_cast<CpiComponent>(c))
              << "\": " << n.cpi[c];
        }
        o << "},\n";
        o << "         \"phases\": {";
        bool first = true;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            if (n.phaseEvents[p] == 0 && n.phaseCycles[p] == 0)
                continue;
            if (!first)
                o << ", ";
            first = false;
            o << '"' << phaseName(static_cast<Phase>(p))
              << "\": {\"events\": " << n.phaseEvents[p]
              << ", \"cycles\": " << n.phaseCycles[p] << '}';
        }
        o << "},\n";
    });
    os << "    }";
    return os.str();
}

std::string
foldedDiff(const std::vector<FoldedLine> &a,
           const std::vector<FoldedLine> &b)
{
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> m;
    for (const FoldedLine &l : a)
        m[l.stack].first += l.value;
    for (const FoldedLine &l : b)
        m[l.stack].second += l.value;
    std::string out;
    for (const auto &[stack, v] : m) {
        out += stack;
        out += ' ';
        out += std::to_string(v.first);
        out += ' ';
        out += std::to_string(v.second);
        out += '\n';
    }
    return out;
}

} // namespace jrs::prof
