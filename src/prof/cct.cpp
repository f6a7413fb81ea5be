#include "prof/cct.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.h"
#include "vm/runtime/vm_error.h"

namespace jrs::prof {

namespace {

using obs::jsonEscape;

/** Brendan-Gregg style leaf annotations, indexed by Phase. */
const char *const kPhaseSuffix[kNumPhases] = {
    "_[i]",   // Interpret
    "_[t]",   // Translate
    "_[j]",   // NativeExec (JIT-generated code)
    "_[r]",   // Runtime
    "_[gc]",  // Gc
};

} // namespace

const char *
foldedPhaseSuffix(std::size_t p)
{
    return kPhaseSuffix[p];
}

CctBuilder::CctBuilder(const obs::MethodMap &map, Options opt)
    : map_(&map),
      tracker_(&map, FrameTrackerOptions{opt.maxDepth})
{
    nodes_.emplace_back();
    nodes_[0].kind = FrameKind::Root;
    nodes_[0].calls = 1;
    stack_.push_back(0);
}

int
CctBuilder::childOf(int parent, FrameKind kind, std::uint64_t key,
                    std::uint32_t methodId, const char *stubName)
{
    for (const int k : nodes_[parent].kids) {
        if (nodes_[k].key == key)
            return k;
    }
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    CctNode &n = nodes_.back();
    n.key = key;
    n.kind = kind;
    n.parent = parent;
    n.methodId = methodId;
    n.stubName = stubName;
    nodes_[parent].kids.push_back(id);
    return id;
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
    CctNode &n = nodes_[cur];

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
        const Frame &f = tracker_.stack().back();
        const int child =
            childOf(cur, f.kind, f.key, f.methodId, f.stubName);
        ++nodes_[child].calls;
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

std::string
CctBuilder::nodeName(const CctNode &n) const
{
    if (n.kind == FrameKind::Root) {
        if (n.methodRow >= 0)
            return map_->name(n.methodRow);
        return "(root)";
    }
    if (n.kind == FrameKind::Method) {
        if (n.methodRow >= 0)
            return map_->name(n.methodRow);
        return "(method#" + std::to_string(n.methodId) + ")";
    }
    return n.stubName;
}

std::vector<int>
CctBuilder::sortedKids(const CctNode &n) const
{
    std::vector<int> kids = n.kids;
    std::sort(kids.begin(), kids.end(), [this](int a, int b) {
        const std::string na = nodeName(nodes_[a]);
        const std::string nb = nodeName(nodes_[b]);
        if (na != nb)
            return na < nb;
        return nodes_[a].key < nodes_[b].key;
    });
    return kids;
}

template <class Fn>
void
CctBuilder::walk(int n, std::vector<int> &path, Fn &&fn) const
{
    path.push_back(n);
    fn(n, path);
    for (const int k : sortedKids(nodes_[n]))
        walk(k, path, fn);
    path.pop_back();
}

std::vector<FoldedLine>
CctBuilder::foldedLines() const
{
    const bool useCycles = cycles_ > 0;
    std::vector<FoldedLine> out;
    std::vector<int> path;
    walk(0, path, [&](int n, const std::vector<int> &p) {
        const CctNode &node = nodes_[n];
        std::string prefix;
        for (std::size_t i = 0; i < p.size(); ++i) {
            if (i > 0)
                prefix += ';';
            prefix += nodeName(nodes_[p[i]]);
        }
        for (std::size_t ph = 0; ph < kNumPhases; ++ph) {
            const std::uint64_t v = useCycles ? node.phaseCycles[ph]
                                              : node.phaseEvents[ph];
            if (v == 0)
                continue;
            out.push_back({prefix + kPhaseSuffix[ph], v});
        }
    });
    return out;
}

std::string
CctBuilder::runJson(const std::string &label) const
{
    // Remap node ids to DFS order (children sorted by name) so the
    // document is deterministic across runs of the same stream.
    std::vector<int> order;
    std::vector<int> newId(nodes_.size(), -1);
    {
        std::vector<int> path;
        walk(0, path, [&](int n, const std::vector<int> &) {
            newId[n] = static_cast<int>(order.size());
            order.push_back(n);
        });
    }

    std::ostringstream os;
    os << "    {\n";
    os << "      \"label\": \"" << jsonEscape(label) << "\",\n";
    os << "      \"value\": \""
       << (cycles_ > 0 ? "cycles" : "events") << "\",\n";
    os << "      \"events\": " << events_ << ",\n";
    os << "      \"cycles\": " << cycles_ << ",\n";
    os << "      \"nodes_total\": " << nodes_.size() << ",\n";
    os << "      \"max_depth\": " << maxDepthSeen() << ",\n";
    os << "      \"unmatched_rets\": " << unmatchedRets() << ",\n";
    os << "      \"mismatched_rets\": " << mismatchedRets() << ",\n";
    os << "      \"abandoned_translations\": " << abandonedTranslations()
       << ",\n";
    os << "      \"overflow_pushes\": " << overflowPushes() << ",\n";
    os << "      \"nodes\": [\n";
    for (std::size_t i = 0; i < order.size(); ++i) {
        const CctNode &n = nodes_[order[i]];
        os << "        {\"id\": " << i << ", \"parent\": "
           << (n.parent < 0 ? -1 : newId[n.parent]) << ", \"name\": \""
           << jsonEscape(nodeName(n)) << "\", \"kind\": \""
           << frameKindName(n.kind) << "\", \"calls\": " << n.calls
           << ", \"events\": " << n.events
           << ", \"cycles\": " << n.cycles() << ",\n";
        os << "         \"cpi\": {";
        for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
            if (c > 0)
                os << ", ";
            os << '"'
               << cpiComponentName(static_cast<CpiComponent>(c))
               << "\": " << n.cpi[c];
        }
        os << "},\n";
        os << "         \"phases\": {";
        bool first = true;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            if (n.phaseEvents[p] == 0 && n.phaseCycles[p] == 0)
                continue;
            if (!first)
                os << ", ";
            first = false;
            os << '"' << phaseName(static_cast<Phase>(p))
               << "\": {\"events\": " << n.phaseEvents[p]
               << ", \"cycles\": " << n.phaseCycles[p] << '}';
        }
        os << "},\n";
        os << "         \"children\": [";
        const std::vector<int> kids = sortedKids(n);
        for (std::size_t k = 0; k < kids.size(); ++k) {
            if (k > 0)
                os << ", ";
            os << newId[kids[k]];
        }
        os << "]}";
        os << (i + 1 < order.size() ? ",\n" : "\n");
    }
    os << "      ]\n";
    os << "    }";
    return os.str();
}

void
CctReportSet::add(const std::string &label, const CctBuilder &cct)
{
    Snapshot snap{cct.runJson(label), cct.foldedLines()};
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto &r : runs_) {
        if (r.first == label) {
            r.second = std::move(snap);
            return;
        }
    }
    runs_.emplace_back(label, std::move(snap));
}

std::size_t
CctReportSet::size() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return runs_.size();
}

std::string
CctReportSet::toJson() const
{
    std::vector<std::pair<std::string, Snapshot>> runs;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        runs = runs_;
    }
    std::sort(runs.begin(), runs.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::string out;
    out += "{\n  \"schema\": \"jrs-cct-v1\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        out += runs[i].second.json;
        out += i + 1 < runs.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
CctReportSet::writeJson(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        throw VmError("cannot write CCT report: " + path);
    f << toJson();
}

void
CctReportSet::writeFolded(const std::string &path) const
{
    std::vector<std::pair<std::string, Snapshot>> runs;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        runs = runs_;
    }
    std::sort(runs.begin(), runs.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        throw VmError("cannot write folded stacks: " + path);
    for (const auto &[label, snap] : runs) {
        for (const FoldedLine &l : snap.folded) {
            if (runs.size() > 1)
                f << label << ';';
            f << l.stack << ' ' << l.value << '\n';
        }
    }
}

std::vector<FoldedLine>
CctReportSet::folded(const std::string &label) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[l, snap] : runs_) {
        if (l == label)
            return snap.folded;
    }
    return {};
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

void
writeFoldedDiff(const std::vector<FoldedLine> &a,
                const std::vector<FoldedLine> &b,
                const std::string &path)
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        throw VmError("cannot write folded diff: " + path);
    f << foldedDiff(a, b);
}

} // namespace jrs::prof
