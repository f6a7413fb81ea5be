#include "prof/sampler.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.h"
#include "support/statistics.h"
#include "vm/runtime/vm_error.h"

namespace jrs::prof {

namespace {

using obs::jsonEscape;
using obs::jsonNumber;

/** Shares sorted hottest-first, ties broken by name (determinism). */
std::vector<std::pair<std::string, double>>
byShareDesc(std::vector<std::pair<std::string, double>> shares)
{
    std::sort(shares.begin(), shares.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    return shares;
}

int
sign(double v)
{
    if (v > 0)
        return 1;
    if (v < 0)
        return -1;
    return 0;
}

} // namespace

SamplingProfiler::SamplingProfiler(const obs::MethodMap &map,
                                   Options opt)
    : map_(&map), opt_(opt),
      tracker_(&map, FrameTrackerOptions{opt.maxDepth}),
      prng_(opt.seed)
{
    nodes_.emplace_back();
    nodes_[0].kind = FrameKind::Root;
    nextAt_ = jitteredGap(prng_, opt_.period);
}

void
SamplingProfiler::onSteps(const Step *steps, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        step(steps[i]);
}

void
SamplingProfiler::step(const Step &s)
{
    const TraceEvent &ev = s.ev;
    tracker_.begin(ev);
    clock_ += opt_.cycleClock ? s.cycles() : 1;
    // A single retired instruction can jump the clock past several
    // thresholds (a long miss penalty); cycle-proportional sampling
    // takes one sample per crossing, all at the same stack.
    while (clock_ >= nextAt_) {
        takeSample(ev.phase, ev.kind);
        nextAt_ += jitteredGap(prng_, opt_.period);
    }
    tracker_.finish(ev);
}

int
SamplingProfiler::childOf(int parent, const Frame &f)
{
    for (const int k : nodes_[parent].kids) {
        if (nodes_[k].key == f.key) {
            if (nodes_[k].methodRow < 0)
                nodes_[k].methodRow = f.methodRow;
            return k;
        }
    }
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    SampleNode &n = nodes_.back();
    n.key = f.key;
    n.kind = f.kind;
    n.parent = parent;
    n.methodId = f.methodId;
    n.methodRow = f.methodRow;
    n.stubName = f.stubName;
    nodes_[parent].kids.push_back(id);
    return id;
}

void
SamplingProfiler::takeSample(Phase phase, NKind kind)
{
    const std::vector<Frame> &fr = tracker_.stack();
    if (nodes_[0].methodRow < 0)
        nodes_[0].methodRow = fr[0].methodRow;
    int cur = 0;
    for (std::size_t i = 1; i < fr.size(); ++i)
        cur = childOf(cur, fr[i]);
    SampleNode &n = nodes_[cur];
    ++n.samples;
    ++n.phaseSamples[static_cast<std::size_t>(phase)];
    ++samples_;
    ++kindSamples_[static_cast<std::size_t>(kind)];
}

std::string
SamplingProfiler::nodeName(const SampleNode &n) const
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
SamplingProfiler::sortedKids(const SampleNode &n) const
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
SamplingProfiler::walk(int n, std::vector<int> &path, Fn &&fn) const
{
    path.push_back(n);
    fn(n, path);
    for (const int k : sortedKids(nodes_[n]))
        walk(k, path, fn);
    path.pop_back();
}

std::vector<FoldedLine>
SamplingProfiler::foldedLines() const
{
    std::vector<FoldedLine> out;
    std::vector<int> path;
    walk(0, path, [&](int n, const std::vector<int> &p) {
        const SampleNode &node = nodes_[n];
        std::string prefix;
        for (std::size_t i = 0; i < p.size(); ++i) {
            if (i > 0)
                prefix += ';';
            prefix += nodeName(nodes_[p[i]]);
        }
        for (std::size_t ph = 0; ph < kNumPhases; ++ph) {
            const std::uint64_t v = node.phaseSamples[ph];
            if (v == 0)
                continue;
            out.push_back({prefix + foldedPhaseSuffix(ph), v});
        }
    });
    return out;
}

std::string
SamplingProfiler::runJson(const std::string &label) const
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
    os << "      \"clock\": \""
       << (opt_.cycleClock ? "cycles" : "events") << "\",\n";
    os << "      \"period\": " << opt_.period << ",\n";
    os << "      \"seed\": " << opt_.seed << ",\n";
    os << "      \"samples\": " << samples_ << ",\n";
    os << "      \"clock_total\": " << clock_ << ",\n";
    os << "      \"nodes_total\": " << nodes_.size() << ",\n";
    os << "      \"max_depth\": " << tracker_.maxDepthSeen() << ",\n";
    os << "      \"unmatched_rets\": " << tracker_.unmatchedRets()
       << ",\n";
    os << "      \"kinds\": {";
    bool firstKind = true;
    for (std::size_t k = 0; k < kNumNKinds; ++k) {
        if (kindSamples_[k] == 0)
            continue;
        if (!firstKind)
            os << ", ";
        firstKind = false;
        os << '"' << nkindName(static_cast<NKind>(k))
           << "\": " << kindSamples_[k];
    }
    os << "},\n";
    os << "      \"nodes\": [\n";
    for (std::size_t i = 0; i < order.size(); ++i) {
        const SampleNode &n = nodes_[order[i]];
        os << "        {\"id\": " << i << ", \"parent\": "
           << (n.parent < 0 ? -1 : newId[n.parent]) << ", \"name\": \""
           << jsonEscape(nodeName(n)) << "\", \"kind\": \""
           << frameKindName(n.kind)
           << "\", \"samples\": " << n.samples << ",\n";
        os << "         \"phases\": {";
        bool first = true;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            if (n.phaseSamples[p] == 0)
                continue;
            if (!first)
                os << ", ";
            first = false;
            os << '"' << phaseName(static_cast<Phase>(p))
               << "\": " << n.phaseSamples[p];
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
SampleReportSet::add(const std::string &label,
                     const SamplingProfiler &s)
{
    Snapshot snap{s.runJson(label), s.foldedLines()};
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
SampleReportSet::size() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return runs_.size();
}

std::string
SampleReportSet::toJson() const
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
    out += "{\n  \"schema\": \"jrs-sample-v1\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        out += runs[i].second.json;
        out += i + 1 < runs.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
SampleReportSet::writeJson(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        throw VmError("cannot write sample report: " + path);
    f << toJson();
}

void
SampleReportSet::writeFolded(const std::string &path) const
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
        throw VmError("cannot write folded samples: " + path);
    for (const auto &[label, snap] : runs) {
        for (const FoldedLine &l : snap.folded) {
            if (runs.size() > 1)
                f << label << ';';
            f << l.stack << ' ' << l.value << '\n';
        }
    }
}

std::vector<FoldedLine>
SampleReportSet::folded(const std::string &label) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[l, snap] : runs_) {
        if (l == label)
            return snap.folded;
    }
    return {};
}

double
topShareOverlap(
    const std::vector<std::pair<std::string, double>> &exact,
    const std::vector<std::pair<std::string, double>> &sampled,
    std::size_t n)
{
    const auto a = byShareDesc(exact);
    const auto b = byShareDesc(sampled);
    const std::size_t k = std::min({n, a.size(), b.size()});
    if (k == 0)
        return 1.0;
    std::set<std::string> hotA;
    for (std::size_t i = 0; i < k; ++i)
        hotA.insert(a[i].first);
    std::size_t shared = 0;
    for (std::size_t i = 0; i < k; ++i) {
        if (hotA.count(b[i].first) != 0)
            ++shared;
    }
    return static_cast<double>(shared) / static_cast<double>(k);
}

double
shareRankAgreement(
    const std::vector<std::pair<std::string, double>> &exact,
    const std::vector<std::pair<std::string, double>> &sampled)
{
    std::map<std::string, double> b;
    for (const auto &[name, v] : sampled)
        b[name] = v;
    // Common names only, in name order (the result is order-free,
    // this just makes the pair walk deterministic).
    std::vector<std::pair<double, double>> common;
    std::map<std::string, double> a;
    for (const auto &[name, v] : exact)
        a[name] = v;
    for (const auto &[name, va] : a) {
        const auto it = b.find(name);
        if (it != b.end())
            common.emplace_back(va, it->second);
    }
    if (common.size() < 2)
        return 1.0;
    std::uint64_t concordant = 0, pairs = 0;
    for (std::size_t i = 0; i < common.size(); ++i) {
        for (std::size_t j = i + 1; j < common.size(); ++j) {
            ++pairs;
            if (sign(common[i].first - common[j].first) ==
                sign(common[i].second - common[j].second))
                ++concordant;
        }
    }
    return static_cast<double>(concordant) /
           static_cast<double>(pairs);
}

CalibrationReport
calibrate(const CctBuilder &exact, const SamplingProfiler &sampled,
          std::size_t topN)
{
    const bool cycles = exact.totalCycles() > 0;
    std::map<std::string, std::uint64_t> exactBy;
    std::uint64_t exactTotal = 0;
    for (const CctNode &n : exact.nodes()) {
        const std::uint64_t v = cycles ? n.cycles() : n.events;
        if (v == 0)
            continue;
        exactBy[exact.nodeName(n)] += v;
        exactTotal += v;
    }
    std::map<std::string, std::uint64_t> sampledBy;
    for (const SampleNode &n : sampled.nodes()) {
        if (n.samples != 0)
            sampledBy[sampled.nodeName(n)] += n.samples;
    }
    const std::uint64_t sampleTotal = sampled.samples();

    CalibrationReport rep;
    rep.value = cycles ? "cycles" : "events";
    rep.samples = sampleTotal;
    rep.topN = topN;

    std::set<std::string> names;
    for (const auto &[name, v] : exactBy)
        names.insert(name);
    for (const auto &[name, v] : sampledBy)
        names.insert(name);

    std::vector<std::pair<std::string, double>> exactShares;
    std::vector<std::pair<std::string, double>> sampledShares;
    double errSum = 0;
    for (const std::string &name : names) {
        CalibrationRow row;
        row.name = name;
        const auto e = exactBy.find(name);
        if (e != exactBy.end()) {
            row.exactValue = e->second;
            if (exactTotal > 0)
                row.exactShare = static_cast<double>(e->second) /
                                 static_cast<double>(exactTotal);
        }
        const auto s = sampledBy.find(name);
        if (s != sampledBy.end()) {
            row.sampleCount = s->second;
            if (sampleTotal > 0)
                row.sampledShare = static_cast<double>(s->second) /
                                   static_cast<double>(sampleTotal);
        }
        const double err =
            std::abs(row.exactShare - row.sampledShare) * 100.0;
        errSum += err;
        rep.maxAbsErrPct = std::max(rep.maxAbsErrPct, err);
        exactShares.emplace_back(name, row.exactShare);
        sampledShares.emplace_back(name, row.sampledShare);
        rep.rows.push_back(std::move(row));
    }
    if (!rep.rows.empty())
        rep.meanAbsErrPct = errSum / static_cast<double>(
                                         rep.rows.size());
    std::sort(rep.rows.begin(), rep.rows.end(),
              [](const CalibrationRow &a, const CalibrationRow &b) {
                  if (a.exactShare != b.exactShare)
                      return a.exactShare > b.exactShare;
                  return a.name < b.name;
              });
    rep.topOverlap = topShareOverlap(exactShares, sampledShares,
                                     topN);
    rep.rankAgreement = shareRankAgreement(exactShares,
                                           sampledShares);
    return rep;
}

std::string
CalibrationReport::text(std::size_t maxRows) const
{
    std::ostringstream os;
    os << "  method                               exact%  sampled%"
          "    |err|\n";
    const std::size_t shown = std::min(maxRows, rows.size());
    for (std::size_t i = 0; i < shown; ++i) {
        const CalibrationRow &r = rows[i];
        std::string name = r.name;
        if (name.size() > 35)
            name = name.substr(0, 32) + "...";
        os << "  " << name
           << std::string(name.size() < 35 ? 35 - name.size() : 0,
                          ' ');
        const auto cell = [&os](double v) {
            const std::string s = fixed(v, 2);
            os << std::string(s.size() < 9 ? 9 - s.size() : 0, ' ')
               << s;
        };
        cell(r.exactShare * 100.0);
        cell(r.sampledShare * 100.0);
        cell(std::abs(r.exactShare - r.sampledShare) * 100.0);
        os << '\n';
    }
    if (shown < rows.size())
        os << "  ... " << rows.size() - shown << " more\n";
    os << "  samples=" << samples << " value=" << value
       << " mean|err|=" << fixed(meanAbsErrPct, 3)
       << "% max|err|=" << fixed(maxAbsErrPct, 3) << "% top" << topN
       << " overlap=" << fixed(topOverlap, 2)
       << " rank agreement=" << fixed(rankAgreement, 3) << '\n';
    return os.str();
}

} // namespace jrs::prof
