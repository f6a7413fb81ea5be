#include "prof/sampler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.h"
#include "support/statistics.h"

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

/** Per display name, the sum of value(node) over @p tree's nodes
 *  (names whose sum is 0 are left out). */
template <class Counts, class ValueFn>
std::map<std::string, std::uint64_t>
flatten(const ContextTree<Counts> &tree, ValueFn &&value)
{
    std::map<std::string, std::uint64_t> by;
    for (const auto &n : tree.nodes()) {
        if (const std::uint64_t v = value(n); v != 0)
            by[tree.name(n)] += v;
    }
    return by;
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
    : opt_(opt), tracker_(&map, FrameTrackerOptions{opt.maxDepth}),
      prng_(opt.seed), tree_(map)
{
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

void
SamplingProfiler::takeSample(Phase phase, NKind kind)
{
    const std::vector<Frame> &fr = tracker_.stack();
    if (tree_[0].methodRow < 0)
        tree_[0].methodRow = fr[0].methodRow;
    int cur = 0;
    for (std::size_t i = 1; i < fr.size(); ++i)
        cur = tree_.childOf(cur, fr[i]);
    ContextNode<SampleCounts> &n = tree_[cur];
    ++n.samples;
    ++n.phaseSamples[static_cast<std::size_t>(phase)];
    ++samples_;
    ++kindSamples_[static_cast<std::size_t>(kind)];
}

std::vector<FoldedLine>
SamplingProfiler::foldedLines() const
{
    return tree_.foldedLines([](const auto &n, std::size_t ph) {
        return n.phaseSamples[ph];
    });
}

std::string
SamplingProfiler::runJson(const std::string &label) const
{
    std::ostringstream os;
    os << "    {\n";
    os << "      \"label\": \"" << jsonEscape(label) << "\",\n";
    os << "      \"clock\": \""
       << (opt_.cycleClock ? "cycles" : "events") << "\",\n";
    os << "      \"period\": " << opt_.period << ",\n";
    os << "      \"seed\": " << opt_.seed << ",\n";
    os << "      \"samples\": " << samples_ << ",\n";
    os << "      \"clock_total\": " << clock_ << ",\n";
    os << "      \"nodes_total\": " << tree_.nodes().size() << ",\n";
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
    tree_.writeNodes(os, [](std::ostream &o, const auto &n) {
        o << ", \"samples\": " << n.samples << ",\n";
        o << "         \"phases\": {";
        bool first = true;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            if (n.phaseSamples[p] == 0)
                continue;
            if (!first)
                o << ", ";
            first = false;
            o << '"' << phaseName(static_cast<Phase>(p))
              << "\": " << n.phaseSamples[p];
        }
        o << "},\n";
    });
    os << "    }";
    return os.str();
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
    const auto exactBy = flatten(exact.tree(), [&](const CctNode &n) {
        return cycles ? n.cycles() : n.events;
    });
    std::uint64_t exactTotal = 0;
    for (const auto &[name, v] : exactBy)
        exactTotal += v;
    const auto sampledBy = flatten(
        sampled.tree(), [](const auto &n) { return n.samples; });
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
