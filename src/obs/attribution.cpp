#include "obs/attribution.h"

#include <algorithm>
#include <map>

#include "support/statistics.h"
#include "vm/runtime/vm_error.h"

namespace jrs::obs {

void
MethodMap::add(SimAddr lo, SimAddr hi, const std::string &name)
{
    if (lo >= hi)
        return;
    int row = -1;
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) {
            row = static_cast<int>(i);
            break;
        }
    }
    if (row < 0) {
        row = static_cast<int>(names_.size());
        names_.push_back(name);
    }
    Range r{lo, hi, row};
    const auto pos = std::lower_bound(
        ranges_.begin(), ranges_.end(), r,
        [](const Range &a, const Range &b) { return a.lo < b.lo; });
    if (pos != ranges_.end() && pos->lo < hi)
        throw VmError("MethodMap ranges overlap at " + name);
    if (pos != ranges_.begin() && std::prev(pos)->hi > lo)
        throw VmError("MethodMap ranges overlap at " + name);
    ranges_.insert(pos, r);
    for (unsigned i = segmentIndex(lo); i <= segmentIndex(hi - 1); ++i)
        segments_ |= std::uint64_t{1} << i;
}

MethodMap
MethodMap::forRun(const ClassRegistry &registry, const CodeCache &cache)
{
    MethodMap map;
    for (const Method &m : registry.program().methods) {
        map.add(m.bytecodeAddr, m.bytecodeAddr + m.code.size(),
                m.name);
    }
    for (const NativeMethod *nm : cache.all()) {
        map.add(nm->codeBase, nm->codeBase + nm->codeBytes(),
                nm->src->name);
    }
    return map;
}

int
MethodMap::rowOf(SimAddr addr) const
{
    const auto pos = std::upper_bound(
        ranges_.begin(), ranges_.end(), addr,
        [](SimAddr a, const Range &r) { return a < r.lo; });
    if (pos == ranges_.begin())
        return -1;
    const Range &r = *std::prev(pos);
    return addr < r.hi ? r.row : -1;
}

MethodMap::Span
MethodMap::spanOf(SimAddr addr) const
{
    const auto pos = std::upper_bound(
        ranges_.begin(), ranges_.end(), addr,
        [](SimAddr a, const Range &r) { return a < r.lo; });
    // The gap runs from the previous range's end (or 0) to the next
    // range's start (or the top of the address space).
    Span gap;
    gap.hi = pos == ranges_.end() ? ~SimAddr{0} : pos->lo;
    if (pos != ranges_.begin()) {
        const Range &r = *std::prev(pos);
        if (addr < r.hi)
            return Span{r.lo, r.hi, r.row};
        gap.lo = r.hi;
    }
    return gap;
}

AttributionSink::AttributionSink(const MethodMap &map)
    : map_(&map), ctx_(map),
      counts_((map.rows() + 1) * kNumPhases, 0)
{
}

void
AttributionSink::onEvent(const TraceEvent &ev)
{
    const auto p = static_cast<std::size_t>(ev.phase);
    const int row = ctx_.observe(ev);
    const std::size_t slot =
        row >= 0 ? static_cast<std::size_t>(row) : map_->rows();
    ++counts_[slot * kNumPhases + p];
    ++phaseTotals_[p];
    ++total_;
}

std::uint64_t
AttributionSink::attributed(Phase phase) const
{
    const auto p = static_cast<std::size_t>(phase);
    return phaseTotals_[p] - counts_[map_->rows() * kNumPhases + p];
}

std::vector<AttributedMethod>
AttributionSink::top(Phase phase, std::size_t n) const
{
    const auto p = static_cast<std::size_t>(phase);
    const std::uint64_t phaseTotal = phaseTotals_[p];
    std::vector<AttributedMethod> rows;
    for (std::size_t r = 0; r <= map_->rows(); ++r) {
        const std::uint64_t events = counts_[r * kNumPhases + p];
        if (events == 0)
            continue;
        AttributedMethod am;
        am.name = r < map_->rows() ? map_->name(static_cast<int>(r))
                                   : "(unattributed)";
        am.events = events;
        am.pct = phaseTotal == 0
            ? 0.0
            : 100.0 * static_cast<double>(events)
                / static_cast<double>(phaseTotal);
        rows.push_back(std::move(am));
    }
    std::sort(rows.begin(), rows.end(),
              [](const AttributedMethod &a, const AttributedMethod &b) {
                  if (a.events != b.events)
                      return a.events > b.events;
                  return a.name < b.name;
              });
    if (rows.size() > n)
        rows.resize(n);
    return rows;
}

Table
AttributionSink::phaseTable(Phase phase, std::size_t n) const
{
    Table t({"#", "method", "events", "share"});
    const std::vector<AttributedMethod> rows = top(phase, n);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        t.addRow({std::to_string(i + 1), rows[i].name,
                  withCommas(rows[i].events),
                  fixed(rows[i].pct, 2) + "%"});
    }
    return t;
}

} // namespace jrs::obs
