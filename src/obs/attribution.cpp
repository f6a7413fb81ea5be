#include "obs/attribution.h"

#include <algorithm>

#include "vm/runtime/vm_error.h"

namespace jrs::obs {

void
MethodMap::RangeSet::insert(SimAddr lo, SimAddr hi, int row,
                             const std::string &name)
{
    const Range r{lo, hi, row};
    const auto pos = std::lower_bound(
        ranges.begin(), ranges.end(), r,
        [](const Range &a, const Range &b) { return a.lo < b.lo; });
    if (pos != ranges.end() && pos->lo < hi)
        throw VmError("MethodMap ranges overlap at " + name);
    if (pos != ranges.begin() && std::prev(pos)->hi > lo)
        throw VmError("MethodMap ranges overlap at " + name);
    ranges.insert(pos, r);
    for (unsigned i = segmentIndex(lo); i <= segmentIndex(hi - 1); ++i)
        segments |= std::uint64_t{1} << i;
}

void
MethodMap::RangeSet::erase(SimAddr lo)
{
    // The segment bits stay set: a superset only costs a search.
    const auto pos = std::lower_bound(
        ranges.begin(), ranges.end(), lo,
        [](const Range &a, SimAddr v) { return a.lo < v; });
    if (pos != ranges.end() && pos->lo == lo)
        ranges.erase(pos);
}

int
MethodMap::RangeSet::rowOf(SimAddr addr) const
{
    const auto pos = std::upper_bound(
        ranges.begin(), ranges.end(), addr,
        [](SimAddr a, const Range &r) { return a < r.lo; });
    if (pos == ranges.begin())
        return -1;
    const Range &r = *std::prev(pos);
    return addr < r.hi ? r.row : -1;
}

MethodMap::Span
MethodMap::RangeSet::spanOf(SimAddr addr) const
{
    const auto pos = std::upper_bound(
        ranges.begin(), ranges.end(), addr,
        [](SimAddr a, const Range &r) { return a < r.lo; });
    // The gap runs from the previous range's end (or 0) to the next
    // range's start (or the top of the address space).
    Span gap;
    gap.hi = pos == ranges.end() ? ~SimAddr{0} : pos->lo;
    if (pos != ranges.begin()) {
        const Range &r = *std::prev(pos);
        if (addr < r.hi)
            return Span{r.lo, r.hi, r.row};
        gap.lo = r.hi;
    }
    return gap;
}

int
MethodMap::rowNamed(const std::string &name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<int>(i);
    }
    return -1;
}

void
MethodMap::add(SimAddr lo, SimAddr hi, const std::string &name)
{
    if (lo >= hi)
        return;
    int row = rowNamed(name);
    if (row < 0) {
        row = static_cast<int>(names_.size());
        names_.push_back(name);
    }
    ranges_.insert(lo, hi, row, name);
}

MethodMap
MethodMap::ofProgram(const Program &prog)
{
    MethodMap map;
    for (const Method &m : prog.methods) {
        map.add(m.bytecodeAddr, m.bytecodeAddr + m.code.size(),
                m.name);
    }
    return map;
}

MethodMap
MethodMap::forRun(const ClassRegistry &registry, const CodeCache &cache)
{
    MethodMap map = ofProgram(registry.program());
    for (const NativeMethod *nm : cache.all()) {
        map.add(nm->codeBase, nm->codeBase + nm->codeBytes(),
                nm->src->name);
    }
    return map;
}

MethodMap
MethodMap::follow(const Program &prog)
{
    MethodMap map = ofProgram(prog);
    map.followed_ = true;
    return map;
}

MethodMap::Span
MethodMap::codeSpan(const NativeMethod &nm) const
{
    // Compiled code always has bytecode, so its name has a row.
    const int row = rowNamed(nm.src->name);
    if (row < 0)
        throw VmError("MethodMap has no row for " + nm.src->name);
    return Span{nm.codeBase, nm.codeBase + nm.codeBytes(), row};
}

void
MethodMap::onInstall(const NativeMethod &nm, std::uint64_t at)
{
    log(at, Change::Op::Add, codeSpan(nm));
}

void
MethodMap::onEvict(const NativeMethod &nm, std::uint64_t at)
{
    const Span span = codeSpan(nm);
    log(at, Change::Op::Remove, span);
    // The running frame outlives its code: keep naming it.
    if (&nm == running_) {
        log(at, Change::Op::Pin, span);
        pinned_ = true;
    }
}

void
MethodMap::onNativeFrame(const NativeMethod &nm, std::uint64_t at)
{
    running_ = &nm;
    if (nm.retired) {
        log(at, Change::Op::Pin, codeSpan(nm));
        pinned_ = true;
    } else if (pinned_) {
        log(at, Change::Op::Unpin, Span{});
        pinned_ = false;
    }
}

void
MapView::apply(std::uint64_t at)
{
    if (cur_ != &own_) {
        own_ = map_->ranges_;
        cur_ = &own_;
    }
    const std::vector<MethodMap::Change> &changes = map_->changes_;
    for (; applied_ < changes.size() && changes[applied_].at <= at;
         ++applied_) {
        const MethodMap::Change &c = changes[applied_];
        switch (c.op) {
          case MethodMap::Change::Op::Add:
            own_.insert(c.span.lo, c.span.hi, c.span.row,
                        map_->name(c.span.row));
            break;
          case MethodMap::Change::Op::Remove:
            own_.erase(c.span.lo);
            break;
          case MethodMap::Change::Op::Pin:
            pin_ = c.span;
            break;
          case MethodMap::Change::Op::Unpin:
            pin_ = MethodMap::Span{};
            break;
        }
    }
    for (MethodMap::Span &sp : spans_)
        sp = MethodMap::Span{};
}

} // namespace jrs::obs
