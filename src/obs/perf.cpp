#include "obs/perf.h"

#include <algorithm>

#include "obs/json.h"
#include "support/statistics.h"
#include "vm/interp/handler_model.h"
#include "vm/runtime/vm_error.h"

namespace jrs::obs {

namespace {

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

/** {"icache_fetch": n, ...} from a per-kind count array. */
std::string
kindObject(const std::uint64_t (&counts)[kNumPerfKinds])
{
    std::string out = "{";
    for (std::size_t k = 0; k < kNumPerfKinds; ++k) {
        if (k != 0)
            out += ", ";
        out += "\"" + std::string(perfKindName(static_cast<PerfKind>(k)))
            + "\": " + u64(counts[k]);
    }
    return out + "}";
}

/** {"base": n, ...} from a CPI-component array. */
std::string
cpiObject(const std::uint64_t (&cycles)[kNumCpiComponents])
{
    std::string out = "{";
    for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
        if (c != 0)
            out += ", ";
        out += "\""
            + std::string(cpiComponentName(static_cast<CpiComponent>(c)))
            + "\": " + u64(cycles[c]);
    }
    return out + "}";
}

std::string
cellJson(const PerfCell &c)
{
    return "\"insts\": " + u64(c.insts) + ", \"access\": "
        + kindObject(c.access) + ", \"miss\": " + kindObject(c.bad)
        + ", \"penalty\": " + kindObject(c.penalty) + ", \"cpi\": "
        + cpiObject(c.cpi);
}

std::size_t
idx(PerfKind k)
{
    return static_cast<std::size_t>(k);
}

std::uint64_t
dMisses(const PerfCell &c)
{
    return c.bad[idx(PerfKind::DCacheLoad)]
        + c.bad[idx(PerfKind::DCacheStore)];
}

std::uint64_t
mispredicts(const PerfCell &c)
{
    return c.bad[idx(PerfKind::CondBranch)]
        + c.bad[idx(PerfKind::IndirectTarget)];
}

double
ratePct(std::uint64_t bad, std::uint64_t access)
{
    return access == 0
        ? 0.0
        : 100.0 * static_cast<double>(bad)
            / static_cast<double>(access);
}

} // namespace

void
PerfCell::merge(const PerfCell &o)
{
    insts += o.insts;
    for (std::size_t k = 0; k < kNumPerfKinds; ++k) {
        access[k] += o.access[k];
        bad[k] += o.bad[k];
        penalty[k] += o.penalty[k];
    }
    for (std::size_t c = 0; c < kNumCpiComponents; ++c)
        cpi[c] += o.cpi[c];
}

PerfAttribution::PerfAttribution(const MethodMap &map, Options opt)
    : map_(&map), opt_(opt), ctx_(map),
      cells_((map.rows() + 1) * kNumPhases)
{
    views_.methods.resize(map.rows() + 1);
    if (opt_.program != nullptr) {
        for (const Method &m : opt_.program->methods) {
            if (m.code.empty())
                continue;
            bytecodeRanges_.push_back(
                {m.bytecodeAddr, m.bytecodeAddr + m.code.size(), &m});
        }
        std::sort(bytecodeRanges_.begin(), bytecodeRanges_.end(),
                  [](const BytecodeRange &a, const BytecodeRange &b) {
                      return a.lo < b.lo;
                  });
        opCells_.resize(kNumOpcodes);
    }
}

const Method *
PerfAttribution::methodAtBytecode(SimAddr addr) const
{
    const auto pos = std::upper_bound(
        bytecodeRanges_.begin(), bytecodeRanges_.end(), addr,
        [](SimAddr a, const BytecodeRange &r) { return a < r.lo; });
    if (pos == bytecodeRanges_.begin())
        return nullptr;
    const BytecodeRange &r = *std::prev(pos);
    return addr < r.hi ? r.method : nullptr;
}

void
PerfAttribution::flushWindow()
{
    timeline_.push_back(cur_);
    cur_ = IntervalSample();
    inWindow_ = 0;
}

namespace {

/** Fold @p s's event, outcomes and CPI stack into @p c. */
inline void
foldStep(PerfCell &c, const Step &s)
{
    ++c.insts;
    for (std::size_t i = 0; i < s.outcomes; ++i) {
        const Outcome &o = s.out[i];
        const auto k = static_cast<std::size_t>(o.kind);
        ++c.access[k];
        c.bad[k] += o.bad;
        c.penalty[k] += o.penalty;
    }
    if (s.hasCpi) {
        for (std::size_t i = 0; i < kNumCpiComponents; ++i)
            c.cpi[i] += s.cpi[i];
    }
}

} // namespace

void
PerfAttribution::onSteps(const Step *steps, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        step(steps[i]);
    stale_ = true;
}

void
PerfAttribution::step(const Step &s)
{
    const TraceEvent &ev = s.ev;
    if (opt_.timelineWindow != 0) {
        // Window boundaries match TimeSeriesCacheSink exactly
        // (bench/fig06 asserts this).
        if (inWindow_ == opt_.timelineWindow)
            flushWindow();
        ++inWindow_;
        ++cur_.events;
        if (ev.phase == Phase::Translate)
            ++cur_.translateEvents;
        for (std::size_t i = 0; i < s.outcomes; ++i) {
            const auto k = static_cast<std::size_t>(s.out[i].kind);
            ++cur_.access[k];
            cur_.bad[k] += s.out[i].bad;
        }
        for (std::size_t i = 0; i < kNumCpiComponents; ++i)
            cur_.cpi[i] += s.cpi[i];
    }

    ++events_;
    const int row = ctx_.observe(ev);
    const std::size_t slot =
        row >= 0 ? static_cast<std::size_t>(row) : map_->rows();
    foldStep(cells_[slot * kNumPhases
                    + static_cast<std::size_t>(ev.phase)],
             s);

    if (bytecodeRanges_.empty() || ev.phase != Phase::Interpret)
        return;
    if (ev.kind == NKind::Load && ev.pc == kDispatchPc) {
        // The interpreter's dispatch fetch: ev.mem is the address of
        // the opcode byte about to be executed.
        if (const Method *m = methodAtBytecode(ev.mem)) {
            const std::uint64_t off = ev.mem - m->bytecodeAddr;
            const Op op = m->opAt(static_cast<std::uint32_t>(off));
            curOp_ = static_cast<int>(op);
            SiteCell &site =
                siteCells_[(static_cast<std::uint64_t>(slot) << 32)
                           | off];
            site.op = op;
            curSite_ = &site.cell;
        }
    }
    if (curOp_ >= 0) {
        foldStep(opCells_[static_cast<std::size_t>(curOp_)], s);
        foldStep(*curSite_, s);
    }
}

void
PerfAttribution::onFinish()
{
    if (opt_.timelineWindow != 0 && inWindow_ != 0)
        flushWindow();
    // Sum the views now, so reading a finished profiler writes nothing.
    (void)views();
}

const PerfAttribution::Views &
PerfAttribution::views() const
{
    if (!stale_)
        return views_;
    views_.totals = PerfCell();
    for (PerfCell &c : views_.methods)
        c = PerfCell();
    for (PerfCell &c : views_.phases)
        c = PerfCell();
    for (std::size_t slot = 0; slot < views_.methods.size(); ++slot) {
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            const PerfCell &c = cells_[slot * kNumPhases + p];
            views_.methods[slot].merge(c);
            views_.phases[p].merge(c);
            views_.totals.merge(c);
        }
    }
    stale_ = false;
    return views_;
}

namespace {

/** Rows of the method report in deterministic hot-first order. */
struct MethodRow {
    std::string name;
    const PerfCell *cell;
};

std::vector<MethodRow>
sortedMethodRows(const MethodMap &map,
                 const std::vector<PerfCell> &cells)
{
    std::vector<MethodRow> rows;
    for (std::size_t r = 0; r < cells.size(); ++r) {
        const PerfCell &c = cells[r];
        if (c.insts == 0 && c.cycles() == 0)
            continue;
        rows.push_back({r < map.rows() ? map.name(static_cast<int>(r))
                                       : "(unattributed)",
                        &c});
    }
    std::sort(rows.begin(), rows.end(),
              [](const MethodRow &a, const MethodRow &b) {
                  if (a.cell->cycles() != b.cell->cycles())
                      return a.cell->cycles() > b.cell->cycles();
                  if (a.cell->insts != b.cell->insts)
                      return a.cell->insts > b.cell->insts;
                  return a.name < b.name;
              });
    return rows;
}

} // namespace

namespace {

/** The cost columns of the method and phase tables, for @p c. */
std::vector<std::string>
costColumns(std::vector<std::string> row, const PerfCell &c)
{
    const std::uint64_t dAcc = c.access[idx(PerfKind::DCacheLoad)]
        + c.access[idx(PerfKind::DCacheStore)];
    const std::uint64_t pAcc = c.access[idx(PerfKind::CondBranch)]
        + c.access[idx(PerfKind::IndirectTarget)];
    row.insert(row.end(),
               {withCommas(c.insts),
                withCommas(c.bad[idx(PerfKind::ICacheFetch)]),
                withCommas(dMisses(c)),
                fixed(ratePct(dMisses(c), dAcc), 2),
                withCommas(mispredicts(c)),
                fixed(ratePct(mispredicts(c), pAcc), 2),
                withCommas(c.cycles())});
    for (std::size_t k = 0; k < kNumCpiComponents; ++k)
        row.push_back(withCommas(c.cpi[k]));
    return row;
}

/** Header of costColumns() after the leading @p row columns. */
std::vector<std::string>
costHeader(std::vector<std::string> row)
{
    row.insert(row.end(),
               {"insts", "imiss", "dmiss", "dmiss%", "mispred", "mp%",
                "cycles", "base", "icache", "dcache", "branch",
                "indirect", "backend"});
    return row;
}

} // namespace

Table
PerfAttribution::methodTable(std::size_t n) const
{
    Table t(costHeader({"#", "method"}));
    const std::vector<MethodRow> rows =
        sortedMethodRows(*map_, views().methods);
    for (std::size_t i = 0; i < rows.size() && i < n; ++i) {
        t.addRow(costColumns({std::to_string(i + 1), rows[i].name},
                             *rows[i].cell));
    }
    return t;
}

Table
PerfAttribution::phaseTable() const
{
    Table t(costHeader({"phase"}));
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const PerfCell &c = views().phases[p];
        if (c.insts == 0 && c.cycles() == 0)
            continue;
        t.addRow(costColumns({phaseName(static_cast<Phase>(p))}, c));
    }
    return t;
}

std::vector<AttributedMethod>
PerfAttribution::top(Phase phase, std::size_t n) const
{
    const std::uint64_t phaseTotal = phaseCell(phase).insts;
    std::vector<AttributedMethod> rows;
    for (std::size_t r = 0; r <= map_->rows(); ++r) {
        const std::uint64_t events = cell(r, phase).insts;
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
PerfAttribution::topTable(Phase phase, std::size_t n) const
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

Table
PerfAttribution::opcodeTable(std::size_t n) const
{
    if (!hasOpcodes())
        throw VmError("opcodeTable needs a Program (Options::program)");
    struct OpRow {
        Op op;
        const PerfCell *cell;
    };
    std::vector<OpRow> rows;
    for (std::size_t o = 0; o < opCells_.size(); ++o) {
        if (opCells_[o].insts != 0)
            rows.push_back({static_cast<Op>(o), &opCells_[o]});
    }
    std::sort(rows.begin(), rows.end(),
              [](const OpRow &a, const OpRow &b) {
                  if (a.cell->insts != b.cell->insts)
                      return a.cell->insts > b.cell->insts;
                  return static_cast<int>(a.op) < static_cast<int>(b.op);
              });
    Table t({"#", "opcode", "insts", "imiss", "dmiss", "mispred",
             "cycles"});
    for (std::size_t i = 0; i < rows.size() && i < n; ++i) {
        const PerfCell &c = *rows[i].cell;
        t.addRow({std::to_string(i + 1), opName(rows[i].op),
                  withCommas(c.insts),
                  withCommas(c.bad[static_cast<std::size_t>(
                      PerfKind::ICacheFetch)]),
                  withCommas(dMisses(c)), withCommas(mispredicts(c)),
                  withCommas(c.cycles())});
    }
    return t;
}

Table
PerfAttribution::annotateTable(const std::string &methodName) const
{
    if (!hasOpcodes())
        throw VmError(
            "annotateTable needs a Program (Options::program)");
    int row = -1;
    for (std::size_t r = 0; r < map_->rows(); ++r) {
        if (map_->name(static_cast<int>(r)) == methodName) {
            row = static_cast<int>(r);
            break;
        }
    }
    if (row < 0)
        throw VmError("annotate: unknown method: " + methodName);
    Table t({"pc", "op", "insts", "imiss", "dmiss", "mispred",
             "cycles"});
    const std::uint64_t lo = static_cast<std::uint64_t>(row) << 32;
    const std::uint64_t hi = static_cast<std::uint64_t>(row + 1) << 32;
    for (auto it = siteCells_.lower_bound(lo);
         it != siteCells_.end() && it->first < hi; ++it) {
        const PerfCell &c = it->second.cell;
        t.addRow({std::to_string(it->first & 0xffffffffu),
                  opName(it->second.op), withCommas(c.insts),
                  withCommas(c.bad[static_cast<std::size_t>(
                      PerfKind::ICacheFetch)]),
                  withCommas(dMisses(c)), withCommas(mispredicts(c)),
                  withCommas(c.cycles())});
    }
    return t;
}

std::string
PerfAttribution::runJson(const std::string &label) const
{
    std::string out;
    out += "    {\n";
    out += "      \"label\": \"" + jsonEscape(label) + "\",\n";
    out += "      \"events\": " + u64(events_) + ",\n";
    out += "      \"cycles\": " + u64(totals().cycles()) + ",\n";
    out += "      \"totals\": {" + cellJson(totals()) + "},\n";
    out += "      \"phases\": {\n";
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        out += "        \""
            + std::string(phaseName(static_cast<Phase>(p))) + "\": {"
            + cellJson(views().phases[p]) + "}";
        out += p + 1 < kNumPhases ? ",\n" : "\n";
    }
    out += "      },\n";
    out += "      \"methods\": [\n";
    const std::vector<MethodRow> rows =
        sortedMethodRows(*map_, views().methods);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        out += "        {\"name\": \"" + jsonEscape(rows[i].name)
            + "\", " + cellJson(*rows[i].cell) + "}";
        out += i + 1 < rows.size() ? ",\n" : "\n";
    }
    out += "      ]";
    if (hasOpcodes()) {
        out += ",\n      \"opcodes\": [\n";
        bool first = true;
        for (std::size_t o = 0; o < opCells_.size(); ++o) {
            if (opCells_[o].insts == 0)
                continue;
            if (!first)
                out += ",\n";
            first = false;
            out += "        {\"op\": \""
                + std::string(opName(static_cast<Op>(o))) + "\", "
                + cellJson(opCells_[o]) + "}";
        }
        out += "\n      ]";
    }
    if (opt_.timelineWindow != 0) {
        out += ",\n      \"timeline\": {\"window\": "
            + u64(opt_.timelineWindow) + ", \"samples\": [\n";
        for (std::size_t i = 0; i < timeline_.size(); ++i) {
            const IntervalSample &s = timeline_[i];
            out += "        {\"events\": " + u64(s.events)
                + ", \"access\": " + kindObject(s.access)
                + ", \"miss\": " + kindObject(s.bad)
                + ", \"translate_events\": " + u64(s.translateEvents)
                + ", \"cpi\": " + cpiObject(s.cpi) + "}";
            out += i + 1 < timeline_.size() ? ",\n" : "\n";
        }
        out += "      ]}";
    }
    out += "\n    }";
    return out;
}

void
PerfAttribution::emitCounterTracks(SpanTracer &tracer,
                                   const std::string &prefix) const
{
    const std::uint32_t lane = SpanTracer::currentLane();
    for (std::size_t i = 0; i < timeline_.size(); ++i) {
        const IntervalSample &s = timeline_[i];
        const std::uint64_t ts = i * opt_.timelineWindow;
        CounterRecord misses;
        misses.name = prefix + ".misses";
        misses.ts = ts;
        misses.lane = lane;
        misses.values = {
            {"icache",
             static_cast<double>(s.bad[static_cast<std::size_t>(
                 PerfKind::ICacheFetch)])},
            {"dcache_load",
             static_cast<double>(s.bad[static_cast<std::size_t>(
                 PerfKind::DCacheLoad)])},
            {"dcache_store",
             static_cast<double>(s.bad[static_cast<std::size_t>(
                 PerfKind::DCacheStore)])},
        };
        tracer.recordCounter(std::move(misses));

        CounterRecord mp;
        mp.name = prefix + ".mispredicts";
        mp.ts = ts;
        mp.lane = lane;
        mp.values = {
            {"cond",
             static_cast<double>(s.bad[static_cast<std::size_t>(
                 PerfKind::CondBranch)])},
            {"indirect",
             static_cast<double>(s.bad[static_cast<std::size_t>(
                 PerfKind::IndirectTarget)])},
        };
        tracer.recordCounter(std::move(mp));

        if (s.cycles() != 0) {
            CounterRecord cpi;
            cpi.name = prefix + ".cpi";
            cpi.ts = ts;
            cpi.lane = lane;
            for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
                cpi.values.emplace_back(
                    cpiComponentName(static_cast<CpiComponent>(c)),
                    static_cast<double>(s.cpi[c]));
            }
            tracer.recordCounter(std::move(cpi));
        }
    }
}

} // namespace jrs::obs
