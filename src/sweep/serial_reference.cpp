#include "sweep/serial_reference.h"

#include <bit>
#include <cstdint>
#include <cstdio>

#include "obs/clock.h"
#include "support/statistics.h"
#include "vm/runtime/vm_error.h"

namespace jrs::sweep {

namespace {

std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Run one key's points, @p members, into their slots of @p out. */
void
runKey(const std::vector<SweepPoint> &grid,
       const std::vector<std::size_t> &members, SweepResult &out)
{
    RecordedRun run;
    std::vector<std::unique_ptr<TraceSink>> sinks(members.size());
    MultiSink fanout;
    const AttachFn attach =
        [&](const std::shared_ptr<const obs::MethodMap> &map)
        -> TraceSink * {
        run.methods = map;
        for (std::size_t m = 0; m < members.size(); ++m) {
            try {
                sinks[m] = grid[members[m]].makeSink(run);
                if (sinks[m] == nullptr)
                    throw VmError("sink factory returned null");
                fanout.add(sinks[m].get());
            } catch (const std::exception &e) {
                out.points[members[m]].error =
                    std::string("sink factory failed: ") + e.what();
            }
        }
        return &fanout;
    };
    try {
        run.result =
            runWorkload(grid[members[0]].key.toRunSpec(), attach);
    } catch (const std::exception &e) {
        for (const std::size_t idx : members)
            out.points[idx].error =
                std::string("recording failed: ") + e.what();
        return;
    }
    ++out.traces.recordings;
    for (std::size_t m = 0; m < members.size(); ++m) {
        if (sinks[m] == nullptr)
            continue;
        PointResult &slot = out.points[members[m]];
        slot.traceEvents = run.result.totalEvents;
        try {
            slot.metrics = grid[members[m]].extract(*sinks[m], run);
            slot.ok = true;
        } catch (const std::exception &e) {
            slot.error = std::string("extract failed: ") + e.what();
        }
    }
}

/** Why @p a differs from @p b, or empty. */
std::string
pointDifference(const PointResult &a, const PointResult &b)
{
    if (a.label != b.label)
        return "label " + a.label + " vs " + b.label;
    if (a.ok != b.ok)
        return std::string("ok ") + (a.ok ? "true" : "false") + " vs "
            + (b.ok ? "true" : "false");
    if (a.traceEvents != b.traceEvents)
        return "events " + std::to_string(a.traceEvents) + " vs "
            + std::to_string(b.traceEvents);
    if (a.metrics.size() != b.metrics.size())
        return std::to_string(a.metrics.size()) + " metrics vs "
            + std::to_string(b.metrics.size());
    for (std::size_t m = 0; m < a.metrics.size(); ++m) {
        const Metric &x = a.metrics[m];
        const Metric &y = b.metrics[m];
        if (x.name != y.name)
            return "metric " + std::to_string(m) + " named " + x.name
                + " vs " + y.name;
        if (std::bit_cast<std::uint64_t>(x.value)
            != std::bit_cast<std::uint64_t>(y.value))
            return "metric " + x.name + " " + exact(x.value) + " vs "
                + exact(y.value);
    }
    return {};
}

} // namespace

SweepResult
runSerialReference(const std::vector<SweepPoint> &grid)
{
    const obs::SteadyTime t0 = obs::steadyNow();
    SweepResult out;
    out.points.resize(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        out.points[i].label = grid[i].label;
        out.points[i].traceKey = grid[i].key.str();
    }
    std::vector<bool> done(grid.size(), false);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (done[i])
            continue;
        std::vector<std::size_t> members;
        for (std::size_t j = i; j < grid.size(); ++j) {
            if (!done[j]
                && out.points[j].traceKey == out.points[i].traceKey) {
                members.push_back(j);
                done[j] = true;
            }
        }
        runKey(grid, members, out);
    }
    out.wallSeconds = obs::secondsSince(t0);
    return out;
}

std::vector<std::string>
compareResults(const SweepResult &swept, const SweepResult &reference)
{
    if (swept.points.size() != reference.points.size())
        return {std::to_string(swept.points.size()) + " points vs "
                + std::to_string(reference.points.size())};
    std::vector<std::string> out;
    for (std::size_t i = 0; i < swept.points.size(); ++i) {
        const std::string why =
            pointDifference(swept.points[i], reference.points[i]);
        if (!why.empty())
            out.push_back(swept.points[i].label + ": " + why);
    }
    return out;
}

bool
compareSerial(const std::vector<SweepPoint> &grid,
              const SweepResult &swept, std::ostream &out,
              std::ostream &err)
{
    const SweepResult reference = runSerialReference(grid);
    const std::vector<std::string> mismatches =
        compareResults(swept, reference);
    for (std::size_t i = 0; i < mismatches.size() && i < 10; ++i)
        err << "MISMATCH " << mismatches[i] << '\n';
    out << "compare-serial: ";
    if (mismatches.empty())
        out << "all " << swept.points.size() << " points bit-identical";
    else
        out << mismatches.size() << " points MISMATCHED";
    out << " against the serial reference ("
        << reference.traces.recordings << " VM runs, "
        << fixed(reference.wallSeconds, 2) << "s)\n";
    return mismatches.empty();
}

} // namespace jrs::sweep
