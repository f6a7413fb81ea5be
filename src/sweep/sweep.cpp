#include "sweep/sweep.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>

#include "obs/clock.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "support/statistics.h"
#include "sweep/parallel.h"
#include "vm/runtime/vm_error.h"

namespace jrs::sweep {

namespace {

using obs::jsonEscape;
using obs::jsonNumber;
using obs::secondsSince;

/** Compact metric formatting for toTable(). */
std::string
metricCell(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.5g", v);
    return buf;
}

/**
 * A group's fan-out (fed by the VM) with per-subscriber fault
 * isolation: a subscriber whose sink throws is detached with the
 * error recorded, and delivery to the others continues.
 */
class GuardedFanout : public TraceSink {
  public:
    struct Subscriber {
        TraceSink *sink = nullptr;
        bool dead = false;
        std::string error;
    };

    /** Subscribe @p sink (delivery follows subscription order). */
    void add(TraceSink *sink) { subs_.push_back({sink, false, ""}); }

    void onEvent(const TraceEvent &ev) override {
        ++delivered_;
        for (Subscriber &s : subs_) {
            if (s.dead)
                continue;
            try {
                s.sink->onEvent(ev);
            } catch (const std::exception &e) {
                kill(s, e.what());
            } catch (...) {
                kill(s, "unknown exception");
            }
        }
    }

    void onFinish() override {
        for (Subscriber &s : subs_) {
            if (s.dead)
                continue;
            try {
                s.sink->onFinish();
            } catch (const std::exception &e) {
                kill(s, e.what());
            } catch (...) {
                kill(s, "unknown exception");
            }
        }
    }

    const std::vector<Subscriber> &subscribers() const { return subs_; }

  private:
    void kill(Subscriber &s, const char *what) {
        s.dead = true;
        s.error = "sink failed at event "
            + std::to_string(delivered_) + ": " + what;
    }

    std::vector<Subscriber> subs_;
    std::uint64_t delivered_ = 0;
};

} // namespace

double
PointResult::metric(const std::string &name) const
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return m.value;
    }
    return std::nan("");
}

const PointResult *
SweepResult::find(const std::string &label) const
{
    for (const PointResult &p : points) {
        if (p.label == label)
            return &p;
    }
    return nullptr;
}

bool
SweepResult::allOk() const
{
    for (const PointResult &p : points) {
        if (!p.ok)
            return false;
    }
    return true;
}

Table
SweepResult::toTable() const
{
    std::vector<std::string> metricNames;
    for (const PointResult &p : points) {
        for (const Metric &m : p.metrics) {
            bool seen = false;
            for (const std::string &n : metricNames)
                seen = seen || n == m.name;
            if (!seen)
                metricNames.push_back(m.name);
        }
    }
    std::vector<std::string> headers{"point", "status", "events",
                                     "seconds"};
    headers.insert(headers.end(), metricNames.begin(),
                   metricNames.end());
    Table t(std::move(headers));
    for (const PointResult &p : points) {
        std::vector<std::string> row{
            p.label,
            p.ok ? "ok" : "FAIL: " + p.error,
            withCommas(p.traceEvents),
            fixed(p.seconds, 3),
        };
        for (const std::string &n : metricNames) {
            const double v = p.metric(n);
            row.push_back(std::isnan(v) ? "-" : metricCell(v));
        }
        t.addRow(std::move(row));
    }
    return t;
}

std::string
SweepResult::toJson() const
{
    std::string out;
    out += "{\n  \"schema\": \"jrs-sweep-result-v1\",\n";
    out += "  \"jobs\": " + std::to_string(jobs) + ",\n";
    out += "  \"wall_seconds\": " + jsonNumber(wallSeconds) + ",\n";
    out += "  \"traces\": {\"recordings\": "
        + std::to_string(traces.recordings)
        + ", \"translate_build_ns\": "
        + std::to_string(traces.translateBuildNs) + "},\n";
    if (sharedCacheUsed) {
        out += "  \"shared_cache\": {\"lookups\": "
            + std::to_string(shared.lookups) + ", \"hits\": "
            + std::to_string(shared.sharedHits) + ", \"misses\": "
            + std::to_string(shared.misses) + ", \"contended\": "
            + std::to_string(shared.contended) + ", \"deferred\": "
            + std::to_string(shared.deferred) + ", \"installs\": "
            + std::to_string(shared.installs) + ", \"evictions\": "
            + std::to_string(shared.evictions) + ", \"build_ns\": "
            + std::to_string(shared.buildNs) + ", \"build_ns_saved\": "
            + std::to_string(shared.buildNsSaved)
            + ", \"live_entries\": "
            + std::to_string(shared.liveEntries) + ", \"live_bytes\": "
            + std::to_string(shared.liveBytes) + "},\n";
    }
    out += "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = points[i];
        out += "    {\"label\": \"" + jsonEscape(p.label)
            + "\", \"trace\": \"" + jsonEscape(p.traceKey)
            + "\", \"ok\": " + (p.ok ? "true" : "false");
        if (!p.ok)
            out += ", \"error\": \"" + jsonEscape(p.error) + "\"";
        out += ", \"events\": " + std::to_string(p.traceEvents)
            + ", \"seconds\": " + jsonNumber(p.seconds)
            + ", \"metrics\": {";
        for (std::size_t m = 0; m < p.metrics.size(); ++m) {
            if (m != 0)
                out += ", ";
            out += "\"" + jsonEscape(p.metrics[m].name)
                + "\": " + jsonNumber(p.metrics[m].value);
        }
        out += "}}";
        out += i + 1 < points.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
SweepResult::writeJson(const std::string &path) const
{
    obs::writeTextFile(path, toJson(), "sweep JSON");
}

SweepEngine::SweepEngine(SweepOptions options)
    : options_(std::move(options))
{
}

SweepResult
SweepEngine::run(const std::vector<SweepPoint> &grid)
{
    for (const SweepPoint &p : grid) {
        if (!p.makeSink || !p.extract)
            throw VmError("SweepPoint '" + p.label
                          + "' lacks a sink factory or extractor");
    }

    const auto t0 = std::chrono::steady_clock::now();
    const SharedCacheStats sharedBefore = options_.sharedCache != nullptr
        ? options_.sharedCache->stats()
        : SharedCacheStats{};
    obs::ScopedSpan sweepSpan("sweep.run", "sweep");
    sweepSpan.arg("points", std::to_string(grid.size()));

    SweepResult result;
    result.points.resize(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        result.points[i].label = grid[i].label;
        result.points[i].traceKey = grid[i].key.str();
    }

    // Group points by stream so each stream is produced exactly once
    // per sweep; group order follows first appearance.
    std::vector<std::vector<std::size_t>> groups;
    {
        std::map<std::string, std::size_t> groupOf;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            auto [it, inserted] = groupOf.try_emplace(
                result.points[i].traceKey, groups.size());
            if (inserted)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
    }

    auto fail = [&](std::size_t idx, const std::string &why) {
        result.points[idx].ok = false;
        result.points[idx].error = why;
    };

    // Progress + sweep.* metric bookkeeping, shared across workers.
    std::mutex progressMu;
    std::mutex observerMu;
    std::size_t pointsDone = 0;
    std::size_t groupsDone = 0;
    TraceStats traces;
    auto finishGroup = [&](const std::vector<std::size_t> &members,
                           const RunResult *ran) {
        std::lock_guard<std::mutex> lock(progressMu);
        pointsDone += members.size();
        ++groupsDone;
        if (ran != nullptr) {
            ++traces.recordings;
            traces.translateBuildNs += ran->translateBuildNs;
        }
        if (obs::enabled()) {
            obs::MetricRegistry &reg = obs::metrics();
            std::size_t okCount = 0;
            for (const std::size_t idx : members) {
                if (result.points[idx].ok)
                    ++okCount;
                reg.histogram("sweep.point_seconds")
                    .record(result.points[idx].seconds);
            }
            reg.counter("sweep.points.done").add(okCount);
            reg.counter("sweep.points.failed")
                .add(members.size() - okCount);
            reg.counter("sweep.groups.done").add(1);
            if (ran != nullptr)
                reg.counter("sweep.recordings").add(1);
            reg.gauge("sweep.queue_depth")
                .set(static_cast<double>(groups.size() - groupsDone));
        }
        if (options_.onProgress) {
            SweepProgress pr;
            pr.pointsDone = pointsDone;
            pr.pointsTotal = grid.size();
            pr.groupsDone = groupsDone;
            pr.groupsTotal = groups.size();
            pr.traces = traces;
            options_.onProgress(pr);
        }
    };

    auto runGroup = [&](const std::vector<std::size_t> &members) {
        const auto g0 = std::chrono::steady_clock::now();
        const SweepPoint &head = grid[members[0]];
        const std::string &keyStr = result.points[members[0]].traceKey;

        // The sinks are built once the run's method map exists and
        // before the VM starts; the VM then feeds the fan-out
        // directly. A throwing factory poisons only its member.
        RecordedRun run;
        std::vector<std::unique_ptr<TraceSink>> sinks(members.size());
        std::vector<std::size_t> subMember;
        std::unique_ptr<TraceSink> observer;
        GuardedFanout fanout;
        const auto attach =
            [&](const std::shared_ptr<const obs::MethodMap> &map)
            -> TraceSink * {
            run.methods = map;
            for (std::size_t m = 0; m < members.size(); ++m) {
                try {
                    sinks[m] = grid[members[m]].makeSink(run);
                    if (sinks[m] == nullptr)
                        throw VmError("sink factory returned null");
                    fanout.add(sinks[m].get());
                    subMember.push_back(m);
                } catch (const std::exception &e) {
                    fail(members[m],
                         std::string("sink factory failed: ") + e.what());
                }
            }
            // The optional group observer rides the fan-out after
            // every point sink; its failures never reach the points.
            if (options_.groupObserver) {
                try {
                    observer = options_.groupObserver(head.key, run);
                } catch (const std::exception &) {
                    observer.reset();
                }
                if (observer != nullptr)
                    fanout.add(observer.get());
            }
            return &fanout;
        };
        try {
            obs::ScopedSpan span("sweep.live", "sweep");
            span.arg("trace", keyStr);
            RunSpec spec = head.key.toRunSpec();
            spec.sharedCache = options_.sharedCache;
            run.result = runWorkload(spec, attach);
            span.arg("sinks",
                     std::to_string(fanout.subscribers().size()));
        } catch (const std::exception &e) {
            for (const std::size_t idx : members)
                fail(idx, std::string("recording failed: ") + e.what());
            finishGroup(members, nullptr);
            return;
        }
        const double shared = secondsSince(g0)
            / static_cast<double>(members.size());

        for (std::size_t s = 0; s < subMember.size(); ++s) {
            const std::size_t m = subMember[s];
            const std::size_t idx = members[m];
            PointResult &slot = result.points[idx];
            slot.traceEvents = run.result.totalEvents;
            const auto e0 = std::chrono::steady_clock::now();
            if (fanout.subscribers()[s].dead) {
                fail(idx, fanout.subscribers()[s].error);
            } else {
                try {
                    obs::ScopedSpan span("sweep.extract", "sweep");
                    span.arg("label", slot.label);
                    slot.metrics = grid[idx].extract(*sinks[m], run);
                    slot.ok = true;
                } catch (const std::exception &e) {
                    fail(idx,
                         std::string("extract failed: ") + e.what());
                }
            }
            slot.seconds = shared + secondsSince(e0);
        }

        if (observer != nullptr && options_.groupObserved
            && !fanout.subscribers().back().dead) {
            std::lock_guard<std::mutex> lock(observerMu);
            options_.groupObserved(head.key, run, *observer);
        }
        finishGroup(members, &run.result);
    };

    const unsigned workers = resolveJobs(options_.jobs, groups.size());

    if (obs::enabled())
        obs::metrics()
            .gauge("sweep.queue_depth")
            .set(static_cast<double>(groups.size()));

    parallelForEach(workers, groups.size(),
                    [&](std::size_t i, std::size_t) {
                        runGroup(groups[i]);
                    });

    result.jobs = workers;
    result.wallSeconds = secondsSince(t0);
    result.traces = traces;
    if (options_.sharedCache != nullptr) {
        result.sharedCacheUsed = true;
        const SharedCacheStats s = options_.sharedCache->stats();
        result.shared.lookups = s.lookups - sharedBefore.lookups;
        result.shared.sharedHits = s.sharedHits - sharedBefore.sharedHits;
        result.shared.misses = s.misses - sharedBefore.misses;
        result.shared.contended = s.contended - sharedBefore.contended;
        result.shared.deferred = s.deferred - sharedBefore.deferred;
        result.shared.installs = s.installs - sharedBefore.installs;
        result.shared.evictions = s.evictions - sharedBefore.evictions;
        result.shared.bytesEvicted =
            s.bytesEvicted - sharedBefore.bytesEvicted;
        result.shared.buildNs = s.buildNs - sharedBefore.buildNs;
        result.shared.buildNsSaved =
            s.buildNsSaved - sharedBefore.buildNsSaved;
        result.shared.liveEntries = s.liveEntries;
        result.shared.liveBytes = s.liveBytes;
    }
    return result;
}

} // namespace jrs::sweep
