#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

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
 * A group's fan-out (fed live by the VM or by a replay) with
 * per-subscriber fault isolation: a subscriber whose sink throws is
 * detached with the error recorded, and delivery to the others
 * continues.
 */
class GuardedFanout : public TraceSink {
  public:
    struct Subscriber {
        TraceSink *sink = nullptr;
        bool dead = false;
        std::string error;
    };

    explicit GuardedFanout(std::vector<Subscriber> subscribers)
        : subs_(std::move(subscribers)) {}

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
        + std::to_string(traces.recordings) + ", \"memory_hits\": "
        + std::to_string(traces.memoryHits) + ", \"disk_loads\": "
        + std::to_string(traces.diskLoads)
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
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw VmError("cannot write sweep JSON: " + path);
    const std::string body = toJson();
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (std::fclose(f) != 0 || !ok)
        throw VmError("cannot write sweep JSON: " + path);
}

SweepEngine::SweepEngine(SweepOptions options)
    : options_(std::move(options))
{
    cache_ = options_.cache != nullptr
        ? options_.cache
        : std::make_shared<TraceCache>(options_.cacheDir);
    if (options_.sharedCache != nullptr)
        cache_->setSharedCache(options_.sharedCache);
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
    const TraceCache::Stats before = cache_->stats();
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

    // Group points by stream so each trace is obtained and replayed
    // exactly once per sweep; group order follows first appearance.
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

    // Groups may run live only when nothing outside them needs the
    // recording: a private cache without a directory, no observer.
    const bool liveAllowed = options_.cache == nullptr
        && options_.cacheDir.empty() && !options_.groupObserver;

    auto fail = [&](std::size_t idx, const std::string &why) {
        result.points[idx].ok = false;
        result.points[idx].error = why;
    };

    // Progress + sweep.* metric bookkeeping, shared across workers.
    std::mutex progressMu;
    std::mutex observerMu;
    std::size_t pointsDone = 0;
    std::size_t groupsDone = 0;
    auto finishGroup = [&](const std::vector<std::size_t> &members) {
        std::lock_guard<std::mutex> lock(progressMu);
        pointsDone += members.size();
        ++groupsDone;
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
            reg.gauge("sweep.queue_depth")
                .set(static_cast<double>(groups.size() - groupsDone));
        }
        if (options_.onProgress) {
            const TraceCache::Stats now = cache_->stats();
            SweepProgress pr;
            pr.pointsDone = pointsDone;
            pr.pointsTotal = grid.size();
            pr.groupsDone = groupsDone;
            pr.groupsTotal = groups.size();
            pr.traces.recordings = now.recordings - before.recordings;
            pr.traces.memoryHits = now.memoryHits - before.memoryHits;
            pr.traces.diskLoads = now.diskLoads - before.diskLoads;
            pr.traces.translateBuildNs =
                now.translateBuildNs - before.translateBuildNs;
            options_.onProgress(pr);
        }
    };

    auto runGroup = [&](const std::vector<std::size_t> &members) {
        const auto g0 = std::chrono::steady_clock::now();
        const SweepPoint &head = grid[members[0]];
        const std::string &keyStr = result.points[members[0]].traceKey;
        const bool live = liveAllowed
            && std::all_of(members.begin(), members.end(),
                           [&](std::size_t idx) {
                               return grid[idx].runFree;
                           });
        auto failGroup = [&](const std::exception &e) {
            for (const std::size_t idx : members)
                fail(idx, std::string("recording failed: ") + e.what());
            finishGroup(members);
        };

        // Record-then-replay obtains the stream first (recording on
        // first use, loading a prior recording from disk, or waiting
        // on another worker): its sink factories receive the
        // recording, so they can only be built once it exists. A live
        // group's factories are run-free; they get a run that is
        // filled in once the VM has finished.
        std::shared_ptr<RecordedRun> liveRun;
        std::shared_ptr<const RecordedRun> run;
        if (live) {
            run = liveRun = std::make_shared<RecordedRun>();
        } else {
            try {
                obs::ScopedSpan span("sweep.acquire", "sweep");
                span.arg("trace", keyStr);
                run = cache_->get(head.key);
            } catch (const std::exception &e) {
                failGroup(e);
                return;
            }
        }

        // Build each member's sink; a throwing factory poisons only
        // that member.
        std::vector<std::unique_ptr<TraceSink>> sinks(members.size());
        std::vector<GuardedFanout::Subscriber> subs;
        std::vector<std::size_t> subMember;
        for (std::size_t m = 0; m < members.size(); ++m) {
            try {
                sinks[m] = grid[members[m]].makeSink(*run);
                if (sinks[m] == nullptr)
                    throw VmError("sink factory returned null");
                subs.push_back({sinks[m].get(), false, ""});
                subMember.push_back(m);
            } catch (const std::exception &e) {
                fail(members[m],
                     std::string("sink factory failed: ") + e.what());
            }
        }

        // The optional group observer (never set on a live group)
        // rides the fan-out after every point sink; its failures never
        // reach the points.
        std::unique_ptr<TraceSink> observer;
        if (options_.groupObserver) {
            try {
                observer = options_.groupObserver(head.key, *run);
            } catch (const std::exception &) {
                observer.reset();
            }
            if (observer != nullptr)
                subs.push_back({observer.get(), false, ""});
        }
        GuardedFanout fanout(std::move(subs));

        if (live) {
            // The VM feeds the fan-out directly; nothing is recorded.
            try {
                obs::ScopedSpan span("sweep.live", "sweep");
                span.arg("trace", keyStr);
                span.arg("sinks",
                         std::to_string(fanout.subscribers().size()));
                liveRun->result = cache_->runLive(head.key, fanout);
            } catch (const std::exception &e) {
                failGroup(e);
                return;
            }
        } else {
            // Acquire and replay are separate passes so a span view
            // shows both stages on every worker lane.
            obs::ScopedSpan span("sweep.replay", "sweep");
            span.arg("trace", keyStr);
            span.arg("sinks",
                     std::to_string(fanout.subscribers().size()));
            run->trace->replay(fanout);
        }
        const double shared = secondsSince(g0)
            / static_cast<double>(members.size());

        for (std::size_t s = 0; s < subMember.size(); ++s) {
            const std::size_t m = subMember[s];
            const std::size_t idx = members[m];
            PointResult &slot = result.points[idx];
            slot.traceEvents = run->result.totalEvents;
            const auto e0 = std::chrono::steady_clock::now();
            if (fanout.subscribers()[s].dead) {
                fail(idx, fanout.subscribers()[s].error);
            } else {
                try {
                    obs::ScopedSpan span("sweep.extract", "sweep");
                    span.arg("label", slot.label);
                    slot.metrics = grid[idx].extract(*sinks[m], *run);
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
            options_.groupObserved(head.key, *run, *observer);
        }
        finishGroup(members);
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
    const TraceCache::Stats after = cache_->stats();
    result.traces.recordings = after.recordings - before.recordings;
    result.traces.memoryHits = after.memoryHits - before.memoryHits;
    result.traces.diskLoads = after.diskLoads - before.diskLoads;
    result.traces.translateBuildNs =
        after.translateBuildNs - before.translateBuildNs;
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
