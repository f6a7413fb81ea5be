/**
 * @file
 * The parallel experiment-sweep engine.
 *
 * The paper's methodology fed the dynamic native stream from Shade
 * straight into many architecture simulators. This subsystem makes
 * that workflow a first-class, parallel facility:
 *
 *  - A SweepPoint names one measurement: which dynamic stream it
 *    consumes (TraceKey) and how to model it (a sink factory plus a
 *    metric extractor).
 *  - SweepEngine groups points by stream, so each stream is produced
 *    once per sweep and feeds all of the group's sinks, and runs
 *    groups concurrently on a fixed-size worker pool. A group runs in
 *    one of two ways:
 *      - live: the (single-threaded) VM feeds the group's sinks
 *        directly and nothing is recorded. Taken when every member's
 *        factory is run-free (SweepPoint::runFree), there is no group
 *        observer, no cache directory, and the engine's TraceCache is
 *        private. This is the cold path of every figure sweep.
 *      - record-then-replay: the group obtains the stream through the
 *        TraceCache (recording the VM, loading a previous recording
 *        from disk, or sharing another engine's recording), builds the
 *        sinks with the recording in hand, and replays it once into
 *        all of them.
 *  - SweepResult returns per-point metrics in grid order with wall
 *    times, and renders to a support/table.h table or stable JSON.
 *
 * Contract: because the VM itself stays single-threaded and only
 * groups are distributed over workers, every metric and event count is
 * bit-identical between the two paths and to attaching the same sink
 * to a live serial run (tests/test_sweep.cpp asserts this). A point
 * whose sink factory, sink, or extractor throws poisons only its own
 * result slot, with the same message on either path; a VM run that
 * fails poisons every point of its group ("recording failed: ...").
 * The rest of the sweep completes.
 *
 * Observability: when jrs::obs is enabled the engine publishes sweep.*
 * metrics (points/groups done, per-point wall-time histogram, queue
 * depth) and emits acquire/replay/extract spans (live/extract for
 * live groups) on named "sweep-worker-N" lanes, so a trace view shows
 * how groups overlap across workers. Metrics are read from simulator
 * state, never fed back into it: results are bit-identical whether
 * observability is on or off. SweepOptions::onProgress delivers a
 * SweepProgress snapshot after every completed group.
 */
#ifndef JRS_SWEEP_SWEEP_H
#define JRS_SWEEP_SWEEP_H

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/experiment.h"
#include "support/table.h"
#include "sweep/trace_cache.h"

namespace jrs::sweep {

/** One named scalar produced by a sweep point. */
struct Metric {
    std::string name;
    double value = 0.0;
};

/** One (stream, model) measurement in a sweep grid. */
struct SweepPoint {
    /** Row identity in results ("fig07/compress/jit/assoc4"). */
    std::string label;
    /** Which dynamic stream this point consumes. */
    TraceKey key;
    /**
     * Build the model sink on the worker thread. Called once per
     * point. On the record-then-replay path it runs after the stream
     * is available and receives the recording it will observe, so
     * sinks can consume run context (e.g. RecordedRun::methods for
     * attribution) before replay.
     */
    std::function<std::unique_ptr<TraceSink>(const RecordedRun &)>
        makeSink;
    /**
     * True when makeSink ignores its RecordedRun argument, so the sink
     * can be built before the VM runs and fed live (see file comment).
     * makePoint() sets it from the factory's signature; a point that
     * installs its own makeSink must leave it false unless that
     * factory never reads the run.
     */
    bool runFree = false;
    /**
     * Pull metrics out of the finished sink. @p sink is the object
     * makeSink returned; @p run is the run it observed. Its RunResult
     * is reduced for disk-loaded streams (see TraceCache), and its
     * trace and methods are null when the group ran live.
     */
    std::function<std::vector<Metric>(TraceSink &sink,
                                      const RecordedRun &run)>
        extract;
};

/**
 * Build a SweepPoint without the TraceSink downcast boilerplate: the
 * factory returns the concrete sink type and the extractor receives
 * it back as that type. The factory may take either no arguments
 * (a run-free point, which can run live) or `const RecordedRun &`
 * (when the sink needs run context, e.g. the method map, which forces
 * its group to record).
 */
template <class SinkT, class MakeFn, class ExtractFn>
SweepPoint
makePoint(std::string label, TraceKey key, MakeFn make,
          ExtractFn extract)
{
    constexpr bool readsRun =
        std::is_invocable_v<MakeFn, const RecordedRun &>;
    SweepPoint p;
    p.label = std::move(label);
    p.key = std::move(key);
    p.runFree = !readsRun;
    p.makeSink = [make = std::move(make)](const RecordedRun &run)
        -> std::unique_ptr<TraceSink> {
        if constexpr (readsRun) {
            return make(run);
        } else {
            (void)run;
            return make();
        }
    };
    p.extract = [extract = std::move(extract)](
                    TraceSink &sink, const RecordedRun &run) {
        return extract(static_cast<SinkT &>(sink), run);
    };
    return p;
}

/** Outcome of one point; order in SweepResult matches the grid. */
struct PointResult {
    std::string label;
    std::string traceKey;         ///< TraceKey::str() of the stream
    bool ok = false;
    std::string error;            ///< set when !ok
    std::vector<Metric> metrics;
    std::uint64_t traceEvents = 0;  ///< RunResult::totalEvents
    /**
     * Wall time attributed to this point: its extractor plus an equal
     * share of its group's live run, or record/load + replay time.
     */
    double seconds = 0.0;

    /** Value of metric @p name, or NaN when absent. */
    double metric(const std::string &name) const;
};

/** Everything a sweep produced. */
struct SweepResult {
    std::vector<PointResult> points;  ///< grid order, always full size
    unsigned jobs = 1;                ///< worker threads used
    double wallSeconds = 0.0;         ///< whole-sweep wall time
    TraceCache::Stats traces;         ///< recordings / hits / disk loads
    /** True when the sweep ran with SweepOptions::sharedCache. */
    bool sharedCacheUsed = false;
    /** Shared translation-cache activity during this sweep (counter
     *  deltas; live* are end-of-sweep values). All zero without a
     *  shared cache. */
    SharedCacheStats shared;

    /** Result for @p label, or nullptr. */
    const PointResult *find(const std::string &label) const;

    /** True when every point succeeded. */
    bool allOk() const;

    /**
     * Render as a table: label, status, events, seconds, then one
     * column per metric name (union across points, first-seen order).
     */
    Table toTable() const;

    /** Machine-readable form (schema "jrs-sweep-result-v1"). */
    std::string toJson() const;

    /** Write toJson() to @p path; throws VmError on I/O failure. */
    void writeJson(const std::string &path) const;
};

/** Progress snapshot passed to SweepOptions::onProgress. */
struct SweepProgress {
    std::size_t pointsDone = 0;   ///< result slots resolved (ok or failed)
    std::size_t pointsTotal = 0;
    std::size_t groupsDone = 0;   ///< trace groups fully processed
    std::size_t groupsTotal = 0;
    TraceCache::Stats traces;     ///< cache activity so far this sweep
};

/** Engine knobs. */
struct SweepOptions {
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /**
     * Trace store shared with other engines/runs: every group records
     * (once per key across all of them) and replays, so later sweeps
     * on the same cache are pure replay. Null = a store private to
     * this engine, which lets run-free groups run live and keep no
     * stream (see file comment).
     */
    std::shared_ptr<TraceCache> cache;
    /**
     * On-disk cache directory for a private cache ("" = memory only).
     * Set, every group records so the next process can load it.
     */
    std::string cacheDir;
    /**
     * Process-wide shared translation cache (vm/jit/shared_cache.h):
     * every VM run this sweep records fetches translation artifacts
     * through it, so a method is built once per compatibility key
     * across all workers instead of once per group. Streams — and
     * therefore every metric — are bit-identical with or without it
     * (tests/test_shared_cache.cpp asserts this). Null = private
     * translation per engine.
     */
    std::shared_ptr<SharedCodeCache> sharedCache;
    /**
     * Invoked after each completed trace group, serialized under an
     * engine-internal mutex (the callback need not be thread-safe,
     * but all workers queue behind it — keep it fast).
     */
    std::function<void(const SweepProgress &)> onProgress;
    /**
     * Build one extra observer sink per trace group (may return null
     * to skip a group). Set, every group records, because observers
     * read the recording's method map. The observer rides the group's
     * replay fan-out
     * after every point sink, so it sees the identical stream without
     * touching any point's model or metrics — results stay
     * bit-identical with or without it. A throwing factory or a
     * mid-replay observer failure only drops the observation, never
     * the group's points.
     */
    std::function<std::unique_ptr<TraceSink>(const TraceKey &,
                                             const RecordedRun &)>
        groupObserver;
    /**
     * Receives each observer sink that survived its group's replay,
     * serialized under an engine-internal mutex. The sink's onFinish
     * has already run.
     */
    std::function<void(const TraceKey &, const RecordedRun &,
                       TraceSink &)>
        groupObserved;
};

/** Executes sweep grids; see file comment. */
class SweepEngine {
  public:
    explicit SweepEngine(SweepOptions options = {});

    /**
     * Run every point of @p grid. Never throws for per-point model
     * failures (they are captured in the result slots); throws VmError
     * only for malformed grids (e.g. a point with no sink factory).
     */
    SweepResult run(const std::vector<SweepPoint> &grid);

    /** The engine's trace store (shared or private). */
    TraceCache &cache() { return *cache_; }

  private:
    SweepOptions options_;
    std::shared_ptr<TraceCache> cache_;
};

} // namespace jrs::sweep

#endif // JRS_SWEEP_SWEEP_H
