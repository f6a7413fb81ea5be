#include "sweep/grids.h"

#include <algorithm>

#include "arch/bpred/btb.h"
#include "arch/cache/cache.h"
#include "support/statistics.h"

namespace jrs::sweep {

namespace {

/** Workloads in suite order; hello carries little signal for the
    steady-state cache figures, so most grids skip it (as the paper's
    figures do) while fig08 keeps it, matching the original bench. */
std::vector<const WorkloadInfo *>
gridSuite(bool include_hello)
{
    std::vector<const WorkloadInfo *> out;
    for (const WorkloadInfo &w : allWorkloads()) {
        if (!include_hello && std::string(w.name) == "hello")
            continue;
        out.push_back(&w);
    }
    return out;
}

std::vector<Metric>
cacheMetrics(const CacheSink &sink)
{
    return {
        {"icache_miss_pct",
         100.0 * sink.icache().stats().missRate()},
        {"dcache_miss_pct",
         100.0 * sink.dcache().stats().missRate()},
    };
}

SweepPoint
cachePoint(std::string label, TraceKey key, CacheConfig icfg,
           CacheConfig dcfg)
{
    return makePoint<CacheSink>(
        std::move(label), std::move(key),
        [icfg, dcfg] {
            return std::make_unique<CacheSink>(icfg, dcfg);
        },
        [](const CacheSink &sink, const RecordedRun &) {
            return cacheMetrics(sink);
        });
}

/** Indirect-target misprediction across several BTB capacities in one
    pass (the abl_btb_size measurement). */
class BtbSizeSweepSink : public TraceSink {
  public:
    BtbSizeSweepSink() {
        for (const std::size_t s : kBtbSizes)
            btbs_.emplace_back(s);
        misses_.assign(btbs_.size(), 0);
    }

    void onEvent(const TraceEvent &ev) override {
        if (ev.kind != NKind::IndirectJump
            && ev.kind != NKind::IndirectCall) {
            return;
        }
        ++indirects_;
        for (std::size_t i = 0; i < btbs_.size(); ++i) {
            if (btbs_[i].predict(ev.pc) != ev.target)
                ++misses_[i];
            btbs_[i].update(ev.pc, ev.target);
        }
    }

    std::vector<Metric> metrics() const {
        std::vector<Metric> out;
        out.push_back(
            {"indirects", static_cast<double>(indirects_)});
        for (std::size_t i = 0; i < btbs_.size(); ++i) {
            out.push_back({btbMetricName(kBtbSizes[i]),
                           percent(misses_[i], indirects_)});
        }
        return out;
    }

  private:
    std::vector<Btb> btbs_;
    std::vector<std::uint64_t> misses_;
    std::uint64_t indirects_ = 0;
};

/**
 * Collector-work profile of one stream, derived purely from the
 * Phase::Gc event tags: a collection is one Call at kGcPc (every
 * collector brackets its pause in Call/Ret), and the pause length is
 * the number of Gc events between them. Works identically on live,
 * replayed, and disk-loaded streams.
 */
class GcPhaseSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &ev) override {
        ++total_;
        if (ev.phase != Phase::Gc)
            return;
        ++gcEvents_;
        if (ev.kind == NKind::Call)
            pauses_.push_back(0);
        if (!pauses_.empty())
            ++pauses_.back();
    }

    std::vector<Metric> metrics() const {
        std::uint64_t maxPause = 0;
        for (const std::uint64_t p : pauses_)
            maxPause = std::max(maxPause, p);
        return {
            {"collections", static_cast<double>(pauses_.size())},
            {"gc_events", static_cast<double>(gcEvents_)},
            {"gc_event_pct", percent(gcEvents_, total_)},
            {"max_pause_events", static_cast<double>(maxPause)},
        };
    }

  private:
    std::uint64_t total_ = 0;
    std::uint64_t gcEvents_ = 0;
    std::vector<std::uint64_t> pauses_;  ///< events per collection
};

/**
 * Translation-work profile of one stream, derived purely from the
 * phase tags: under a bounded code cache every retranslation shows up
 * as extra Translate-phase events and evicted methods run interpreted
 * until recompiled, so the Translate/Interpret shares are the
 * retranslation overhead. Works identically on live, replayed, and
 * disk-loaded streams.
 */
class TranslatePhaseSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &ev) override {
        ++total_;
        switch (ev.phase) {
        case Phase::Translate: ++translate_; break;
        case Phase::Interpret: ++interp_; break;
        case Phase::NativeExec: ++native_; break;
        default: break;
        }
    }

    /**
     * Stream-phase shares, plus the recorded run's end-of-run
     * code-cache free-extent accounting (the fragmentation gauge:
     * free extents per free KiB, matching
     * ExtentAllocator::fragmentation). The free-extent numbers ride
     * the recording's meta sidecar, so disk-loaded streams report
     * the same values as the live run.
     */
    std::vector<Metric> metrics(const RecordedRun &run) const {
        const double freeB =
            static_cast<double>(run.result.codeCacheFreeBytes);
        const double freeX =
            static_cast<double>(run.result.codeCacheFreeExtents);
        return {
            {"total_events", static_cast<double>(total_)},
            {"translate_events", static_cast<double>(translate_)},
            {"translate_pct", percent(translate_, total_)},
            {"interp_pct", percent(interp_, total_)},
            {"native_pct", percent(native_, total_)},
            {"free_code_bytes", freeB},
            {"free_code_extents", freeX},
            {"fragmentation", freeB == 0.0 ? 0.0
                                           : freeX / (freeB / 1024.0)},
        };
    }

  private:
    std::uint64_t total_ = 0;
    std::uint64_t translate_ = 0;
    std::uint64_t interp_ = 0;
    std::uint64_t native_ = 0;
};

} // namespace

std::string
btbMetricName(std::size_t entries)
{
    return "btb" + std::to_string(entries) + "_miss_pct";
}

std::string
fig04Label(const std::string &workload, bool jit)
{
    return "fig04/" + workload + "/" + modeLabel(jit);
}

std::string
fig07Label(const std::string &workload, bool jit, std::uint32_t assoc)
{
    return "fig07/" + workload + "/" + modeLabel(jit) + "/assoc"
        + std::to_string(assoc);
}

std::string
fig08Label(const std::string &workload, bool jit,
           std::uint32_t lineBytes)
{
    return "fig08/" + workload + "/" + modeLabel(jit) + "/line"
        + std::to_string(lineBytes);
}

std::string
btbLabel(const std::string &workload, bool jit)
{
    return "btb/" + workload + "/" + modeLabel(jit);
}

std::string
gcLabel(const std::string &workload, gc::CollectorKind collector,
        std::size_t heapBytes)
{
    return "gc/" + workload + "/" + gc::collectorName(collector)
        + "/h" + std::to_string(heapBytes >> 20) + "m";
}

std::string
codeCacheLabel(const std::string &workload, std::size_t capacityBytes,
               EvictionPolicy policy, AllocStrategy strategy,
               std::uint64_t osrThreshold)
{
    if (capacityBytes == 0)
        return "code_cache/" + workload + "/unlimited";
    std::string label = "code_cache/" + workload + "/"
        + evictionPolicyName(policy) + "/cc"
        + std::to_string(capacityBytes >> 10) + "k";
    if (strategy != AllocStrategy::kFirstFit)
        label += std::string("/") + allocStrategyName(strategy);
    if (osrThreshold != 0)
        label += "/osr" + std::to_string(osrThreshold);
    return label;
}

std::vector<SweepPoint>
buildFig04Grid()
{
    // The Figure 4 comparison point: 64K L1s, 32B lines, I 2-way,
    // D 4-way (the paper's measurement configuration).
    std::vector<SweepPoint> grid;
    for (const WorkloadInfo *w : gridSuite(false)) {
        for (const bool jit : {false, true}) {
            grid.push_back(cachePoint(
                fig04Label(w->name, jit),
                traceKey(w->name,
                         jit ? ExecMode::jit() : ExecMode::interp()),
                CacheConfig{64 * 1024, 32, 2, true},
                CacheConfig{64 * 1024, 32, 4, true}));
        }
    }
    return grid;
}

std::vector<SweepPoint>
buildFig07Grid()
{
    std::vector<SweepPoint> grid;
    for (const WorkloadInfo *w : gridSuite(false)) {
        for (const bool jit : {false, true}) {
            for (const std::uint32_t a : kFig07Assocs) {
                grid.push_back(cachePoint(
                    fig07Label(w->name, jit, a),
                    traceKey(w->name, jit ? ExecMode::jit()
                                          : ExecMode::interp()),
                    CacheConfig{8 * 1024, 32, a, true},
                    CacheConfig{8 * 1024, 32, a, true}));
            }
        }
    }
    return grid;
}

std::vector<SweepPoint>
buildFig08Grid()
{
    std::vector<SweepPoint> grid;
    for (const WorkloadInfo *w : gridSuite(true)) {
        for (const bool jit : {false, true}) {
            for (const std::uint32_t lb : kFig08Lines) {
                grid.push_back(cachePoint(
                    fig08Label(w->name, jit, lb),
                    traceKey(w->name, jit ? ExecMode::jit()
                                          : ExecMode::interp()),
                    CacheConfig{8 * 1024, lb, 1, true},
                    CacheConfig{8 * 1024, lb, 1, true}));
            }
        }
    }
    return grid;
}

std::vector<SweepPoint>
buildBtbGrid()
{
    std::vector<SweepPoint> grid;
    for (const WorkloadInfo *w : gridSuite(false)) {
        for (const bool jit : {false, true}) {
            grid.push_back(makePoint<BtbSizeSweepSink>(
                btbLabel(w->name, jit),
                traceKey(w->name,
                         jit ? ExecMode::jit() : ExecMode::interp()),
                [] { return std::make_unique<BtbSizeSweepSink>(); },
                [](const BtbSizeSweepSink &sink, const RecordedRun &) {
                    return sink.metrics();
                }));
        }
    }
    return grid;
}

std::vector<SweepPoint>
buildGcGrid()
{
    std::vector<SweepPoint> grid;
    for (const WorkloadInfo *w : gridSuite(false)) {
        for (const gc::CollectorKind c : kGcGridCollectors) {
            for (const std::size_t hb : kGcHeapBytes) {
                TraceKey key = traceKey(w->name, ExecMode::jit());
                key.gc.collector = c;
                // Budget a fixed fraction of the heap between
                // collections: halving the heap halves the
                // allocation headroom, which is the pressure the
                // grid sweeps. 1/1024 keeps the budget inside the
                // suite's (deliberately small) allocation volumes.
                key.gc.budgetBytes = hb >> 10;
                key.heapBytes = hb;
                grid.push_back(makePoint<GcPhaseSink>(
                    gcLabel(w->name, c, hb), std::move(key),
                    [] { return std::make_unique<GcPhaseSink>(); },
                    [](const GcPhaseSink &sink,
                       const RecordedRun &) {
                        return sink.metrics();
                    }));
            }
        }
    }
    return grid;
}

std::vector<SweepPoint>
buildCodeCacheGrid()
{
    std::vector<SweepPoint> grid;
    const auto point =
        [](const WorkloadInfo *w, std::size_t cap,
           EvictionPolicy policy,
           AllocStrategy strategy = AllocStrategy::kFirstFit,
           std::uint64_t osr = 0) {
        TraceKey key = traceKey(w->name, osr != 0
                                             ? ExecMode::counter(8)
                                             : ExecMode::jit());
        key.codeCache.capacityBytes = cap;
        key.codeCache.policy = policy;
        key.codeCache.strategy = strategy;
        key.osrBackEdgeThreshold = osr;
        return makePoint<TranslatePhaseSink>(
            codeCacheLabel(w->name, cap, policy, strategy, osr),
            std::move(key),
            [] { return std::make_unique<TranslatePhaseSink>(); },
            [](const TranslatePhaseSink &sink,
               const RecordedRun &run) { return sink.metrics(run); });
    };
    for (const WorkloadInfo *w : gridSuite(false)) {
        // Unlimited baseline: the no-eviction stream the bounded
        // points are compared against (policy value is ignored).
        grid.push_back(point(w, 0, EvictionPolicy::kFifo));
        for (const EvictionPolicy policy : kCodeCachePolicies) {
            for (const std::size_t cap : kCodeCacheCapacities)
                grid.push_back(point(w, cap, policy));
        }
        // First-fit vs best-fit extent placement under the same
        // eviction pressure: the fragmentation-gauge comparison.
        for (const std::size_t cap : kCodeCacheCapacities) {
            grid.push_back(point(w, cap, EvictionPolicy::kFifo,
                                 AllocStrategy::kBestFit));
        }
        // Tiered combination: counter policy + OSR + bounded cache —
        // evicted loop-dominated methods recover via on-stack
        // replacement instead of waiting out the re-armed counter.
        grid.push_back(point(w, kCodeCacheCapacities[1],
                             EvictionPolicy::kFifo,
                             AllocStrategy::kFirstFit,
                             kCodeCacheOsrThreshold));
    }
    return grid;
}

std::vector<SweepPoint>
buildAllGrid()
{
    std::vector<SweepPoint> grid = buildFig04Grid();
    for (auto build :
         {buildFig07Grid, buildFig08Grid, buildBtbGrid}) {
        std::vector<SweepPoint> part = build();
        for (SweepPoint &p : part)
            grid.push_back(std::move(p));
    }
    return grid;
}

const std::vector<NamedGrid> &
allGrids()
{
    static const std::vector<NamedGrid> kGrids = {
        {"fig04",
         "64K L1 miss rates per workload and mode (Figure 4 inputs)",
         &buildFig04Grid},
        {"fig07",
         "associativity sweep: 8K caches, 32B lines, assoc 1/2/4/8",
         &buildFig07Grid},
        {"fig08",
         "line-size sweep: 8K direct-mapped, 16/32/64/128B lines",
         &buildFig08Grid},
        {"btb",
         "BTB capacity vs indirect-transfer misprediction",
         &buildBtbGrid},
        {"all",
         "every cache/BTB grid above, sharing one stream per "
         "(workload, mode)",
         &buildAllGrid},
        {"gc",
         "heap-size x collector sweep: collections, collector-event "
         "share, pause sizes",
         &buildGcGrid},
        {"code_cache",
         "code-cache capacity x eviction-policy sweep (plus best-fit "
         "allocation and counter+OSR points): retranslation overhead "
         "as Translate/Interpret share, fragmentation gauge",
         &buildCodeCacheGrid},
    };
    return kGrids;
}

const NamedGrid *
findGrid(const std::string &name)
{
    for (const NamedGrid &g : allGrids()) {
        if (name == g.name)
            return &g;
    }
    return nullptr;
}

} // namespace jrs::sweep
