/**
 * @file
 * Named sweep grids for the paper's multi-configuration experiments.
 *
 * One definition of each grid is shared by the bench binaries that
 * print the figures, the `jrs_sweep` CLI, and the tests — the figure
 * layout stays in the bench, the measurement matrix lives here.
 *
 * Grids deliberately reuse streams: "fig07" needs only one VM run per
 * (workload, mode) for its four associativities, and "all" shares the
 * same 16 streams across every cache/BTB experiment.
 */
#ifndef JRS_SWEEP_GRIDS_H
#define JRS_SWEEP_GRIDS_H

#include <string>
#include <vector>

#include "sweep/sweep.h"

namespace jrs::sweep {

/** Figure 7 associativities (8K caches, 32B lines). */
inline constexpr std::uint32_t kFig07Assocs[] = {1, 2, 4, 8};

/** Figure 8 line sizes (8K direct-mapped). */
inline constexpr std::uint32_t kFig08Lines[] = {16, 32, 64, 128};

/** BTB-capacity ablation sizes. */
inline constexpr std::size_t kBtbSizes[] = {64, 256, 1024, 4096};

/** GC-grid heap capacities (the budget is heap/1024, sized so the
    suite's allocation volumes actually cross it: smaller heaps
    collect more often — the classic heap-size/pause trade). */
inline constexpr std::size_t kGcHeapBytes[] = {1u << 20, 4u << 20,
                                               16u << 20};

/** GC-grid collectors (the two real strategies; nogc is the
    reference every digest test already covers). */
inline constexpr gc::CollectorKind kGcGridCollectors[] = {
    gc::CollectorKind::MarkSweep, gc::CollectorKind::Copying};

/** Code-cache-grid capacities, sized against the suite's generated
    code (~4.7–8.8 KiB per workload under compile-everything): 2 KiB
    forces sustained eviction pressure everywhere, 4 KiB moderate
    pressure, and 8 KiB pressures only the code-heavy workloads — the
    retranslation-overhead curve's knee. */
inline constexpr std::size_t kCodeCacheCapacities[] = {
    2u << 10, 4u << 10, 8u << 10};

/** Code-cache-grid eviction policies (all four). */
inline constexpr EvictionPolicy kCodeCachePolicies[] = {
    EvictionPolicy::kFifo, EvictionPolicy::kLru, EvictionPolicy::kCost,
    EvictionPolicy::kCostPerByte};

/** OSR back-edge threshold for the code-cache grid's tiered points
    (counter policy + OSR + bounded cache: evicted loop-dominated
    methods recover through on-stack replacement). */
inline constexpr std::uint64_t kCodeCacheOsrThreshold = 32;

/** "interp" / "jit" — the mode component used in grid labels. */
inline const char *
modeLabel(bool jit)
{
    return jit ? "jit" : "interp";
}

/** Name of a BTB-sweep metric, e.g. "btb256_miss_pct". */
std::string btbMetricName(std::size_t entries);

/**
 * Point labels, so aggregating drivers can look results up without
 * re-deriving string formats: "fig07/compress/jit/assoc4" etc.
 */
std::string fig04Label(const std::string &workload, bool jit);
std::string fig07Label(const std::string &workload, bool jit,
                       std::uint32_t assoc);
std::string fig08Label(const std::string &workload, bool jit,
                       std::uint32_t lineBytes);
std::string btbLabel(const std::string &workload, bool jit);
/** "gc/compress/marksweep/h8m" etc. */
std::string gcLabel(const std::string &workload,
                    gc::CollectorKind collector,
                    std::size_t heapBytes);
/** "code_cache/compress/lru/cc8k"; capacity 0 =>
    "code_cache/compress/unlimited" (the no-eviction baseline).
    Best-fit allocation appends "/best", an OSR threshold appends
    "/osrN": "code_cache/compress/fifo/cc4k/best",
    "code_cache/compress/fifo/cc4k/osr32". */
std::string codeCacheLabel(
    const std::string &workload, std::size_t capacityBytes,
    EvictionPolicy policy,
    AllocStrategy strategy = AllocStrategy::kFirstFit,
    std::uint64_t osrThreshold = 0);

/** Grid builders. Cache points emit icache/dcache_miss_pct metrics. */
std::vector<SweepPoint> buildFig04Grid();
std::vector<SweepPoint> buildFig07Grid();
std::vector<SweepPoint> buildFig08Grid();
std::vector<SweepPoint> buildBtbGrid();
/**
 * Heap-size × collector grid: every point records its own stream
 * (collector traffic is part of the stream identity) and reports
 * collections, collector-event share and pause sizes from the
 * Phase::Gc tags alone, so replayed/disk-loaded streams measure
 * identically to live ones.
 */
std::vector<SweepPoint> buildGcGrid();
/**
 * Code-cache capacity × eviction-policy grid (jit mode, plus one
 * unlimited baseline per workload), extended with best-fit-allocation
 * points (the fragmentation comparison) and one counter+OSR tiered
 * point per workload. Every bounded point records its own stream —
 * eviction changes what executes natively — and reports the
 * retranslation overhead from phase tags (Translate share vs the
 * stream) plus the recorded run's fragmentation gauge (persisted in
 * the meta sidecar), so replayed/disk-loaded streams measure
 * identically to live ones.
 */
std::vector<SweepPoint> buildCodeCacheGrid();
/** Concatenation of the four cache/BTB grids (streams shared across
    experiments; the gc grid records distinct streams and stays
    separate). */
std::vector<SweepPoint> buildAllGrid();

/** A registered grid. */
struct NamedGrid {
    const char *name;
    const char *description;
    std::vector<SweepPoint> (*build)();
};

/** Every named grid (fig04, fig07, fig08, btb, all). */
const std::vector<NamedGrid> &allGrids();

/** Lookup by name; nullptr when unknown. */
const NamedGrid *findGrid(const std::string &name);

} // namespace jrs::sweep

#endif // JRS_SWEEP_GRIDS_H
