/**
 * @file
 * Ablation: code-cache capacity × eviction policy — what a bounded
 * code cache costs in retranslation work.
 *
 * Each bounded grid point runs jit-mode under a capacity a fraction of
 * the workload's total generated code (the suite compiles ~4.7–8.8 KiB
 * per workload), so installs continuously evict and re-invoked victims
 * are retranslated. The cost shows up directly in the stream: extra
 * Translate-phase events (the retranslation overhead) and, under a
 * counter policy, interpreter fallback. The unlimited baseline row per
 * workload anchors the curve at zero overhead.
 *
 * Runs on the sweep engine; every bounded point runs its own stream
 * (eviction changes what executes natively, so capacity and policy are
 * part of the stream identity).
 */
#include "bench_util.h"
#include "sweep/grids.h"

using namespace jrs;

namespace {

void
render(const sweep::SweepResult &result)
{
    Table t({"workload", "policy", "capacity", "events",
             "translate%", "interp%", "native%", "overhead%"});
    for (const WorkloadInfo *w : bench::suite()) {
        const sweep::PointResult *base = result.find(
            sweep::codeCacheLabel(w->name, 0, EvictionPolicy::kFifo));
        const double baseEvents = base->metric("total_events");
        t.addRow({w->name, "-", "unlimited",
                  withCommas(static_cast<std::uint64_t>(baseEvents)),
                  fixed(base->metric("translate_pct"), 2),
                  fixed(base->metric("interp_pct"), 2),
                  fixed(base->metric("native_pct"), 2), "0.00"});
        for (const EvictionPolicy policy : sweep::kCodeCachePolicies) {
            for (const std::size_t cap : sweep::kCodeCacheCapacities) {
                const sweep::PointResult *p = result.find(
                    sweep::codeCacheLabel(w->name, cap, policy));
                const double events = p->metric("total_events");
                t.addRow(
                    {w->name, evictionPolicyName(policy),
                     std::to_string(cap >> 10) + "k",
                     withCommas(static_cast<std::uint64_t>(events)),
                     fixed(p->metric("translate_pct"), 2),
                     fixed(p->metric("interp_pct"), 2),
                     fixed(p->metric("native_pct"), 2),
                     fixed(100.0 * (events - baseEvents) / baseEvents,
                           2)});
            }
        }
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::sweepMain(
        argc, argv,
        {"Ablation — code-cache capacity x eviction policy",
         "retranslation overhead as Translate-phase share of the "
         "stream; jit mode, unlimited baseline per workload",
         sweep::buildCodeCacheGrid(), render});
}
