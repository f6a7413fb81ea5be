/**
 * @file
 * Figure 7: effect of associativity (8K caches, 32B lines, assoc 1,
 * 2, 4, 8) on I- and D-cache miss rates, suite averages per mode.
 *
 * To reproduce: misses fall as associativity rises, with the largest
 * step from direct-mapped to 2-way.
 *
 * This bench runs on the sweep engine: each (workload, mode) stream
 * is produced once, live, and feeds the four associativity models,
 * with streams processed in parallel across `--jobs` workers.
 * `--compare-serial` also measures the grid on the serial reference
 * (one live VM run per stream, fanned out serially;
 * sweep/serial_reference.h) and fails unless every point is
 * bit-identical.
 */
#include "bench_util.h"
#include "sweep/grids.h"

using namespace jrs;

namespace {

void
render(const sweep::SweepResult &result)
{
    Table t({"mode", "assoc", "icache_miss%", "dcache_miss%"});
    for (const bool jit : {false, true}) {
        for (const std::uint32_t a : sweep::kFig07Assocs) {
            double i_sum = 0, d_sum = 0;
            int n = 0;
            for (const WorkloadInfo *w : bench::suite()) {
                const sweep::PointResult *p =
                    result.find(sweep::fig07Label(w->name, jit, a));
                i_sum += p->metric("icache_miss_pct");
                d_sum += p->metric("dcache_miss_pct");
                ++n;
            }
            t.addRow({jit ? "jit" : "interp", std::to_string(a),
                      fixed(i_sum / n, 3), fixed(d_sum / n, 3)});
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
        {"Figure 7 — associativity sweep (8K, 32B, assoc 1/2/4/8)",
         "biggest miss reduction when going from 1-way to 2-way",
         sweep::buildFig07Grid(), render});
}
