/**
 * @file
 * Figure 4: average L1 miss rates of the Java suite (interp and JIT)
 * side by side with the paper's SPECint/C++ reference points.
 *
 * To reproduce: interpreter beats C/C++ on both caches; JIT's I-cache
 * behaviour approaches C/C++ while its D-cache miss rate is the worst
 * of all families. (The C/C++ rows are the paper's reported values —
 * external baselines there too.)
 *
 * Runs on the sweep engine (`--jobs N`): one live VM run per
 * (workload, mode) feeds every cache model of that stream.
 */
#include "bench_util.h"
#include "harness/paper_data.h"
#include "sweep/grids.h"

using namespace jrs;

namespace {

void
render(const sweep::SweepResult &result)
{
    double i_sum[2] = {}, d_sum[2] = {};
    int n = 0;
    for (const WorkloadInfo *w : bench::suite()) {
        for (const bool jit : {false, true}) {
            const sweep::PointResult *p =
                result.find(sweep::fig04Label(w->name, jit));
            i_sum[jit] += p->metric("icache_miss_pct");
            d_sum[jit] += p->metric("dcache_miss_pct");
        }
        ++n;
    }

    Table t({"family", "icache_miss%", "dcache_miss%", "source"});
    t.addRow({"Java interp (measured)", fixed(i_sum[0] / n, 3),
              fixed(d_sum[0] / n, 3), "jrs simulator"});
    t.addRow({"Java JIT (measured)", fixed(i_sum[1] / n, 3),
              fixed(d_sum[1] / n, 3), "jrs simulator"});
    for (const auto &ref : paper::kFig4Reference) {
        t.addRow({ref.family, fixed(ref.icachePct, 2),
                  fixed(ref.dcachePct, 2), "paper (plot read)"});
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::sweepMain(
        argc, argv,
        {"Figure 4 — average miss rates vs C/C++ reference",
         "interp < C/C++ on both; JIT I-cache ~ C/C++, JIT D-cache "
         "worst of all families",
         sweep::buildFig04Grid(), render});
}
