/**
 * @file
 * Ablation: BTB capacity vs the interpreter's indirect jumps.
 *
 * The paper recommends predictors tailored for indirect branches in
 * interpreter mode. This sweep shows WHY capacity alone cannot fix
 * the problem: the dispatch jump is a single site with ~90 live
 * targets, so its misprediction rate barely moves with BTB size —
 * the miss is target interference, not capacity.
 *
 * Runs on the sweep engine: the four BTB capacities share one VM run
 * per (workload, mode), and streams run in parallel across `--jobs`
 * workers.
 */
#include "bench_util.h"
#include "sweep/grids.h"

using namespace jrs;

namespace {

void
render(const sweep::SweepResult &result)
{
    Table t({"workload", "mode", "indirects", "btb64%", "btb256%",
             "btb1k%", "btb4k%"});
    for (const WorkloadInfo *w : bench::suite()) {
        for (const bool jit : {false, true}) {
            const sweep::PointResult *p =
                result.find(sweep::btbLabel(w->name, jit));
            std::vector<std::string> row{
                w->name, jit ? "jit" : "interp",
                withCommas(static_cast<std::uint64_t>(
                    p->metric("indirects")))};
            for (const std::size_t size : sweep::kBtbSizes) {
                row.push_back(fixed(
                    p->metric(sweep::btbMetricName(size)), 1));
            }
            t.addRow(row);
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
        {"Ablation — BTB size sweep for indirect transfers",
         "interp dispatch mispredicts are interference, not capacity: "
         "bigger BTBs barely help",
         sweep::buildBtbGrid(), render});
}
