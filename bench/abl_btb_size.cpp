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

int
main(int argc, char **argv)
{
    const bench::SweepBenchArgs args =
        bench::parseSweepBenchArgs(argc, argv);
    bench::setupObs(args);

    bench::header(
        "Ablation — BTB size sweep for indirect transfers",
        "interp dispatch mispredicts are interference, not capacity: "
        "bigger BTBs barely help");

    sweep::SweepOptions opts;
    opts.jobs = args.jobs;
    opts.cacheDir = args.cacheDir;
    obs::ObsReports reports;
    sweep::attachObservers(opts, args.obs, reports);
    sweep::SweepEngine engine(opts);
    const sweep::SweepResult result =
        engine.run(sweep::buildBtbGrid());
    if (!result.allOk()) {
        for (const sweep::PointResult &p : result.points) {
            if (!p.ok)
                std::cerr << p.label << ": " << p.error << '\n';
        }
        bench::finishObs(args, reports);
        return 1;
    }

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
    std::cout << "sweep: " << fixed(result.wallSeconds, 2) << "s, "
              << result.jobs << " jobs, "
              << result.traces.recordings << " recordings, "
              << result.traces.diskLoads << " disk loads\n";

    if (!args.json.empty())
        result.writeJson(args.json);
    bench::finishObs(args, reports);
    return 0;
}
