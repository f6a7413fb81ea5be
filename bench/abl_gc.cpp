/**
 * @file
 * Ablation: heap size × collector — how much of the dynamic stream
 * the collector adds, and what the pauses look like.
 *
 * Each grid point runs jit-mode with an allocation budget of 1/1024th
 * of the heap, so halving the heap halves the allocation headroom: the
 * classic space/time trade rendered as collector-event share and
 * worst-case pause (in emitted collector instructions, the
 * simulator's time unit). Mark-sweep pauses scale with the heap walk
 * (sweep is linear in the window), copying pauses with the live set —
 * visible directly in the max-pause column.
 *
 * Runs on the sweep engine; every point records its own stream
 * (collector traffic is part of the stream identity).
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
        "Ablation — heap size x collector",
        "GC cost as collector-event share of the stream; budget = "
        "heap/1024, jit mode");

    sweep::SweepOptions opts;
    opts.jobs = args.jobs;
    opts.cacheDir = args.cacheDir;
    obs::ObsReports reports;
    sweep::attachObservers(opts, args.obs, reports);
    sweep::SweepEngine engine(opts);
    const sweep::SweepResult result =
        engine.run(sweep::buildGcGrid());
    if (!result.allOk()) {
        for (const sweep::PointResult &p : result.points) {
            if (!p.ok)
                std::cerr << p.label << ": " << p.error << '\n';
        }
        bench::finishObs(args, reports);
        return 1;
    }

    Table t({"workload", "collector", "heap", "collections",
             "gc events", "gc%", "max pause"});
    for (const WorkloadInfo *w : bench::suite()) {
        for (const gc::CollectorKind c : sweep::kGcGridCollectors) {
            for (const std::size_t hb : sweep::kGcHeapBytes) {
                const sweep::PointResult *p = result.find(
                    sweep::gcLabel(w->name, c, hb));
                t.addRow({w->name, gc::collectorName(c),
                          std::to_string(hb >> 20) + "m",
                          fixed(p->metric("collections"), 0),
                          withCommas(static_cast<std::uint64_t>(
                              p->metric("gc_events"))),
                          fixed(p->metric("gc_event_pct"), 2),
                          withCommas(static_cast<std::uint64_t>(
                              p->metric("max_pause_events")))});
            }
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
