/**
 * @file
 * Figure 7: effect of associativity (8K caches, 32B lines, assoc 1,
 * 2, 4, 8) on I- and D-cache miss rates, suite averages per mode.
 *
 * To reproduce: misses fall as associativity rises, with the largest
 * step from direct-mapped to 2-way.
 *
 * This bench runs on the sweep engine: each (workload, mode) stream
 * is produced once and feeds the four associativity models (live,
 * unless --cache-dir or a profiler flag makes the groups record), with
 * streams processed in parallel across `--jobs` workers.
 * `--compare-serial` also runs the grid again on a shared trace cache
 * (record-then-replay) and the pre-sweep implementation (one live VM
 * run per stream, fanned out serially), and checks all three produce
 * bit-identical miss rates.
 */
#include "arch/cache/cache.h"
#include "bench_util.h"
#include "obs/clock.h"
#include "sweep/grids.h"

using namespace jrs;

namespace {

/** Per-point serial miss rates, keyed by the grid's point labels. */
struct SerialBaseline {
    double seconds = 0;
    // label -> (icache_miss_pct, dcache_miss_pct)
    std::vector<std::pair<std::string, std::pair<double, double>>>
        points;
};

/** The original implementation: one live VM run per (workload, mode)
    fanned out to all four associativity models through a MultiSink. */
SerialBaseline
runSerialBaseline()
{
    const obs::SteadyTime t0 = obs::steadyNow();
    SerialBaseline out;
    for (const WorkloadInfo *w : bench::suite()) {
        for (const bool jit : {false, true}) {
            std::vector<std::unique_ptr<CacheSink>> sinks;
            MultiSink multi;
            for (const std::uint32_t a : sweep::kFig07Assocs) {
                sinks.push_back(std::make_unique<CacheSink>(
                    CacheConfig{8 * 1024, 32, a, true},
                    CacheConfig{8 * 1024, 32, a, true}));
                multi.add(sinks.back().get());
            }
            RunSpec s;
            s.workload = w;
            s.policy = jit
                ? std::static_pointer_cast<CompilationPolicy>(
                      std::make_shared<AlwaysCompilePolicy>())
                : std::static_pointer_cast<CompilationPolicy>(
                      std::make_shared<NeverCompilePolicy>());
            s.sink = &multi;
            (void)runWorkload(s);
            for (std::size_t k = 0; k < sinks.size(); ++k) {
                out.points.emplace_back(
                    sweep::fig07Label(w->name, jit,
                                      sweep::kFig07Assocs[k]),
                    std::make_pair(
                        100.0
                            * sinks[k]->icache().stats().missRate(),
                        100.0
                            * sinks[k]->dcache().stats().missRate()));
            }
        }
    }
    out.seconds = obs::secondsSince(t0);
    return out;
}

/** Exact per-point equality between serial and sweep results. */
bool
identical(const SerialBaseline &serial,
          const sweep::SweepResult &swept)
{
    for (const auto &[label, miss] : serial.points) {
        const sweep::PointResult *p = swept.find(label);
        if (p == nullptr || !p->ok
            || p->metric("icache_miss_pct") != miss.first
            || p->metric("dcache_miss_pct") != miss.second) {
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::SweepBenchArgs args =
        bench::parseSweepBenchArgs(argc, argv);
    bench::setupObs(args);

    bench::header(
        "Figure 7 — associativity sweep (8K, 32B, assoc 1/2/4/8)",
        "biggest miss reduction when going from 1-way to 2-way");

    sweep::SweepOptions opts;
    opts.jobs = args.jobs;
    opts.cacheDir = args.cacheDir;
    obs::ObsReports reports;
    sweep::attachObservers(opts, args.obs, reports);
    sweep::SweepEngine engine(opts);
    const sweep::SweepResult result =
        engine.run(sweep::buildFig07Grid());
    if (!result.allOk()) {
        for (const sweep::PointResult &p : result.points) {
            if (!p.ok)
                std::cerr << p.label << ": " << p.error << '\n';
        }
        bench::finishObs(args, reports);
        return 1;
    }

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
    std::cout << "sweep: " << fixed(result.wallSeconds, 2) << "s, "
              << result.jobs << " jobs, "
              << result.traces.recordings << " recordings, "
              << result.traces.memoryHits << " memory hits, "
              << result.traces.diskLoads << " disk loads\n";

    if (!args.json.empty())
        result.writeJson(args.json);

    if (args.compareSerial) {
        // Recorded pass: an explicit shared trace cache makes every
        // group record its stream and replay it, so the check covers
        // the record-then-replay path as well as the live one above.
        sweep::SweepOptions recordedOpts;
        recordedOpts.jobs = args.jobs;
        recordedOpts.cache = std::make_shared<sweep::TraceCache>();
        const sweep::SweepResult recorded =
            sweep::SweepEngine(recordedOpts).run(sweep::buildFig07Grid());
        const SerialBaseline serial = runSerialBaseline();
        const bool same =
            identical(serial, result) && identical(serial, recorded);
        std::cout << "\nserial " << fixed(serial.seconds, 2)
                  << "s | sweep cold " << fixed(result.wallSeconds, 2)
                  << "s (" << fixed(serial.seconds
                                        / result.wallSeconds, 2)
                  << "x) | sweep recorded "
                  << fixed(recorded.wallSeconds, 2) << "s ("
                  << fixed(serial.seconds / recorded.wallSeconds, 2)
                  << "x) | results bit-identical: "
                  << (same ? "yes" : "NO") << '\n';
        if (!same) {
            bench::finishObs(args, reports);
            return 1;
        }
    }
    bench::finishObs(args, reports);
    return 0;
}
