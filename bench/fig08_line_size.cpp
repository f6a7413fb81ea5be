/**
 * @file
 * Figure 8: effect of line size (8K direct-mapped, lines of 16, 32,
 * 64, 128 bytes), per workload and mode.
 *
 * To reproduce: larger lines monotonically help the I-cache; for the
 * D-cache the interpreter prefers SMALL (16B) lines in most programs
 * (methods average under 16 bytecode bytes, so longer lines fetch
 * little useful data), while JIT mode prefers 32-64B (object sizes).
 *
 * Runs on the sweep engine — one VM run per (workload, mode) feeding
 * the four line-size models, streams in parallel across `--jobs`
 * workers. See fig07_associativity.cpp for the `--compare-serial`
 * semantics.
 */
#include "arch/cache/cache.h"
#include "bench_util.h"
#include "obs/clock.h"
#include "sweep/grids.h"

using namespace jrs;

namespace {

struct SerialBaseline {
    double seconds = 0;
    // label -> (icache_miss_pct, dcache_miss_pct)
    std::vector<std::pair<std::string, std::pair<double, double>>>
        points;
};

/** The original implementation: one live VM run per (workload, mode)
    fanned out to all four line-size models through a MultiSink. */
SerialBaseline
runSerialBaseline()
{
    const obs::SteadyTime t0 = obs::steadyNow();
    SerialBaseline out;
    for (const WorkloadInfo *w : bench::suite(true)) {
        for (const bool jit : {false, true}) {
            std::vector<std::unique_ptr<CacheSink>> sinks;
            MultiSink multi;
            for (const std::uint32_t lb : sweep::kFig08Lines) {
                sinks.push_back(std::make_unique<CacheSink>(
                    CacheConfig{8 * 1024, lb, 1, true},
                    CacheConfig{8 * 1024, lb, 1, true}));
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
                    sweep::fig08Label(w->name, jit,
                                      sweep::kFig08Lines[k]),
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
        "Figure 8 — line-size sweep (8K direct-mapped; 16/32/64/128B)",
        "interp D-cache often best at 16B lines; JIT best at 32-64B");

    sweep::SweepOptions opts;
    opts.jobs = args.jobs;
    obs::ObsReports reports;
    sweep::attachObservers(opts, args.obs, reports);
    sweep::SweepEngine engine(opts);
    const sweep::SweepResult result =
        engine.run(sweep::buildFig08Grid());
    if (!result.allOk()) {
        for (const sweep::PointResult &p : result.points) {
            if (!p.ok)
                std::cerr << p.label << ": " << p.error << '\n';
        }
        bench::finishObs(args, reports);
        return 1;
    }

    Table t({"workload", "mode", "cache", "16B%", "32B%", "64B%",
             "128B%", "best"});
    for (const WorkloadInfo *w : bench::suite(true)) {
        for (const bool jit : {false, true}) {
            for (const bool dcache : {false, true}) {
                const char *metric =
                    dcache ? "dcache_miss_pct" : "icache_miss_pct";
                double mr[4];
                int best = 0;
                for (int k = 0; k < 4; ++k) {
                    mr[k] = result
                                .find(sweep::fig08Label(
                                    w->name, jit,
                                    sweep::kFig08Lines[k]))
                                ->metric(metric);
                    if (mr[k] < mr[best])
                        best = k;
                }
                t.addRow({
                    w->name,
                    jit ? "jit" : "interp",
                    dcache ? "D" : "I",
                    fixed(mr[0], 3),
                    fixed(mr[1], 3),
                    fixed(mr[2], 3),
                    fixed(mr[3], 3),
                    std::to_string(sweep::kFig08Lines[best]) + "B",
                });
            }
        }
    }
    t.print(std::cout);
    std::cout << "sweep: " << fixed(result.wallSeconds, 2) << "s, "
              << result.jobs << " jobs, "
              << result.traces.recordings << " recordings\n";

    if (!args.json.empty())
        result.writeJson(args.json);

    if (args.compareSerial) {
        const SerialBaseline serial = runSerialBaseline();
        const bool same = identical(serial, result);
        std::cout << "\nserial " << fixed(serial.seconds, 2)
                  << "s | sweep cold " << fixed(result.wallSeconds, 2)
                  << "s (" << fixed(serial.seconds
                                        / result.wallSeconds, 2)
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
