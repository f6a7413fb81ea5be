/**
 * @file
 * Figure 6: miss behaviour over the course of execution for db,
 * interpreter vs JIT mode.
 *
 * To reproduce: the interpreter shows an initial class-loading spike
 * then steady locality; the JIT shows clustered spikes wherever groups
 * of methods are translated in rapid succession (visible here as
 * windows whose translate-event share and write-miss counts jump).
 *
 * Runs on the sweep engine (`--jobs N`, `--json FILE`, `--cache-dir
 * DIR`): each mode's stream is recorded once and replayed into an
 * attributed split L1 whose IntervalTimeline (obs/perf.h) provides
 * the windowed sampling — the window is sized to ~40 samples straight
 * from the recording's event count, so the old dry-run pass is gone.
 * `--compare-serial` also runs the original hand-rolled
 * TimeSeriesCacheSink on a live VM run and asserts both paths produce
 * bit-identical curves.
 */
#include "arch/cache/time_series.h"
#include "bench_util.h"

using namespace jrs;

namespace {

constexpr CacheConfig kIcfg{64 * 1024, 32, 2, true};
constexpr CacheConfig kDcfg{64 * 1024, 32, 4, true};
constexpr std::uint64_t kTargetWindows = 40;

/** The figure's curve for one mode, copied out of the sweep sink. */
struct Curve {
    std::uint64_t window = 0;  ///< events per sample
    std::vector<obs::IntervalSample> samples;
};

std::uint64_t
dMisses(const obs::IntervalSample &s)
{
    return s.bad[static_cast<std::size_t>(PerfKind::DCacheLoad)]
        + s.bad[static_cast<std::size_t>(PerfKind::DCacheStore)];
}

sweep::SweepPoint
timelinePoint(bool jit, Curve *out)
{
    return sweep::makePoint<obs::AttributedCaches>(
        std::string("fig06/db/") + (jit ? "jit" : "interp"),
        sweep::traceKey("db", jit ? sweep::ExecMode::jit()
                                  : sweep::ExecMode::interp()),
        [](const RecordedRun &run) {
            obs::PerfOptions popt;
            popt.timelineWindow = std::max<std::uint64_t>(
                1, run.trace->size() / kTargetWindows);
            auto map = run.methods != nullptr
                ? run.methods
                : std::make_shared<const obs::MethodMap>();
            return std::make_unique<obs::AttributedCaches>(
                kIcfg, kDcfg, std::move(map), popt);
        },
        [out](obs::AttributedCaches &sink, const RecordedRun &) {
            const obs::PerfAttribution &perf = sink.perf();
            out->window = perf.timelineWindow();
            out->samples = perf.timeline();
            std::uint64_t i = 0, d = 0, w = 0;
            for (const obs::IntervalSample &s : out->samples) {
                i += s.bad[static_cast<std::size_t>(
                    PerfKind::ICacheFetch)];
                d += dMisses(s);
                w += s.bad[static_cast<std::size_t>(
                    PerfKind::DCacheStore)];
            }
            return std::vector<sweep::Metric>{
                {"windows",
                 static_cast<double>(out->samples.size())},
                {"i_misses", static_cast<double>(i)},
                {"d_misses", static_cast<double>(d)},
                {"d_write_misses", static_cast<double>(w)},
            };
        });
}

void
printSeries(const char *mode, const Curve &curve)
{
    std::cout << "\n" << mode << " (window = "
              << withCommas(curve.window) << " instructions)\n";
    Table t({"window", "i_misses", "d_misses", "d_write_misses",
             "translate_insts", "profile"});
    std::uint64_t max_d = 1;
    for (const obs::IntervalSample &s : curve.samples)
        max_d = std::max(max_d, dMisses(s));
    for (std::size_t i = 0; i < curve.samples.size(); ++i) {
        const obs::IntervalSample &s = curve.samples[i];
        const int bar_len = static_cast<int>(
            40.0 * static_cast<double>(dMisses(s))
            / static_cast<double>(max_d));
        t.addRow({std::to_string(i),
                  withCommas(s.bad[static_cast<std::size_t>(
                      PerfKind::ICacheFetch)]),
                  withCommas(dMisses(s)),
                  withCommas(s.bad[static_cast<std::size_t>(
                      PerfKind::DCacheStore)]),
                  withCommas(s.translateEvents),
                  std::string(static_cast<std::size_t>(bar_len), '#')});
    }
    t.print(std::cout);
}

/** The original implementation: live runs through the hand-rolled
    windowed sampler, with a dry run to size the windows. */
std::pair<TimeSeriesCacheSink, TimeSeriesCacheSink>
runLegacyBaseline(const WorkloadInfo &db)
{
    const ModePair sizes = runBothModes(db, 0, nullptr, nullptr);
    std::pair<TimeSeriesCacheSink, TimeSeriesCacheSink> out{
        TimeSeriesCacheSink(
            kIcfg, kDcfg,
            std::max<std::uint64_t>(
                1, sizes.interp.totalEvents / kTargetWindows)),
        TimeSeriesCacheSink(
            kIcfg, kDcfg,
            std::max<std::uint64_t>(
                1, sizes.jit.totalEvents / kTargetWindows))};
    (void)runBothModes(db, 0, &out.first, &out.second);
    return out;
}

/** Bit-identical curve comparison between the two implementations. */
bool
identical(const TimeSeriesCacheSink &legacy, const Curve &curve)
{
    if (legacy.windowEvents() != curve.window
        || legacy.samples().size() != curve.samples.size()) {
        return false;
    }
    for (std::size_t i = 0; i < curve.samples.size(); ++i) {
        const MissSample &a = legacy.samples()[i];
        const obs::IntervalSample &b = curve.samples[i];
        if (a.iMisses
                != b.bad[static_cast<std::size_t>(
                    PerfKind::ICacheFetch)]
            || a.dMisses != dMisses(b)
            || a.dWriteMisses
                != b.bad[static_cast<std::size_t>(
                    PerfKind::DCacheStore)]
            || a.translateEvents != b.translateEvents) {
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
        "Figure 6 — db miss-rate timeline, interp vs JIT",
        "interp: initial spike, then flat; JIT: clustered translation "
        "spikes of write misses");

    Curve interp, jit;
    sweep::SweepOptions opts;
    opts.jobs = args.jobs;
    opts.cacheDir = args.cacheDir;
    obs::ObsReports reports;
    sweep::attachObservers(opts, args.obs, reports);
    sweep::SweepEngine engine(opts);
    const sweep::SweepResult result = engine.run(
        {timelinePoint(false, &interp), timelinePoint(true, &jit)});
    if (!result.allOk()) {
        for (const sweep::PointResult &p : result.points) {
            if (!p.ok)
                std::cerr << p.label << ": " << p.error << '\n';
        }
        bench::finishObs(args, reports);
        return 1;
    }

    printSeries("interpreter", interp);
    printSeries("jit", jit);
    std::cout << "sweep: " << fixed(result.wallSeconds, 2) << "s, "
              << result.jobs << " jobs, "
              << result.traces.recordings << " recordings, "
              << result.traces.diskLoads << " disk loads\n";

    if (!args.json.empty())
        result.writeJson(args.json);

    if (args.compareSerial) {
        const WorkloadInfo *db = findWorkload("db");
        const auto legacy = runLegacyBaseline(*db);
        const bool same = identical(legacy.first, interp)
            && identical(legacy.second, jit);
        std::cout << "\nlegacy TimeSeriesCacheSink curves "
                     "bit-identical: "
                  << (same ? "yes" : "NO") << '\n';
        if (!same) {
            bench::finishObs(args, reports);
            return 1;
        }
    }
    bench::finishObs(args, reports);
    return 0;
}
