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
 * Runs on the sweep engine (`--jobs N`, `--json FILE`): each mode's
 * stream feeds, live, an attributed split L1 whose IntervalTimeline
 * (obs/perf.h) provides the windowed sampling. The window is sized to
 * ~40 samples of the stream, so each point first counts its stream
 * with an unobserved VM run. `--compare-serial` checks both points'
 * events and curve totals against the serial reference
 * (sweep/serial_reference.h); Perf.TimelineMatchesTimeSeriesCacheSink
 * holds the windowed curves to the hand-rolled TimeSeriesCacheSink.
 */
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
    const sweep::TraceKey key = sweep::traceKey(
        "db", jit ? sweep::ExecMode::jit() : sweep::ExecMode::interp());
    return sweep::makePoint<obs::AttributedCaches>(
        std::string("fig06/db/") + (jit ? "jit" : "interp"), key,
        [key](const RecordedRun &run) {
            obs::PerfOptions popt;
            popt.timelineWindow = std::max<std::uint64_t>(
                1, runWorkload(key.toRunSpec()).totalEvents
                       / kTargetWindows);
            return std::make_unique<obs::AttributedCaches>(
                kIcfg, kDcfg, run.methods, popt);
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

} // namespace

int
main(int argc, char **argv)
{
    Curve interp, jit;
    return bench::sweepMain(
        argc, argv,
        {"Figure 6 — db miss-rate timeline, interp vs JIT",
         "interp: initial spike, then flat; JIT: clustered translation "
         "spikes of write misses",
         {timelinePoint(false, &interp), timelinePoint(true, &jit)},
         [&](const sweep::SweepResult &) {
             printSeries("interpreter", interp);
             printSeries("jit", jit);
         }});
}
