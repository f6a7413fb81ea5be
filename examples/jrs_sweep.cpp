/**
 * @file
 * jrs_sweep — run a named experiment grid on the sweep engine.
 *
 *   jrs_sweep <grid> [options]
 *   jrs_sweep --list
 *
 *   --jobs N           worker threads (default: hardware concurrency)
 *   --json FILE        write the SweepResult as JSON
 *   --quiet            suppress the per-point table
 *   --progress         live progress line on stderr (points and
 *                      groups done, VM runs so far)
 *   --metrics-json F   write a jrs-metrics-v1 registry snapshot
 *   --trace-json F     write Chrome trace-event JSON of the sweep
 *                      (worker lanes; open in Perfetto)
 *   --perf-json F      write a jrs-perf-report-v1 attribution report
 *                      (per-method CPI stacks, miss/mispredict
 *                      profiles) per trace group
 *   --cct-json F       write a jrs-cct-v1 calling-context tree per
 *   --flame F          trace group, and/or its folded stacks
 *   --sample-json F    write a jrs-sample-v1 sampled profile per trace
 *                      group (--sample-period/--sample-seed select the
 *                      sampling knobs)
 *                      Every profiler asked for rides one pipeline fed
 *                      by the group's VM run, without perturbing the
 *                      sweep's own metrics.
 *   --collector C      run every stream under collector C (nogc,
 *                      marksweep, copying); changes stream identity
 *   --heap-bytes N     heap capacity override (k/m/g suffixes OK)
 *   --gc-budget N      collect every N allocated bytes
 *   --gc-every N       collect every N allocations (stress)
 *   --shared-code-cache  translate once per compatibility key across
 *                      all sweep workers (vm/jit/shared_cache.h);
 *                      streams and metrics are bit-identical to
 *                      private translation, only host-side translate
 *                      work is saved
 *   --compare-serial   after the sweep, re-run the grid serially
 *                      (jobs=1, private translation) and fail unless
 *                      every point's events and metrics match
 *                      bit-for-bit
 *
 * Examples:
 *   jrs_sweep fig07 --jobs 8 --progress
 *   jrs_sweep all --json sweep.json
 *   jrs_sweep fig04 --jobs 4 --trace-json fig04.trace.json
 *   jrs_sweep fig09 --perf-json fig09.perf.json
 *   jrs_sweep code_cache --jobs 8 --shared-code-cache --compare-serial
 */
#include <cstdlib>
#include <exception>
#include <iostream>

#include "obs/cli.h"
#include "obs/obs.h"
#include "support/statistics.h"
#include "sweep/grids.h"
#include "sweep/observers.h"

using namespace jrs;

namespace {

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg != nullptr)
        std::cerr << "error: " << msg << "\n\n";
    std::cerr << "usage: jrs_sweep <grid> [--jobs N] [--json FILE]"
                 " [--quiet] [--progress]"
                 " [--compare-serial]"
              << obs::GcCli::usageText()
              << obs::CodeCacheCli::usageText()
              << obs::ObsCli::usageText()
              << "\n       jrs_sweep --list\n\ngrids:\n";
    for (const sweep::NamedGrid &g : sweep::allGrids())
        std::cerr << "  " << g.name << " — " << g.description << '\n';
    std::exit(2);
}

} // namespace

int
toolMain(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string first = argv[1];
    if (first == "--list") {
        if (argc > 2)
            usage("--list takes no further arguments");
        for (const sweep::NamedGrid &g : sweep::allGrids())
            std::cout << g.name << " — " << g.description << '\n';
        return 0;
    }
    const sweep::NamedGrid *grid = sweep::findGrid(first);
    if (grid == nullptr)
        usage("unknown grid");

    sweep::SweepOptions opts;
    std::string jsonPath;
    obs::ObsCli cli;
    obs::GcCli gcCli;
    obs::CodeCacheCli ccCli;
    bool quiet = false;
    bool progress = false;
    bool compareSerial = false;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (a == "--jobs") {
            const std::string v = next();
            char *end = nullptr;
            opts.jobs = static_cast<unsigned>(
                std::strtoul(v.c_str(), &end, 10));
            if (end == v.c_str() || *end != '\0')
                usage("--jobs expects a number");
        } else if (a == "--json") {
            jsonPath = next();
        } else if (a == "--quiet") {
            quiet = true;
        } else if (a == "--progress") {
            progress = true;
        } else if (a == "--compare-serial") {
            compareSerial = true;
        } else if (cli.tryParse(a, next)
                   || gcCli.tryParse(a, next)
                   || ccCli.tryParse(a, next)) {
            continue;
        } else {
            usage("unknown option");
        }
    }

    cli.setup();
    obs::ObsReports reports;
    sweep::attachObservers(opts, cli, reports);
    if (progress) {
        opts.onProgress = [](const sweep::SweepProgress &p) {
            std::cerr << '\r' << p.pointsDone << '/' << p.pointsTotal
                      << " points (groups " << p.groupsDone << '/'
                      << p.groupsTotal << ", " << p.traces.recordings
                      << " rec)" << std::flush;
            if (p.groupsDone == p.groupsTotal)
                std::cerr << '\n';
        };
    }

    if (ccCli.sharedCodeCache)
        opts.sharedCache = std::make_shared<SharedCodeCache>();

    sweep::SweepEngine engine(opts);
    std::vector<sweep::SweepPoint> points = grid->build();
    // Collector flags override every point's stream identity (grids
    // that bake their own GC configuration, like `gc`, are left alone
    // unless the user asks otherwise).
    for (sweep::SweepPoint &p : points) {
        if (gcCli.heapBytes != kDefaultHeapBytes)
            p.key.heapBytes = gcCli.heapBytes;
        if (gcCli.enabled() || gcCli.gc.budgetBytes != 0
            || gcCli.gc.everyNAllocs != 0) {
            p.key.gc = gcCli.gc;
        }
        if (ccCli.bounded())
            p.key.codeCache = ccCli.codeCache;
        if (ccCli.codeCache.strategy != AllocStrategy::kFirstFit)
            p.key.codeCache.strategy = ccCli.codeCache.strategy;
        if (ccCli.osrBackEdgeThreshold != 0)
            p.key.osrBackEdgeThreshold = ccCli.osrBackEdgeThreshold;
    }
    const sweep::SweepResult result = engine.run(points);

    if (!quiet)
        result.toTable().print(std::cout);
    std::cout << grid->name << ": " << result.points.size()
              << " points in " << fixed(result.wallSeconds, 2)
              << "s on " << result.jobs << " jobs ("
              << result.traces.recordings << " recordings)\n";
    if (result.sharedCacheUsed) {
        std::cout << "shared code cache: "
                  << result.shared.sharedHits << " hits, "
                  << result.shared.misses << " builds, "
                  << result.shared.contended << " contended; built "
                  << withCommas(result.shared.buildNs) << " ns, saved "
                  << withCommas(result.shared.buildNsSaved) << " ns\n";
    }

    bool comparisonOk = true;
    if (compareSerial) {
        // Reference run: one worker and private translation. Any
        // difference from the sweep above is a determinism bug.
        sweep::SweepOptions serialOpts;
        serialOpts.jobs = 1;
        sweep::SweepEngine serialEngine(serialOpts);
        const sweep::SweepResult serial = serialEngine.run(points);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < result.points.size(); ++i) {
            const sweep::PointResult &a = result.points[i];
            const sweep::PointResult &b = serial.points[i];
            std::string why;
            if (a.ok != b.ok) {
                why = "ok flag differs";
            } else if (a.traceEvents != b.traceEvents) {
                why = "trace events differ: "
                    + std::to_string(a.traceEvents) + " vs "
                    + std::to_string(b.traceEvents);
            } else if (a.metrics.size() != b.metrics.size()) {
                why = "metric count differs";
            } else {
                for (std::size_t m = 0; m < a.metrics.size(); ++m) {
                    if (a.metrics[m].name != b.metrics[m].name
                        || a.metrics[m].value != b.metrics[m].value) {
                        why = "metric " + a.metrics[m].name
                            + " differs";
                        break;
                    }
                }
            }
            if (!why.empty()) {
                ++mismatches;
                if (mismatches <= 10)
                    std::cerr << "MISMATCH " << a.label << ": " << why
                              << '\n';
            }
        }
        comparisonOk = mismatches == 0;
        std::cout << "compare-serial: "
                  << (comparisonOk
                          ? "all " + std::to_string(
                                result.points.size())
                              + " points bit-identical"
                          : std::to_string(mismatches)
                              + " points MISMATCHED")
                  << '\n';
    }
    if (!jsonPath.empty()) {
        result.writeJson(jsonPath);
        std::cout << "wrote " << jsonPath << '\n';
    }
    cli.finish(std::cout);
    cli.writeReports(reports, std::cout);
    return result.allOk() && comparisonOk ? 0 : 1;
}

int
main(int argc, char **argv)
{
    try {
        return toolMain(argc, argv);
    } catch (const std::exception &e) {
        // A report file that cannot be written, or a VM fault: report
        // it rather than terminate.
        std::cerr << "jrs_sweep: " << e.what() << '\n';
        return 1;
    }
}
