/**
 * @file
 * Shared helpers for the bench binaries that regenerate the paper's
 * tables and figures.
 */
#ifndef JRS_BENCH_BENCH_UTIL_H
#define JRS_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "obs/cli.h"
#include "obs/obs.h"
#include "obs/perf.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "support/statistics.h"
#include "support/table.h"
#include "sweep/observers.h"
#include "sweep/serial_reference.h"
#include "vm/runtime/vm_error.h"

namespace jrs::bench {

/**
 * The SpecJVM98-like bench suite, in the paper's presentation order.
 *
 * @param include_hello When false (the default), the `hello` program
 *   is excluded: it is the system-init archetype — tiny methods run
 *   once — and carries no steady-state signal, so most figures skip
 *   it just as the paper reports SpecJVM98 programs only. Pass true
 *   for experiments where startup behaviour is the point (e.g. the
 *   Figure 8 line-size sweep, which shows hello's short methods
 *   preferring small lines).
 *
 * The two variants are built once and memoized in function-local
 * statics, whose initialization C++11 guarantees is thread-safe: the
 * first caller (on any thread) builds each vector exactly once, and
 * concurrent first calls — e.g. sweep workers constructing grids —
 * block until it is ready. Callers get a reference to a
 * process-lifetime vector, so the per-call vector rebuild (and the
 * dangling-reference hazard of binding a temporary) is gone.
 */
inline const std::vector<const WorkloadInfo *> &
suite(bool include_hello = false)
{
    const auto build = [](bool with_hello) {
        std::vector<const WorkloadInfo *> out;
        for (const WorkloadInfo &w : allWorkloads()) {
            if (!with_hello && std::string(w.name) == "hello")
                continue;
            out.push_back(&w);
        }
        return out;
    };
    static const std::vector<const WorkloadInfo *> kWithHello =
        build(true);
    static const std::vector<const WorkloadInfo *> kWithoutHello =
        build(false);
    return include_hello ? kWithHello : kWithoutHello;
}

/** Print a standard bench header. */
inline void
header(const char *experiment, const char *paper_note)
{
    std::cout << "==================================================="
                 "===========================\n"
              << experiment << '\n'
              << "paper: " << paper_note << '\n'
              << "==================================================="
                 "===========================\n";
}

/**
 * Parse a bench command line: the observability output flags, plus
 * whatever @p extra consumes (called as extra(arg, next), true when it
 * took the flag); exits with usage, naming @p extra_usage, on anything
 * else.
 */
template <class ExtraFn>
obs::ObsCli
parseBenchArgs(int argc, char **argv, const char *extra_usage,
               ExtraFn &&extra)
{
    obs::ObsCli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "error: " << a << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (!extra(a, next) && !cli.tryParse(a, next)) {
            std::cerr << "usage: " << argv[0] << extra_usage
                      << obs::ObsCli::usageText() << '\n';
            std::exit(2);
        }
    }
    return cli;
}

/**
 * Parse a bench command line that takes only the observability output
 * flags (benches that run live, off the sweep engine).
 */
inline obs::ObsCli
parseObsArgs(int argc, char **argv)
{
    return parseBenchArgs(argc, argv, "",
                          [](const std::string &, auto &) {
                              return false;
                          });
}

/**
 * Run a bench's @p body; an exception that escapes it (a report file
 * that cannot be written, a VM fault) prints "<bench>: <message>" and
 * exits 1 rather than terminate.
 */
template <class Body>
int
guardedMain(const char *argv0, Body &&body)
{
    try {
        return body();
    } catch (const std::exception &e) {
        const std::string path = argv0;
        std::cerr << path.substr(path.find_last_of('/') + 1) << ": "
                  << e.what() << '\n';
        return 1;
    }
}

/** What a sweep bench hands sweepMain: everything but the driver. */
struct SweepBench {
    const char *title;      ///< header line
    const char *paperNote;  ///< the paper's claim, under the title
    std::vector<sweep::SweepPoint> grid;
    /** Print the figure from the finished, all-ok result. */
    std::function<void(const sweep::SweepResult &)> render;
};

/**
 * The one driver of the sweep benches. Flags: `--jobs N` (0 =
 * hardware concurrency), `--json FILE` (the SweepResult),
 * `--compare-serial` and the ObsCli flags (obs/cli.h); anything else
 * exits 2 with usage. Prints the header, sweeps the grid with the
 * requested profilers riding each group (sweep/observers.h), and then
 * either lists the failed points (exit 1) or renders the figure and a
 * "sweep: ..." footer and writes the JSON. `--compare-serial` then
 * holds the result to the serial reference (sweep/serial_reference.h)
 * and exits 1 on any difference. Observability files are written on
 * every path after the sweep; errors exit 1 through guardedMain.
 */
inline int
sweepMain(int argc, char **argv, const SweepBench &bench)
{
    return guardedMain(argv[0], [&] {
        sweep::SweepOptions opts;
        std::string json;
        bool compareSerial = false;
        const obs::ObsCli cli = parseBenchArgs(
            argc, argv, " [--jobs N] [--json FILE] [--compare-serial]",
            [&](const std::string &a, auto &next) {
                if (a == "--jobs") {
                    const std::string v = next();
                    char *end = nullptr;
                    opts.jobs = static_cast<unsigned>(
                        std::strtoul(v.c_str(), &end, 10));
                    if (end == v.c_str() || *end != '\0') {
                        std::cerr << "error: --jobs expects a number\n";
                        std::exit(2);
                    }
                } else if (a == "--json") {
                    json = next();
                } else if (a == "--compare-serial") {
                    compareSerial = true;
                } else {
                    return false;
                }
                return true;
            });
        cli.setup();
        header(bench.title, bench.paperNote);

        obs::ObsReports reports;
        sweep::attachObservers(opts, cli, reports);
        const sweep::SweepResult result =
            sweep::SweepEngine(opts).run(bench.grid);
        bool ok = result.allOk();
        if (!ok) {
            for (const sweep::PointResult &p : result.points) {
                if (!p.ok)
                    std::cerr << p.label << ": " << p.error << '\n';
            }
        } else {
            bench.render(result);
            std::cout << "sweep: " << fixed(result.wallSeconds, 2)
                      << "s, " << result.jobs << " jobs, "
                      << result.traces.recordings << " VM runs\n";
            if (!json.empty())
                result.writeJson(json);
            if (compareSerial) {
                std::cout << '\n';
                ok = sweep::compareSerial(bench.grid, result, std::cout,
                                          std::cerr);
            }
        }
        cli.finish(std::cout);
        cli.writeReports(reports, std::cout);
        return ok ? 0 : 1;
    });
}

} // namespace jrs::bench

#endif // JRS_BENCH_BENCH_UTIL_H
