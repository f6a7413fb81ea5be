/**
 * @file
 * Shared helpers for the bench binaries that regenerate the paper's
 * tables and figures.
 */
#ifndef JRS_BENCH_BENCH_UTIL_H
#define JRS_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdlib>
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

/** Command-line options shared by the sweep-engine bench ports. */
struct SweepBenchArgs {
    unsigned jobs = 0;        ///< 0 = hardware concurrency
    std::string json;         ///< --json: write the SweepResult
    std::string cacheDir;     ///< --cache-dir: on-disk trace cache
    bool compareSerial = false;  ///< --compare-serial
    obs::ObsCli obs;          ///< --metrics/trace/perf-json (obs/cli.h)
};

/** Parse the flags above; exits with usage on unknown arguments. */
inline SweepBenchArgs
parseSweepBenchArgs(int argc, char **argv)
{
    SweepBenchArgs out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "error: " << a << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--jobs") {
            const std::string v = next();
            char *end = nullptr;
            out.jobs = static_cast<unsigned>(
                std::strtoul(v.c_str(), &end, 10));
            if (end == v.c_str() || *end != '\0') {
                std::cerr << "error: --jobs expects a number\n";
                std::exit(2);
            }
        } else if (a == "--json") {
            out.json = next();
        } else if (a == "--cache-dir") {
            out.cacheDir = next();
        } else if (a == "--compare-serial") {
            out.compareSerial = true;
        } else if (out.obs.tryParse(a, next)) {
            continue;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--jobs N] [--json FILE] [--cache-dir DIR]"
                         " [--compare-serial]"
                      << obs::ObsCli::usageText() << '\n';
            std::exit(2);
        }
    }
    return out;
}

/**
 * Parse a bench command line that takes only the observability output
 * flags (benches that run live, off the sweep engine); exits with
 * usage on anything else.
 */
inline obs::ObsCli
parseObsArgs(int argc, char **argv)
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
        if (!cli.tryParse(a, next)) {
            std::cerr << "usage: " << argv[0]
                      << obs::ObsCli::usageText() << '\n';
            std::exit(2);
        }
    }
    return cli;
}

/** Enable observability when an output file was requested. */
inline void
setupObs(const SweepBenchArgs &args)
{
    args.obs.setup();
}

/**
 * Write the requested observability files. Call on every exit path
 * after the sweep ran (including early failure returns, so a partial
 * run still leaves its metrics behind for diagnosis). @p reports is
 * what sweep::attachObservers collected.
 */
inline void
finishObs(const SweepBenchArgs &args, const obs::ObsReports &reports)
{
    args.obs.finish(std::cout);
    args.obs.writeReports(reports, std::cout);
}

} // namespace jrs::bench

#endif // JRS_BENCH_BENCH_UTIL_H
