/**
 * @file
 * jrs_check — conformance and trace-integrity checking.
 *
 *   jrs_check fuzz --seeds N [--seed-base S] [--jobs N]
 *                  [--kernels K] [--arg A]
 *       Differential-fuzz N generated programs across the interp /
 *       jit / hybrid execution modes. Any divergence prints a
 *       minimized repro; exit 1.
 *
 *   jrs_check diff --all-workloads
 *   jrs_check diff <workload> [--arg N]
 *       Differential-run registered workloads across all modes and
 *       stream-validate their interp and jit traces (per-event
 *       invariants + event-conservation against the run's own
 *       counters). --arg 0 (default) uses each workload's tinyArg.
 *
 *       --collector C    run under collector C: nogc (default),
 *                        marksweep, copying, or all — `all` runs
 *                        every collector AND demands that the
 *                        reachable-heap digests agree across them
 *       --heap-bytes N   heap capacity (k/m/g suffixes OK)
 *       --gc-every N     collect every N allocations; defaults to 64
 *                        when a collector is on and no trigger given
 *       --gc-budget N    collect every N allocated bytes
 *
 *   jrs_check lint-trace <file.jrstrace>
 *       Validate a JRSTRACE stream (e.g. one `jrs_run --trace-out`
 *       wrote): header, record decode and every per-event invariant.
 *
 * Examples:
 *   jrs_check fuzz --seeds 500 --jobs 8
 *   jrs_check diff --all-workloads
 *   jrs_check lint-trace compress.jrstrace
 */
#include <cstdlib>
#include <iostream>

#include "check/differential.h"
#include "check/fuzz.h"
#include "check/invariants.h"
#include "obs/cli.h"
#include "vm/engine/engine.h"

using namespace jrs;

namespace {

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg != nullptr)
        std::cerr << "error: " << msg << "\n\n";
    std::cerr
        << "usage: jrs_check fuzz --seeds N [--seed-base S] [--jobs N]"
           " [--kernels K] [--arg A]\n"
           "       jrs_check diff --all-workloads\n"
           "       jrs_check diff <workload> [--arg N]\n"
           "                 [--collector nogc|marksweep|copying|all]\n"
           "                 [--heap-bytes N] [--gc-every N]"
           " [--gc-budget N]\n"
           "       jrs_check lint-trace <file.jrstrace>\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &v, const char *what)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
        usage(what);
    return n;
}

/**
 * Digest comparison across all modes, then a per-event invariant +
 * conservation pass over the interp and jit streams. @return true
 * when everything holds.
 */
bool
checkOneWorkload(const WorkloadInfo &info, std::int32_t arg,
                 const gc::GcOptions &gcOpts, std::size_t heapBytes,
                 check::VmStateDigest *refOut = nullptr)
{
    check::DifferentialRunner runner;
    runner.gc = gcOpts;
    runner.heapBytes = heapBytes;
    const check::DiffResult r = runner.checkWorkload(info, arg);
    if (refOut != nullptr)
        *refOut = r.reference;
    if (!r.agreed) {
        std::cout << r.report;
        return false;
    }

    bool ok = true;
    for (const check::DiffMode mode :
         {check::DiffMode::Interp, check::DiffMode::Jit}) {
        const Program prog = info.build();
        check::TraceInvariantChecker checker;
        EngineConfig cfg = check::makeDiffConfig(mode, gcOpts,
                                                 heapBytes);
        cfg.sink = &checker;
        ExecutionEngine engine(prog, cfg);
        const RunResult res =
            engine.run(arg != 0 ? arg : info.tinyArg);

        std::string err = checker.report();
        if (err.empty())
            err = check::checkRunConservation(checker, res);
        if (err.empty())
            err = check::checkProfileConservation(res);
        if (!err.empty()) {
            std::cout << info.name << " ["
                      << check::diffModeName(mode) << "/"
                      << gc::collectorName(gcOpts.collector)
                      << "] trace invariants FAILED:\n"
                      << err << "\n";
            ok = false;
        }
    }
    if (ok) {
        std::cout << info.name << " ["
                  << gc::collectorName(gcOpts.collector) << "]: ok ("
                  << r.reference.str() << ")\n";
    }
    return ok;
}

/**
 * The collector configurations `--collector all` runs: each real
 * collector gets the stress trigger so collections actually happen
 * on the tiny diff inputs.
 */
gc::GcOptions
collectorConfig(gc::CollectorKind kind, gc::GcOptions base)
{
    base.collector = kind;
    if (kind != gc::CollectorKind::None && base.budgetBytes == 0
        && base.everyNAllocs == 0) {
        base.everyNAllocs = 64;
    }
    return base;
}

/**
 * One workload under every collector: each must agree across the
 * execution modes, and the reachable-heap digests must agree across
 * the collectors themselves (nogc is the reference).
 */
bool
checkWorkloadAllCollectors(const WorkloadInfo &info, std::int32_t arg,
                           const gc::GcOptions &base,
                           std::size_t heapBytes)
{
    bool ok = true;
    check::VmStateDigest reference;
    bool haveReference = false;
    for (const gc::CollectorKind kind : gc::allCollectorKinds()) {
        const gc::GcOptions opts = collectorConfig(kind, base);
        check::VmStateDigest digest;
        ok = checkOneWorkload(info, arg, opts, heapBytes, &digest)
            && ok;
        if (kind == gc::CollectorKind::None) {
            reference = digest;
            haveReference = true;
            continue;
        }
        if (!haveReference)
            continue;
        const std::string diff = check::describeDigestDiff(
            "nogc", reference, gc::collectorName(kind), digest);
        if (!diff.empty()) {
            std::cout << info.name << " cross-collector:\n" << diff;
            ok = false;
        }
    }
    return ok;
}

int
cmdFuzz(int argc, char **argv)
{
    check::FuzzOptions opts;
    bool seeds_given = false;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (a == "--seeds") {
            opts.numSeeds = static_cast<std::uint32_t>(
                parseU64(next(), "--seeds expects a number"));
            seeds_given = true;
        } else if (a == "--seed-base") {
            opts.seedBase =
                parseU64(next(), "--seed-base expects a number");
        } else if (a == "--jobs") {
            opts.jobs = static_cast<unsigned>(
                parseU64(next(), "--jobs expects a number"));
        } else if (a == "--kernels") {
            opts.gen.numKernels = static_cast<std::uint32_t>(
                parseU64(next(), "--kernels expects a number"));
        } else if (a == "--arg") {
            opts.arg = static_cast<std::int32_t>(
                parseU64(next(), "--arg expects a number"));
        } else {
            usage("unknown fuzz option");
        }
    }
    if (!seeds_given)
        usage("fuzz requires --seeds");

    const check::FuzzReport report = check::runFuzzCampaign(opts);
    std::cout << "fuzz: " << report.summary() << "\n";
    return report.ok() ? 0 : 1;
}

int
cmdDiff(int argc, char **argv)
{
    std::string workload;
    std::int32_t arg = 0;
    bool all = false;
    bool allCollectors = false;
    gc::GcOptions gcOpts;
    std::size_t heapBytes = kDefaultHeapBytes;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (a == "--all-workloads") {
            all = true;
        } else if (a == "--arg") {
            arg = static_cast<std::int32_t>(
                parseU64(next(), "--arg expects a number"));
        } else if (a == "--collector") {
            const std::string v = next();
            if (v == "all") {
                allCollectors = true;
            } else if (!gc::parseCollector(v, &gcOpts.collector)) {
                std::cerr << "error: unknown --collector '" << v
                          << "' (expect nogc, marksweep, copying or"
                             " all)\n";
                return 2;
            }
        } else if (a == "--heap-bytes") {
            heapBytes =
                obs::GcCli::parseSize(next(), "--heap-bytes");
        } else if (a == "--gc-every") {
            gcOpts.everyNAllocs =
                parseU64(next(), "--gc-every expects a number");
        } else if (a == "--gc-budget") {
            gcOpts.budgetBytes =
                obs::GcCli::parseSize(next(), "--gc-budget");
        } else if (!a.empty() && a[0] != '-' && workload.empty()) {
            workload = a;
        } else {
            usage("unknown diff option");
        }
    }
    if (all == !workload.empty())
        usage("diff takes --all-workloads or one workload name");
    if (!allCollectors)
        gcOpts = collectorConfig(gcOpts.collector, gcOpts);

    auto checkOne = [&](const WorkloadInfo &info) {
        return allCollectors
            ? checkWorkloadAllCollectors(info, arg, gcOpts, heapBytes)
            : checkOneWorkload(info, arg, gcOpts, heapBytes);
    };
    bool ok = true;
    if (all) {
        for (const WorkloadInfo &info : allWorkloads())
            ok = checkOne(info) && ok;
    } else {
        const WorkloadInfo *info = findWorkload(workload);
        if (info == nullptr)
            usage("unknown workload");
        ok = checkOne(*info);
    }
    std::cout << (ok ? "diff: all modes agree\n"
                     : "diff: DIVERGENCE\n");
    return ok ? 0 : 1;
}

void
printLint(const std::string &name, const check::LintResult &r)
{
    if (r.ok) {
        std::cout << name << ": ok, " << r.events << " events";
        for (const std::string &n : r.notes)
            std::cout << "; " << n;
        std::cout << "\n";
    } else {
        std::cout << name << ": FAILED: " << r.error << "\n";
    }
}

int
cmdLintTrace(int argc, char **argv)
{
    if (argc != 1 || argv[0][0] == '-')
        usage("lint-trace takes one trace file");
    const check::LintResult r = check::lintTraceFile(argv[0]);
    printLint(argv[0], r);
    return r.ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "fuzz")
            return cmdFuzz(argc - 2, argv + 2);
        if (cmd == "diff")
            return cmdDiff(argc - 2, argv + 2);
        if (cmd == "lint-trace")
            return cmdLintTrace(argc - 2, argv + 2);
    } catch (const std::exception &e) {
        std::cerr << "jrs_check: " << e.what() << "\n";
        return 1;
    }
    usage("unknown command");
}
