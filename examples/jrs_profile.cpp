/**
 * @file
 * jrs_profile — hot-method attribution for one workload run.
 *
 * Runs a workload and joins its phase-tagged native stream, as the VM
 * emits it, with a method map that follows the run (bytecode ranges
 * + JIT code-cache ranges as they are installed and evicted), then
 * prints the top-N methods by simulated native instructions for every
 * execution phase. This is the paper's phase accounting with the
 * "which method?" dimension added.
 *
 *   jrs_profile <workload> [options]
 *
 *   --mode interp|jit|counter:N  execution mode (default: jit)
 *   --arg N                      workload argument (default: smallArg)
 *   --tiny                       use the workload's tinyArg instead
 *   --top N                      rows per phase table (default: 10)
 *   --json FILE                  machine-readable per-phase top-N
 *                                tables (schema "jrs-profile-v1")
 *   --metrics-json FILE          write a jrs-metrics-v1 snapshot
 *   --trace-json FILE            write Chrome trace-event JSON
 *                                (open in Perfetto / chrome://tracing)
 *   --perf-json FILE             feed the stream to a perf-attribution
 *                                pipeline and write a
 *                                jrs-perf-report-v1 report (per-method
 *                                CPI stacks, miss/mispredict profiles)
 *   --cct-json FILE              jrs-cct-v1 calling-context tree
 *   --flame FILE                 folded stacks (flamegraph.pl input)
 *   --sample-json FILE           jrs-sample-v1 sampled profile
 *   --sample-period N            mean cycles between samples
 *   --sample-seed N              sampling PRNG seed
 *   --calibrate                  run both the exact and the sampled
 *                                profiler and print a per-method
 *                                sampled-vs-exact error table (share
 *                                error, top-N overlap, rank agreement)
 *   --collector/--heap-bytes/... collector knobs (see GcCli)
 *
 * Differential flamegraphs (two runs of the same workload):
 *
 *   --diff-mode MODE             second run in MODE (e.g. interp)
 *   --diff-collector NAME        second run under collector NAME
 *   --flame-diff FILE            difffolded output "stack valA valB"
 *                                (render: flamegraph.pl --negate)
 *
 * Examples:
 *   jrs_profile compress
 *   jrs_profile jess --mode counter:500 --top 5
 *   jrs_profile compress --flame compress.folded
 *   jrs_profile compress --calibrate --sample-period 1024
 *   jrs_profile db --mode jit --diff-mode interp --flame-diff d.folded
 *   jrs_profile db --diff-collector marksweep --flame-diff gc.folded
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "arch/pipeline/pipeline.h"
#include "obs/attribution.h"
#include "obs/cli.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/perf.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "support/statistics.h"
#include "vm/engine/engine.h"
#include "vm/engine/policy.h"
#include "workloads/workload.h"

using namespace jrs;

namespace {

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg != nullptr)
        std::cerr << "error: " << msg << "\n\n";
    std::cerr << "usage: jrs_profile <workload>"
                 " [--mode interp|jit|counter:N] [--arg N] [--tiny]"
                 " [--top N] [--json FILE]"
              << obs::ObsCli::usageText()
              << obs::GcCli::usageText()
              << "\n       [--diff-mode MODE] [--diff-collector NAME]"
                 " [--flame-diff FILE] [--calibrate]\n\nworkloads:\n";
    for (const WorkloadInfo &w : allWorkloads())
        std::cerr << "  " << w.name << " — " << w.description << '\n';
    std::exit(2);
}

std::shared_ptr<CompilationPolicy>
parseMode(const std::string &mode)
{
    if (mode == "interp")
        return std::make_shared<NeverCompilePolicy>();
    if (mode == "jit")
        return std::make_shared<AlwaysCompilePolicy>();
    if (mode.rfind("counter:", 0) == 0) {
        const std::string v = mode.substr(8);
        char *end = nullptr;
        const unsigned long n = std::strtoul(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0')
            usage("counter mode expects counter:N");
        return std::make_shared<CounterPolicy>(
            static_cast<std::uint64_t>(n));
    }
    usage("unknown --mode (expect interp, jit, or counter:N)");
}

long
parseLong(const std::string &v, const char *what)
{
    char *end = nullptr;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0') {
        std::cerr << "error: " << what << " expects a number\n";
        std::exit(2);
    }
    return n;
}

using obs::jsonEscape;

/** One run and the method map that follows it. */
struct Observed {
    std::string label;
    Program prog;
    std::shared_ptr<obs::MethodMap> map;
    RunResult res;
};

/** Build @p w's program and the map that will follow its run. */
Observed
prepare(const WorkloadInfo *w, const std::string &mode,
        const obs::GcCli &gcCli)
{
    Observed r;
    r.label = std::string(w->name) + "/" + mode;
    if (gcCli.enabled())
        r.label += std::string("/") + gc::collectorName(
            gcCli.gc.collector);
    r.prog = w->build();
    r.map = std::make_shared<obs::MethodMap>(
        obs::MethodMap::follow(r.prog));
    return r;
}

/** Run @p r feeding @p sink; exits non-zero on an incomplete run. */
void
run(Observed &r, const WorkloadInfo *w, const std::string &mode,
    std::int32_t arg, const obs::GcCli &gcCli, TraceSink &sink)
{
    EngineConfig cfg;
    cfg.policy = parseMode(mode);
    cfg.sink = &sink;
    cfg.codeObserver = r.map.get();
    gcCli.apply(cfg);
    ExecutionEngine engine(r.prog, cfg);
    r.res = engine.run(arg);
    if (!r.res.completed) {
        std::cerr << w->name << " did not complete: "
                  << (r.res.uncaughtException != nullptr
                          ? r.res.uncaughtException
                          : "unknown")
                  << '\n';
        std::exit(1);
    }
}

} // namespace

int
toolMain(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const WorkloadInfo *w = findWorkload(argv[1]);
    if (w == nullptr)
        usage("unknown workload");

    std::string mode = "jit";
    std::int32_t arg = w->smallArg;
    std::size_t topN = 10;
    std::string jsonPath;
    std::string diffMode;
    std::string diffCollector;
    std::string flameDiff;
    bool calibrateRequested = false;
    obs::ObsCli cli;
    obs::GcCli gcCli;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (a == "--mode") {
            mode = next();
        } else if (a == "--arg") {
            arg = static_cast<std::int32_t>(parseLong(next(), "--arg"));
        } else if (a == "--tiny") {
            arg = w->tinyArg;
        } else if (a == "--top") {
            topN = static_cast<std::size_t>(parseLong(next(), "--top"));
        } else if (a == "--json") {
            jsonPath = next();
        } else if (a == "--diff-mode") {
            diffMode = next();
        } else if (a == "--diff-collector") {
            diffCollector = next();
        } else if (a == "--flame-diff") {
            flameDiff = next();
        } else if (a == "--calibrate") {
            calibrateRequested = true;
        } else if (cli.tryParse(a, next)) {
            continue;
        } else if (gcCli.tryParse(a, next)) {
            continue;
        } else {
            usage("unknown option");
        }
    }
    const bool diffRequested = !diffMode.empty()
        || !diffCollector.empty();
    if (!flameDiff.empty() && !diffRequested)
        usage("--flame-diff needs --diff-mode or --diff-collector");
    if (diffRequested && flameDiff.empty())
        usage("--diff-mode/--diff-collector need --flame-diff FILE");

    cli.setup();

    // One live run feeds every profiler asked for: the perf pass, the
    // CCT (also for --flame-diff and --calibrate) and the sampler (also
    // for --calibrate) all ride one pipeline, and each must conserve
    // its cycles. The per-phase method tables read the perf pass's
    // cells; without --perf-json a perf pass fed straight from the
    // stream (no model) counts them.
    Observed base = prepare(w, mode, gcCli);
    obs::PerfOptions popt;
    popt.program = &base.prog;
    obs::Observers profs = cli.observers(*base.map, popt);
    if (profs.cct == nullptr && (calibrateRequested || diffRequested))
        profs.cct = std::make_unique<prof::CctBuilder>(*base.map);
    if (profs.sampler == nullptr && calibrateRequested)
        profs.sampler = std::make_unique<prof::SamplingProfiler>(
            *base.map, cli.sampleOptions());
    PipelineSim pipe{PipelineConfig{}};
    profs.attachTo(pipe);
    MultiSink sinks;
    std::unique_ptr<obs::PerfAttribution> streamPerf;
    if (profs.perf == nullptr) {
        streamPerf = std::make_unique<obs::PerfAttribution>(*base.map);
        sinks.add(streamPerf.get());
    }
    if (profs.perf != nullptr || profs.cct != nullptr
        || profs.sampler != nullptr)
        sinks.add(&pipe);
    run(base, w, mode, arg, gcCli, sinks);
    const obs::PerfAttribution &attr =
        profs.perf != nullptr ? *profs.perf : *streamPerf;

    std::cout << w->name << " --mode " << mode << " --arg " << arg
              << ": exit=" << base.res.exitValue << ", "
              << withCommas(base.res.totalEvents)
              << " simulated native instructions, "
              << base.res.methodsCompiled << " methods compiled\n";
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        const std::uint64_t events = attr.phaseCell(phase).insts;
        if (events == 0)
            continue;
        std::cout << '\n'
                  << phaseName(phase) << " — " << withCommas(events)
                  << " events ("
                  << fixed(100.0 * static_cast<double>(events)
                               / static_cast<double>(
                                     base.res.totalEvents),
                           1)
                  << "% of run)\n";
        attr.topTable(phase, topN).print(std::cout);
    }

    if (!jsonPath.empty()) {
        // The satellite view: the per-phase tables above, verbatim,
        // as one machine-readable document.
        std::ostringstream f;
        f << "{\n  \"schema\": \"jrs-profile-v1\",\n";
        f << "  \"workload\": \"" << w->name << "\",\n";
        f << "  \"mode\": \"" << jsonEscape(mode) << "\",\n";
        f << "  \"arg\": " << arg << ",\n";
        f << "  \"exit\": " << base.res.exitValue << ",\n";
        f << "  \"total_events\": " << base.res.totalEvents << ",\n";
        f << "  \"methods_compiled\": " << base.res.methodsCompiled
          << ",\n";
        f << "  \"phases\": [\n";
        bool firstPhase = true;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            const Phase phase = static_cast<Phase>(p);
            const std::uint64_t events = attr.phaseCell(phase).insts;
            if (events == 0)
                continue;
            if (!firstPhase)
                f << ",\n";
            firstPhase = false;
            f << "    {\"phase\": \"" << phaseName(phase)
              << "\", \"events\": " << events << ", \"top\": [\n";
            const auto rows = attr.top(phase, topN);
            for (std::size_t r = 0; r < rows.size(); ++r) {
                f << "      {\"method\": \""
                  << jsonEscape(rows[r].name)
                  << "\", \"events\": " << rows[r].events
                  << ", \"pct\": " << fixed(rows[r].pct, 4) << '}'
                  << (r + 1 < rows.size() ? ",\n" : "\n");
            }
            f << "    ]}";
        }
        f << "\n  ]\n}\n";
        obs::writeTextFile(jsonPath, f.str(), "profile JSON");
        std::cout << "\nwrote " << jsonPath << '\n';
    }

    if (!profs.conserves(pipe.cycles(), std::cerr))
        return 1;
    obs::ObsReports reports;
    profs.addTo(reports, base.label);

    if (profs.perf != nullptr) {
        std::cout << '\n';
        cli.write(reports.perf, cli.perfJson, std::cout);
    }
    cli.write(reports.cct, cli.cctJson, std::cout, cli.flame);

    if (diffRequested) {
        obs::GcCli diffGc = gcCli;
        if (!diffCollector.empty()
            && !gc::parseCollector(diffCollector,
                                   &diffGc.gc.collector)) {
            std::cerr << "error: unknown --diff-collector '"
                      << diffCollector << "'\n";
            return 2;
        }
        const std::string otherMode = diffMode.empty() ? mode : diffMode;
        Observed other = prepare(w, otherMode, diffGc);
        prof::CctPipeline otherCct(PipelineConfig{}, other.map);
        run(other, w, otherMode, arg, diffGc, otherCct);
        obs::writeTextFile(flameDiff,
                           prof::foldedDiff(profs.cct->foldedLines(),
                                            otherCct.cct().foldedLines()),
                           "folded diff");
        std::cout << "wrote " << flameDiff << " (" << base.label
                  << " vs " << other.label << ")\n";
    }

    if (profs.sampler != nullptr) {
        const prof::SamplingProfiler &sampler = *profs.sampler;
        std::cout << "\nsampled profile: "
                  << withCommas(sampler.samples()) << " samples (period "
                  << sampler.options().period << ", seed "
                  << sampler.options().seed << ")\n";
        if (calibrateRequested) {
            // Ground truth: the exact profiler rode the same pipeline.
            const prof::CalibrationReport rep =
                prof::calibrate(*profs.cct, sampler, topN);
            std::cout << "\nsampled vs exact (per-method "
                      << rep.value << " shares):\n"
                      << rep.text(topN);
        }
        cli.write(reports.sample, cli.sampleJson, std::cout);
    }
    cli.finish(std::cout);
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        return toolMain(argc, argv);
    } catch (const std::exception &e) {
        // A report file that cannot be written, or a VM fault: report
        // it rather than terminate.
        std::cerr << "jrs_profile: " << e.what() << '\n';
        return 1;
    }
}
