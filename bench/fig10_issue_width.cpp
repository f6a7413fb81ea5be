/**
 * @file
 * Figure 10: execution time (cycles) normalized to the 1-wide CPU, at
 * issue widths 1, 2, 4 and 8, per workload and mode.
 *
 * The companion view of Figure 9: since the instruction count per
 * mode is fixed, normalized time is the inverse of IPC scaling. To
 * reproduce: JIT-mode normalized time keeps improving at wide issue
 * for most programs, while interpreter-mode curves level off.
 *
 * `--perf-json FILE` additionally records each run's stream and
 * replays it through a perf-attribution pipeline (default config),
 * writing per-method CPI stacks per (workload, mode); without the
 * flag the bench runs exactly as before.
 */
#include "arch/pipeline/pipeline.h"
#include "bench_util.h"

using namespace jrs;

int
main(int argc, char **argv)
{
    const obs::ObsCli cli = bench::parseObsArgs(argc, argv);
    cli.setup();

    bench::header(
        "Figure 10 — normalized execution cycles vs issue width",
        "interpreter improvement flattens with wider issue; JIT "
        "continues to gain");

    const std::uint32_t widths[] = {1, 2, 4, 8};

    Table t({"workload", "mode", "w1", "w2", "w4", "w8",
             "cycles_w1"});

    obs::ObsReports reports;
    for (const WorkloadInfo *w : bench::suite(true)) {
        for (const bool jit : {false, true}) {
            std::vector<std::unique_ptr<PipelineSim>> sims;
            MultiSink multi;
            for (std::uint32_t wd : widths) {
                PipelineConfig cfg;
                cfg.issueWidth = wd;
                sims.push_back(std::make_unique<PipelineSim>(cfg));
                multi.add(sims.back().get());
            }
            RunSpec s;
            s.workload = w;
            s.policy = jit
                ? std::static_pointer_cast<CompilationPolicy>(
                      std::make_shared<AlwaysCompilePolicy>())
                : std::static_pointer_cast<CompilationPolicy>(
                      std::make_shared<NeverCompilePolicy>());
            s.sink = &multi;
            if (cli.perfRequested()) {
                const RecordedRun rec = recordWorkload(s);
                obs::AttributedPipeline attributed(PipelineConfig{},
                                                   rec.methods);
                rec.trace->replay(attributed);
                reports.perf.add(std::string("fig10/") + w->name + "/"
                                     + (jit ? "jit" : "interp"),
                                 attributed.perf());
            } else {
                (void)runWorkload(s);
            }
            const double base = static_cast<double>(sims[0]->cycles());
            t.addRow({
                w->name,
                jit ? "jit" : "interp",
                "1.000",
                fixed(static_cast<double>(sims[1]->cycles()) / base, 3),
                fixed(static_cast<double>(sims[2]->cycles()) / base, 3),
                fixed(static_cast<double>(sims[3]->cycles()) / base, 3),
                withCommas(sims[0]->cycles()),
            });
        }
    }
    t.print(std::cout);
    cli.write(reports.perf, cli.perfJson, std::cout);
    cli.finish(std::cout);
    return 0;
}
