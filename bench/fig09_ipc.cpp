/**
 * @file
 * Figure 9: instruction execution rate (IPC) on the out-of-order
 * superscalar model at issue widths 1, 2, 4 and 8, per workload and
 * mode.
 *
 * To reproduce: interpreter IPC is HIGHER than JIT IPC at small
 * widths (better caches, unoptimized code with exploitable overlap),
 * but its scaling flattens at wide issue because fetch re-serializes
 * on the poorly-predicted dispatch indirect jump once per bytecode.
 *
 * `--perf-json FILE` additionally feeds each run, live, to a
 * perf-attribution pipeline (default config, issue width 4) that names
 * methods through a map following the run, and writes per-method CPI
 * stacks per (workload, mode). Without the flag no observer rides the
 * run. A report that cannot be written exits 1 with
 * "fig09_ipc: <message>".
 */
#include "arch/pipeline/pipeline.h"
#include "bench_util.h"

using namespace jrs;

namespace {

int
run(int argc, char **argv)
{
    const obs::ObsCli cli = bench::parseObsArgs(argc, argv);
    cli.setup();

    bench::header(
        "Figure 9 — IPC vs issue width (OOO model)",
        "interp IPC > jit IPC at narrow issue; interp scaling "
        "flattens at wide issue (indirect dispatch)");

    const std::uint32_t widths[] = {1, 2, 4, 8};

    Table t({"workload", "mode", "ipc_w1", "ipc_w2", "ipc_w4",
             "ipc_w8", "scaling_w8/w1"});

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
            std::unique_ptr<obs::AttributedPipeline> attributed;
            AttachFn attach;
            if (cli.perfRequested()) {
                attach = [&](const std::shared_ptr<const obs::MethodMap>
                                 &map) -> TraceSink * {
                    attributed = std::make_unique<obs::AttributedPipeline>(
                        PipelineConfig{}, map);
                    return attributed.get();
                };
            }
            (void)runWorkload(s, attach);
            if (attributed != nullptr)
                reports.perf.add(std::string("fig09/") + w->name + "/"
                                     + (jit ? "jit" : "interp"),
                                 attributed->perf());
            t.addRow({
                w->name,
                jit ? "jit" : "interp",
                fixed(sims[0]->ipc(), 2),
                fixed(sims[1]->ipc(), 2),
                fixed(sims[2]->ipc(), 2),
                fixed(sims[3]->ipc(), 2),
                fixed(sims[3]->ipc() / sims[0]->ipc(), 2),
            });
        }
    }
    t.print(std::cout);
    cli.write(reports.perf, cli.perfJson, std::cout);
    cli.finish(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argv[0], [&] { return run(argc, argv); });
}
