/**
 * @file
 * Ablation — sampling-profiler accuracy and overhead vs sample period.
 *
 * The sampler (prof/sampler.h) exists to quantify the statistical
 * profiling tradeoff the paper's exact attribution sidesteps: how
 * wrong is a period-P sampled profile, and how much replay time does
 * sampling save over exact calling-context profiling? This bench
 * records each workload once, replays the stream through (a) a bare
 * pipeline, (b) the exact CCT profiler — ground truth — and (c) the
 * sampling profiler at a ladder of periods, then calibrates every
 * sampled profile against the exact one:
 *
 *   - mean/max per-method cycle-share error (percentage points)
 *   - top-10 hot-method overlap and pairwise rank agreement
 *   - host replay overhead vs the bare pipeline (obs/clock.h)
 *
 * Error should fall and overhead rise as the period shrinks; the
 * curves (tabulated in EXPERIMENTS.md) put numbers on where the knee
 * is. The sampled replay's model is asserted bit-identical to the
 * bare pipeline's — sampling is read-only.
 *
 *   abl_sample_period [--seed N]
 */
#include <cstdlib>
#include <iostream>
#include <string>

#include "arch/pipeline/pipeline.h"
#include "bench_util.h"
#include "harness/experiment.h"
#include "obs/clock.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "support/statistics.h"
#include "support/table.h"
#include "vm/engine/policy.h"
#include "workloads/workload.h"

using namespace jrs;

namespace {

/** Periods swept, hottest sampling first. */
const std::uint64_t kPeriods[] = {256, 1024, 4096, 16384, 65536};

/** Workloads whose streams anchor the curves (one loopy, one ragged). */
const char *const kWorkloads[] = {"compress", "db"};

/** Parse `--seed N` (default 1); exits with usage on anything else. */
std::uint64_t
parseSeed(int argc, char **argv)
{
    std::uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "error: " << a << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--seed") {
            seed = obs::ObsCli::parseCount(next(), "--seed");
        } else {
            std::cerr << "usage: " << argv[0] << " [--seed N]\n";
            std::exit(2);
        }
    }
    return seed;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t seed = parseSeed(argc, argv);
    bench::header(
        "Ablation — sampled-profile error and overhead vs period",
        "exact attribution is the simulator's luxury; this measures "
        "what sampling at period P gives up");

    Table t({"workload", "period", "samples", "mean|err|pp",
             "max|err|pp", "top10", "rank", "replay-x"});

    for (const char *name : kWorkloads) {
        const WorkloadInfo *w = findWorkload(name);
        if (w == nullptr) {
            std::cerr << "error: workload " << name << " missing\n";
            return 1;
        }
        RunSpec spec;
        spec.workload = w;
        spec.arg = w->tinyArg;
        const RecordedRun rec = recordWorkload(spec);

        // (a) The bare model is the overhead baseline.
        obs::SteadyTime t0 = obs::steadyNow();
        PipelineSim pipe{PipelineConfig{}};
        rec.trace->replay(pipe);
        const double pipeSeconds = obs::secondsSince(t0);
        const std::uint64_t pipeCycles = pipe.cycles();

        // (b) The exact profiler is the accuracy ground truth (and
        // the overhead ceiling sampling should undercut).
        prof::CctPipeline exact(PipelineConfig{}, rec.methods);
        t0 = obs::steadyNow();
        rec.trace->replay(exact);
        const double exactSeconds = obs::secondsSince(t0);
        t.addRow({name, "exact", "-", "-", "-", "-", "-",
                  fixed(pipeSeconds > 0 ? exactSeconds / pipeSeconds
                                        : 0,
                        2)});

        // (c) The period ladder.
        for (const std::uint64_t period : kPeriods) {
            prof::SampleOptions opt;
            opt.period = period;
            opt.seed = seed;
            prof::SamplePipeline sp(PipelineConfig{}, rec.methods,
                                    opt);
            t0 = obs::steadyNow();
            rec.trace->replay(sp);
            const double seconds = obs::secondsSince(t0);
            if (sp.pipeline().cycles() != pipeCycles) {
                std::cerr << "error: sampled replay perturbed the "
                             "model at period "
                          << period << '\n';
                return 1;
            }
            const prof::CalibrationReport rep =
                prof::calibrate(exact.cct(), sp.sampler());
            const double overhead =
                pipeSeconds > 0 ? seconds / pipeSeconds : 0;

            t.addRow({name, std::to_string(period),
                      withCommas(rep.samples),
                      fixed(rep.meanAbsErrPct, 3),
                      fixed(rep.maxAbsErrPct, 3),
                      fixed(rep.topOverlap, 2),
                      fixed(rep.rankAgreement, 3),
                      fixed(overhead, 2)});
        }
    }

    t.print(std::cout);
    std::cout << "error columns are percentage points of cycle share;"
                 " replay-x is host replay time vs the bare pipeline"
                 " (exact profiler for reference, then each period)\n";
    return 0;
}
