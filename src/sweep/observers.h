/**
 * @file
 * The one way to attach profilers to a sweep.
 *
 * attachObservers wires SweepOptions::groupObserver/groupObserved so
 * that every trace group's run also feeds one default-config
 * PipelineSim carrying whichever of the perf, CCT and sampling
 * profilers the ObsCli flags selected (obs/cli.h), resolving methods
 * against the map that follows the run. Each group's reports land in
 * an ObsReports keyed by the group's TraceKey. The pipeline rides the
 * group's fan-out after every point sink, so the sweep's own metrics
 * stay bit-identical with or without it (tests/test_perf.cpp asserts
 * this).
 */
#ifndef JRS_SWEEP_OBSERVERS_H
#define JRS_SWEEP_OBSERVERS_H

#include <memory>
#include <utility>

#include "arch/pipeline/pipeline.h"
#include "obs/cli.h"
#include "sweep/sweep.h"

namespace jrs::sweep {

/** One trace group's observed pipeline; see attachObservers. */
class GroupPipeline : public PipelineSim {
  public:
    GroupPipeline(std::shared_ptr<const obs::MethodMap> map,
                  const obs::ObsCli &cli)
        : PipelineSim(PipelineConfig{}), map_(std::move(map)),
          observers_(cli.observers(*map_))
    {
        observers_.attachTo(*this);
    }

    const obs::Observers &observers() const { return observers_; }

  private:
    std::shared_ptr<const obs::MethodMap> map_;
    obs::Observers observers_;
};

/**
 * See file comment. A no-op when @p cli selects no profiler.
 * @p reports must outlive the sweep.
 */
inline void
attachObservers(SweepOptions &opts, const obs::ObsCli &cli,
                obs::ObsReports &reports)
{
    if (!cli.perfRequested() && !cli.cctRequested()
        && !cli.sampleRequested())
        return;
    opts.groupObserver = [cli](const TraceKey &, const RecordedRun &run)
        -> std::unique_ptr<TraceSink> {
        return std::make_unique<GroupPipeline>(run.methods, cli);
    };
    opts.groupObserved = [&reports](const TraceKey &key,
                                    const RecordedRun &,
                                    TraceSink &sink) {
        static_cast<GroupPipeline &>(sink).observers().addTo(
            reports, key.str());
    };
}

} // namespace jrs::sweep

#endif // JRS_SWEEP_OBSERVERS_H
