/**
 * @file
 * The one collection of profiler reports: labelled run snapshots
 * rendered as one JSON document and, for the tree profilers, one
 * folded-stack file.
 *
 * Every profiler (obs::PerfAttribution, prof::CctBuilder,
 * prof::SamplingProfiler) renders a run as one object of its schema's
 * "runs" array (runJson) and the tree profilers also as folded-stack
 * lines (foldedLines). A ReportSet is constructed with the schema name
 * and snapshots those renderings per label; it knows nothing else of
 * the profiler. Runs are sorted by label on output, so a sweep's
 * document does not depend on which worker finished first, and
 * re-adding a label replaces its snapshot (replay is bit-identical, so
 * re-observing a stream must not duplicate entries). The set is
 * thread-safe: sweep workers add to it concurrently.
 *
 * Both writers go through obs::writeTextFile, so a failed write
 * throws VmError naming the path.
 */
#ifndef JRS_OBS_REPORT_H
#define JRS_OBS_REPORT_H

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace jrs::obs {

/** One folded-stack output line (before rendering). */
struct FoldedLine {
    std::string stack;     ///< "frame;frame;leaf_[suffix]"
    std::uint64_t value;   ///< self cycles, events or samples
};

/** See file comment. */
class ReportSet {
  public:
    /** @p schema names the document ("jrs-cct-v1", ...). */
    explicit ReportSet(std::string schema) : schema_(std::move(schema)) {}

    /**
     * Snapshot @p profiler's run under @p label: its runJson(label)
     * and, when it has them, its foldedLines().
     */
    template <class Profiler>
    void add(const std::string &label, const Profiler &profiler) {
        Run run{label, profiler.runJson(label), {}};
        if constexpr (requires { profiler.foldedLines(); })
            run.folded = profiler.foldedLines();
        put(std::move(run));
    }

    const std::string &schema() const { return schema_; }

    std::size_t size() const;

    /** The full document: {"schema": ..., "runs": [...]}. */
    std::string toJson() const;

    /** Write toJson() to @p path; throws VmError on I/O failure. */
    void writeJson(const std::string &path) const;

    /**
     * Write all runs' folded lines to @p path. With more than one
     * run each stack is prefixed with its run label as the outermost
     * frame, so one flamegraph shows the runs side by side. Throws
     * VmError on I/O failure.
     */
    void writeFolded(const std::string &path) const;

    /** Folded lines of run @p label (empty when absent). */
    std::vector<FoldedLine> folded(const std::string &label) const;

  private:
    struct Run {
        std::string label;
        std::string json;
        std::vector<FoldedLine> folded;
    };

    void put(Run run);
    /** A copy of the runs, sorted by label. */
    std::vector<Run> sorted() const;

    const std::string schema_;
    mutable std::mutex mu_;
    std::vector<Run> runs_;
};

} // namespace jrs::obs

#endif // JRS_OBS_REPORT_H
