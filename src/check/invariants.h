/**
 * @file
 * TraceInvariantChecker — streaming validation of native-event streams.
 *
 * Every architecture model in this repo silently assumes the TraceEvent
 * stream is well-formed; the paper's numbers are only as good as that
 * assumption. This checker makes it explicit and machine-checked, for
 * live runs (attach as the engine sink), in-memory TraceBuffers, and
 * on-disk JRSTRACE files.
 *
 * Per-event invariants:
 *  - phase and kind tags are legal enum values
 *  - pc lies in the phase's home code segment: Interpret->kInterpCode,
 *    Translate->kTranslateCode, NativeExec->kCodeCache,
 *    Runtime->kRuntimeCode
 *  - code-cache pcs and accesses sit on the 4-byte instruction grid
 *    (generated code is fixed-width; misalignment signals a
 *    cursor-overflow or extent-reuse bug in the managed cache)
 *  - memory events carry a nonzero address inside a data-bearing
 *    address_map region (heap, stacks, class data, translate/runtime
 *    data, code cache installs, interpreter jump tables, translator
 *    rodata) and a power-of-two size in [1, 8]; non-memory events
 *    carry none
 *  - branch events carry an outcome; all other control kinds are
 *    always "taken" and (except Ret) carry a nonzero target;
 *    non-control events carry neither outcome nor target
 *  - register ids are < 32 or kNoReg
 *
 * Cross-run conservation (needs the producing RunResult):
 *  - stream totals and per-phase totals equal the RunResult's
 *  - per-method ProfileTable events conserve: the sum over methods of
 *    interp+native+translate events equals totalEvents minus only the
 *    entry frame-setup traffic, and translate events equal the
 *    stream's Translate-phase total exactly
 *  - joined with a MethodMap, per-method attributed event counts match
 *    each method's profile within a small per-method slack
 */
#ifndef JRS_CHECK_INVARIANTS_H
#define JRS_CHECK_INVARIANTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/trace.h"
#include "isa/trace_buffer.h"
#include "obs/attribution.h"
#include "vm/engine/engine.h"

namespace jrs::check {

/** One recorded invariant violation. */
struct Violation {
    std::uint64_t index = 0;  ///< event index in the stream
    std::string what;
};

/** Streaming per-event validator; see file comment. */
class TraceInvariantChecker : public TraceSink {
  public:
    void onEvent(const TraceEvent &ev) override;

    bool ok() const { return violationCount_ == 0; }
    std::uint64_t eventCount() const { return events_; }
    std::uint64_t violationCount() const { return violationCount_; }
    std::uint64_t inPhase(Phase p) const {
        return phase_[static_cast<std::size_t>(p)];
    }

    /** First violations (capped at kMaxKept; the count keeps going). */
    const std::vector<Violation> &violations() const {
        return violations_;
    }

    /** Multi-line summary; "" when the stream is clean. */
    std::string report() const;

    static constexpr std::size_t kMaxKept = 16;

  private:
    void flag(const std::string &what);

    std::uint64_t events_ = 0;
    std::uint64_t violationCount_ = 0;
    std::uint64_t phase_[kNumPhases] = {};
    std::vector<Violation> violations_;
};

/**
 * Totals/per-phase equality between a fully observed stream and the
 * RunResult that produced it. @return "" when conserved.
 */
std::string checkRunConservation(const TraceInvariantChecker &checker,
                                 const RunResult &result);

/**
 * ProfileTable conservation against the run's own totals: the summed
 * per-method events may fall short of totalEvents only by the entry
 * frame-setup traffic (bounded by kMaxUnattributedEvents), and summed
 * translateEvents must equal the Translate-phase total exactly.
 * @return "" when conserved.
 */
std::string checkProfileConservation(const RunResult &result);

/** Engine events never charged to a profile (entry frame setup). */
inline constexpr std::uint64_t kMaxUnattributedEvents = 8;

/**
 * Join @p trace with @p map through obs::AttributionSink and compare
 * per-method attributed totals against the ProfileTable. The offline
 * join is exact within a step but shifts a few events between
 * adjacent methods at every frame boundary (synchronized-method
 * entry, return delivery, translator prologues), so each method is
 * allowed @p per_method_slack plus an invocation- and size-scaled
 * margin, while the aggregate across all methods must agree tightly.
 * Only valid for single-threaded, non-inlining runs — returns "" with
 * no work when result.threadsSpawned != 0. @return "" when conserved.
 */
std::string checkProfileAttribution(const TraceBuffer &trace,
                                    const obs::MethodMap &map,
                                    const Program &prog,
                                    const RunResult &result,
                                    std::uint64_t per_method_slack);

/** Outcome of linting one on-disk trace. */
struct LintResult {
    bool ok = false;
    std::uint64_t events = 0;
    std::string error;               ///< first fatal problem
    std::vector<std::string> notes;  ///< non-fatal observations
};

/**
 * Validate `<path>` as a JRSTRACE stream: header, record decode, and
 * every per-event invariant.
 */
LintResult lintTraceFile(const std::string &path);

} // namespace jrs::check

#endif // JRS_CHECK_INVARIANTS_H
