/**
 * @file
 * Shadow call-stack tracking over the trace stream: the Call/Ret
 * frame discipline shared by the exact profiler (prof/cct.h) and the
 * sampling profiler (prof/sampler.h).
 *
 * The stream's brackets are not uniformly balanced, so each pushed
 * frame records a kind and a Ret only pops a frame of the kind its
 * phase implies:
 *
 *  - Method frames (guest invokes): pushed on Call/IndirectCall to a
 *    per-method trampoline (stub::isMethodStub); popped by
 *    Interpret/NativeExec-phase Rets (guest returns).
 *  - Runtime frames (alloc / arraycopy service routines): balanced
 *    Runtime-phase brackets, named by their call-site pc.
 *  - Gc frames: balanced Phase::Gc brackets at gc::kGcPc.
 *  - Translate frames: ONE Call per compilation but a Ret per
 *    translated bytecode — only the final install return
 *    (pc == stub::kTransInstallRet) pops; a compilation abandoned
 *    mid-way (uncompilable construct) is closed at the first
 *    non-Translate event.
 *
 * Rets that find no matching frame (guest exception unwinds emit no
 * Ret, so a later outer Ret can arrive at the root; green-thread
 * interleavings nest one thread's frames in another's context) are
 * counted and ignored. Pushes past Options::maxDepth are suppressed
 * and tracked in a virtual overflow counter so pathological unwind
 * shapes cannot grow the stack unboundedly.
 *
 * Method frames are named lazily: the trampoline address encodes only
 * the MethodId, so a frame takes its MethodMap row from the first
 * attributable event inside it (the bytecode-fetch Load for
 * interpreted code, the native pc for compiled code), resolved
 * through an obs::MapView at that event's stream position. This keeps
 * the tracker independent of the Program: a map is all it needs.
 *
 * The per-event protocol is split in two so consumers can observe the
 * stack at the exact attribution point — after a stale Translate
 * frame is closed and the current frame is lazily named, but before
 * the event's own push/pop is applied (a Call's cost belongs to the
 * caller):
 *
 *     const FrameTracker::Step step = tracker.begin(ev);
 *     // stack() is now the context that owns ev
 *     ... attribute / sample ...
 *     const FrameTracker::Action act = tracker.finish(ev);
 *     // act says whether ev pushed or popped a frame
 *
 * CctBuilder mirrors Push/Pop into its node stack; the sampler only
 * walks stack() at sample points.
 */
#ifndef JRS_PROF_FRAME_TRACKER_H
#define JRS_PROF_FRAME_TRACKER_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/trace.h"
#include "obs/attribution.h"

namespace jrs::prof {

/** What kind of bracket opened a frame (see file comment). */
enum class FrameKind : std::uint8_t {
    Root,       ///< synthetic outermost frame (entry method)
    Method,     ///< guest invoke via a per-method trampoline
    Runtime,    ///< runtime service routine (alloc, arraycopy)
    Translate,  ///< one JIT compilation
    Gc,         ///< one collection
};

/** Human-readable frame-kind name (JSON enum value). */
const char *frameKindName(FrameKind k);

/** One open frame on the shadow stack. */
struct Frame {
    std::uint64_t key = 0;  ///< identity under parent (kind + id)
    FrameKind kind = FrameKind::Root;
    std::uint32_t methodId = 0;  ///< Method frames: trampoline id
    int methodRow = -1;     ///< lazily resolved MethodMap row
    const char *stubName = nullptr;  ///< non-method display name
};

/**
 * Display name of @p f: a Method frame (or the root) by its MethodMap
 * row once one is resolved, "(method#N)" (or "(root)") before that;
 * any other frame by its stub name. @p map may be null (no rows).
 */
std::string frameName(const Frame &f, const obs::MethodMap *map);

/** Knobs for a tracking pass. */
struct FrameTrackerOptions {
    /** Deepest stack tracked; deeper pushes become virtual. */
    std::size_t maxDepth = 1024;
};

/** See file comment. */
class FrameTracker {
  public:
    using Options = FrameTrackerOptions;

    /** What FrameTracker::finish did with the event. */
    enum class Action : std::uint8_t {
        None,  ///< no stack change (or suppressed/ignored)
        Push,  ///< opened the frame now at stack().back()
        Pop,   ///< closed the previous stack().back()
    };

    /** What FrameTracker::begin did before the attribution point. */
    struct Step {
        /** A stale Translate frame was closed (abandoned). */
        bool closedTranslate = false;
    };

    /**
     * @p map resolves lazy method naming and must outlive the
     * tracker; pass null to skip resolution (shape-only tracking).
     */
    explicit FrameTracker(const obs::MethodMap *map = nullptr,
                          Options opt = {});

    /** First half of event processing; see file comment. */
    Step begin(const TraceEvent &ev) {
        Step step;
        // A Translate frame not closed by its install return (the
        // compilation aborted on an uncompilable construct) ends at
        // the first event from any other phase.
        if (frames_.back().kind == FrameKind::Translate
            && ev.phase != Phase::Translate && overflow_ == 0) {
            frames_.pop_back();
            ++abandoned_;
            step.closedTranslate = true;
        }
        // Lazy frame naming (see file comment).
        const Frame &f = frames_.back();
        if (f.methodRow < 0 && map_ != nullptr
            && (f.kind == FrameKind::Method || f.kind == FrameKind::Root))
            name(ev);
        ++events_;
        return step;
    }

    /** Second half; call exactly once after begin(ev). */
    Action finish(const TraceEvent &ev) {
        switch (ev.kind) {
          case NKind::Call:
          case NKind::IndirectCall:
            return push(ev);
          case NKind::Ret:
            return pop(ev) ? Action::Pop : Action::None;
          default:
            return Action::None;
        }
    }

    /** Both halves, for consumers without an attribution point. */
    void onEvent(const TraceEvent &ev) {
        begin(ev);
        finish(ev);
    }

    /** Open frames, outermost (Root) first. Never empty. */
    const std::vector<Frame> &stack() const { return frames_; }

    /** Display name of @p f (lazy naming; see file comment). */
    std::string frameName(const Frame &f) const {
        return prof::frameName(f, map_);
    }

    /** Rets that arrived with only the root on the stack. */
    std::uint64_t unmatchedRets() const { return unmatchedRets_; }

    /** Rets whose phase did not match the open frame's kind. */
    std::uint64_t mismatchedRets() const { return mismatchedRets_; }

    /** Translate frames closed without their install return. */
    std::uint64_t abandonedTranslations() const { return abandoned_; }

    /** Pushes suppressed by Options::maxDepth. */
    std::uint64_t overflowPushes() const { return overflowPushes_; }

    /** Deepest stack reached (frames, root included). */
    std::size_t maxDepthSeen() const { return maxDepthSeen_; }

  private:
    /** Name the innermost frame from @p ev when it is attributable. */
    void name(const TraceEvent &ev);
    Action push(const TraceEvent &ev);
    bool pop(const TraceEvent &ev);

    const obs::MethodMap *map_;
    obs::MapView view_;           ///< map_ at the stream position
    std::uint64_t events_ = 0;    ///< events begun (stream position)
    Options opt_;
    std::vector<Frame> frames_;
    std::uint64_t overflow_ = 0;  ///< depth beyond maxDepth (virtual)
    std::uint64_t unmatchedRets_ = 0;
    std::uint64_t mismatchedRets_ = 0;
    std::uint64_t abandoned_ = 0;
    std::uint64_t overflowPushes_ = 0;
    std::size_t maxDepthSeen_ = 1;
};

} // namespace jrs::prof

#endif // JRS_PROF_FRAME_TRACKER_H
