/**
 * @file
 * The native-instruction trace ISA.
 *
 * Everything the VM executes — interpreter handler code, the JIT
 * translator's own work, and JIT-generated native code — is rendered as
 * a stream of TraceEvent records, one per simulated SPARC-like RISC
 * instruction. This plays the role Shade played in the paper: the
 * architecture models (instruction mix, caches, branch predictors, the
 * superscalar pipeline) are all TraceSink observers of this stream.
 */
#ifndef JRS_ISA_TRACE_H
#define JRS_ISA_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace jrs {

/** Broad class of a simulated native instruction. */
enum class NKind : std::uint8_t {
    IntAlu,        ///< integer add/sub/logic/shift/compare
    IntMul,        ///< integer multiply
    IntDiv,        ///< integer divide / remainder
    FpAlu,         ///< FP add/sub/compare/convert
    FpMul,         ///< FP multiply
    FpDiv,         ///< FP divide
    Load,          ///< memory read
    Store,         ///< memory write
    Branch,        ///< conditional branch (taken/target valid)
    Jump,          ///< unconditional direct jump
    IndirectJump,  ///< register-indirect jump (switch dispatch, ret-like)
    Call,          ///< direct call
    IndirectCall,  ///< register-indirect call (virtual dispatch)
    Ret,           ///< return
    Nop,           ///< no-op; also a default-constructed event's kind
};

/**
 * Number of distinct NKind values (for counting arrays). Derived from
 * the last enumerator, so every kind an event can carry — Nop, the
 * default, included — indexes inside per-kind arrays.
 */
inline constexpr std::size_t kNumNKinds =
    static_cast<std::size_t>(NKind::Nop) + 1;

/** Human-readable name of an instruction kind. */
const char *nkindName(NKind kind);

/** True for any control-transfer kind. */
inline bool
isControl(NKind kind)
{
    switch (kind) {
      case NKind::Branch:
      case NKind::Jump:
      case NKind::IndirectJump:
      case NKind::Call:
      case NKind::IndirectCall:
      case NKind::Ret:
        return true;
      default:
        return false;
    }
}

/** True for loads and stores. */
inline bool
isMemory(NKind kind)
{
    return kind == NKind::Load || kind == NKind::Store;
}

/**
 * Which part of the runtime system issued an instruction.
 *
 * The paper instruments Kaffe's translate routine to split the JIT
 * execution into translation vs everything else (Fig 5); we carry the
 * phase on every event so any sink can do that split.
 */
enum class Phase : std::uint8_t {
    Interpret,   ///< interpreter loop + handlers
    Translate,   ///< JIT compiler translating a method
    NativeExec,  ///< executing JIT-generated code
    Runtime,     ///< runtime services (sync, allocation, class loading)
    Gc,          ///< garbage collector (root scan, mark/sweep/copy)
};

inline constexpr std::size_t kNumPhases = 5;

/** Human-readable name of a phase. */
const char *phaseName(Phase phase);

/** Register index type; register 0 is the hardwired zero register. */
using Reg = std::uint8_t;

/** Sentinel meaning "no register operand". */
inline constexpr Reg kNoReg = 0xff;

/**
 * One dynamic native instruction.
 *
 * @c pc is the simulated instruction address. An instruction carries at
 * most one address operand, so @c mem and @c target name one field:
 * the effective address of a Load/Store, the destination of a control
 * transfer, and 0 for every other kind. Write and read it through the
 * name the kind gives it, as the emitter, the JRSTRACE codec and every
 * model do. Code that copies or compares whole events may read the
 * other name; that relies on union type punning, which GCC and Clang
 * define and standard C++ does not. @c taken is a conditional
 * branch's outcome;
 * @c rd / @c rs1 / @c rs2 give the architectural register dependences
 * used by the pipeline model. The 24-byte layout (one pad byte after
 * @c rs2) is also the JRSTRACE record (isa/trace_io.h).
 */
struct TraceEvent {
    std::uint64_t pc = 0;
    union {
        std::uint64_t mem = 0;  ///< effective address (Load/Store)
        std::uint64_t target;   ///< control-transfer destination
    };
    NKind kind = NKind::Nop;
    Phase phase = Phase::Interpret;
    bool taken = false;         ///< conditional-branch outcome
    std::uint8_t memSize = 0;   ///< access size in bytes (Load/Store)
    Reg rd = kNoReg;
    Reg rs1 = kNoReg;
    Reg rs2 = kNoReg;
};

static_assert(sizeof(TraceEvent) == 24,
              "TraceEvent is the 24-byte JRSTRACE record");

/**
 * Observer of the dynamic instruction stream.
 *
 * Implementations must be cheap: the VM delivers every simulated
 * instruction through this interface.
 */
class TraceSink {
  public:
    virtual ~TraceSink() = default;

    /** Deliver one dynamic instruction. */
    virtual void onEvent(const TraceEvent &ev) = 0;

    /** Stream finished (engine run complete). Default: no-op. */
    virtual void onFinish() {}
};

/** Fan-out sink delivering each event to several child sinks. */
class MultiSink : public TraceSink {
  public:
    /** Append a child; ownership stays with the caller. */
    void add(TraceSink *sink) { sinks_.push_back(sink); }

    void onEvent(const TraceEvent &ev) override {
        for (TraceSink *s : sinks_)
            s->onEvent(ev);
    }

    void onFinish() override {
        for (TraceSink *s : sinks_)
            s->onFinish();
    }

  private:
    std::vector<TraceSink *> sinks_;
};

/** Sink that simply counts instructions, split by phase. */
class CountingSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &ev) override {
        ++total_;
        ++perPhase_[static_cast<std::size_t>(ev.phase)];
    }

    /** Total dynamic instructions observed. */
    std::uint64_t total() const { return total_; }

    /** Dynamic instructions observed in @p phase. */
    std::uint64_t inPhase(Phase phase) const {
        return perPhase_[static_cast<std::size_t>(phase)];
    }

    /** Reset all counters to zero. */
    void reset() {
        total_ = 0;
        for (auto &c : perPhase_)
            c = 0;
    }

  private:
    std::uint64_t total_ = 0;
    std::uint64_t perPhase_[kNumPhases] = {};
};

/** Sink that records events into a vector (tests only — unbounded). */
class RecordingSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &ev) override { events_.push_back(ev); }

    /** All recorded events in order. */
    const std::vector<TraceEvent> &events() const { return events_; }

    void clear() { events_.clear(); }

  private:
    std::vector<TraceEvent> events_;
};

} // namespace jrs

#endif // JRS_ISA_TRACE_H
