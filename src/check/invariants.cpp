#include "check/invariants.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>

#include "isa/address_map.h"
#include "isa/trace_io.h"
#include "vm/runtime/vm_error.h"

namespace jrs::check {

namespace {

bool
legalMemSegment(SimAddr a)
{
    // Data-bearing regions: Java heap/stacks/class data, the two
    // runtime-system data arenas, plus the three code regions that are
    // legitimately accessed as data (code-cache installs, interpreter
    // jump tables, translator rodata).
    return inSegment(a, seg::kHeap) || inSegment(a, seg::kStacks)
        || inSegment(a, seg::kClassData)
        || inSegment(a, seg::kTranslateData)
        || inSegment(a, seg::kRuntimeData)
        || inSegment(a, seg::kCodeCache)
        || inSegment(a, seg::kInterpCode)
        || inSegment(a, seg::kTranslateCode);
}

SimAddr
phaseHomeSegment(Phase p)
{
    switch (p) {
      case Phase::Interpret:  return seg::kInterpCode;
      case Phase::Translate:  return seg::kTranslateCode;
      case Phase::NativeExec: return seg::kCodeCache;
      case Phase::Runtime:    return seg::kRuntimeCode;
      case Phase::Gc:         return seg::kRuntimeCode;
    }
    return 0;
}

bool
legalReg(Reg r)
{
    return r < 32 || r == kNoReg;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

void
TraceInvariantChecker::flag(const std::string &what)
{
    ++violationCount_;
    if (violations_.size() < kMaxKept)
        violations_.push_back({events_, what});
}

void
TraceInvariantChecker::onEvent(const TraceEvent &ev)
{
    const auto phase_raw = static_cast<std::size_t>(ev.phase);
    const auto kind_raw = static_cast<std::size_t>(ev.kind);

    if (phase_raw >= kNumPhases)
        flag("illegal phase tag " + std::to_string(phase_raw));
    if (kind_raw >= kNumNKinds)
        flag("illegal kind tag " + std::to_string(kind_raw));
    if (phase_raw >= kNumPhases || kind_raw >= kNumNKinds) {
        ++events_;
        return;  // remaining checks dereference the tags
    }
    phase_[phase_raw] += 1;

    if (!inSegment(ev.pc, phaseHomeSegment(ev.phase))) {
        flag(std::string(phaseName(ev.phase)) + " event at pc "
             + hex(ev.pc) + " outside its home code segment");
    }

    // Generated code is fixed-width: a NativeExec pc off the 4-byte
    // grid (or outside the segment, caught above) is the signature of
    // a code-cache cursor-overflow or extent-reuse bug.
    if (ev.phase == Phase::NativeExec && (ev.pc & 3) != 0)
        flag("NativeExec pc " + hex(ev.pc) + " not 4-byte aligned");

    if (isMemory(ev.kind)) {
        if (ev.mem == 0)
            flag("memory event with null effective address");
        else if (!legalMemSegment(ev.mem))
            flag("memory access at " + hex(ev.mem)
                 + " outside every data-bearing region");
        else if (inSegment(ev.mem, seg::kCodeCache)
                 && (ev.mem & 3) != 0)
            flag("code-cache access at " + hex(ev.mem)
                 + " not 4-byte aligned");
        if (ev.memSize != 1 && ev.memSize != 2 && ev.memSize != 4
            && ev.memSize != 8) {
            flag("memory access size "
                 + std::to_string(static_cast<int>(ev.memSize)));
        }
    } else {
        if (ev.mem != 0)
            flag(std::string(nkindName(ev.kind))
                 + " carries effective address " + hex(ev.mem));
        if (ev.memSize != 0)
            flag(std::string(nkindName(ev.kind)) + " carries memSize "
                 + std::to_string(static_cast<int>(ev.memSize)));
    }

    if (isControl(ev.kind)) {
        if (ev.kind != NKind::Branch && !ev.taken)
            flag(std::string(nkindName(ev.kind))
                 + " marked not-taken (only Branch carries an outcome)");
        if (ev.kind != NKind::Branch && ev.kind != NKind::Ret
            && ev.target == 0)
            flag(std::string(nkindName(ev.kind)) + " with null target");
    } else {
        if (ev.taken)
            flag(std::string(nkindName(ev.kind)) + " marked taken");
        if (ev.target != 0)
            flag(std::string(nkindName(ev.kind)) + " carries target "
                 + hex(ev.target));
    }

    if (!legalReg(ev.rd) || !legalReg(ev.rs1) || !legalReg(ev.rs2))
        flag("register id out of range (not <32 and not kNoReg)");

    ++events_;
}

std::string
TraceInvariantChecker::report() const
{
    if (ok())
        return "";
    std::ostringstream os;
    os << violationCount_ << " invariant violation(s) in " << events_
       << " events";
    for (const Violation &v : violations_)
        os << "\n  event " << v.index << ": " << v.what;
    if (violationCount_ > violations_.size())
        os << "\n  ... (" << (violationCount_ - violations_.size())
           << " more suppressed)";
    return os.str();
}

std::string
checkRunConservation(const TraceInvariantChecker &checker,
                     const RunResult &result)
{
    std::ostringstream os;
    if (checker.eventCount() != result.totalEvents) {
        os << "stream has " << checker.eventCount()
           << " events, RunResult reports " << result.totalEvents
           << "\n";
    }
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        if (checker.inPhase(phase) != result.inPhase(phase)) {
            os << phaseName(phase) << ": stream "
               << checker.inPhase(phase) << " vs RunResult "
               << result.inPhase(phase) << "\n";
        }
    }
    return os.str();
}

std::string
checkProfileConservation(const RunResult &result)
{
    std::uint64_t charged = 0;
    std::uint64_t translate = 0;
    for (const MethodProfile &p : result.profiles.all()) {
        charged += p.interpEvents + p.nativeEvents + p.translateEvents;
        translate += p.translateEvents;
    }

    std::ostringstream os;
    if (translate != result.inPhase(Phase::Translate)) {
        os << "summed translateEvents " << translate
           << " != Translate-phase total "
           << result.inPhase(Phase::Translate) << "\n";
    }
    // Collector work is attributed to no method by design; it must be
    // exactly the Phase::Gc share of the stream.
    const std::uint64_t gc_events = result.inPhase(Phase::Gc);
    if (result.gcStats.gcEvents != gc_events) {
        os << "GcStats reports " << result.gcStats.gcEvents
           << " collector events but the Gc phase has " << gc_events
           << "\n";
    }
    if (charged + gc_events > result.totalEvents) {
        os << "profiles charge " << charged << " events (+" << gc_events
           << " GC) but the run had " << result.totalEvents << "\n";
    } else if (result.totalEvents - charged - gc_events
               > kMaxUnattributedEvents) {
        os << (result.totalEvents - charged - gc_events)
           << " events unattributed to any method profile (allowed: "
           << kMaxUnattributedEvents << " beyond the " << gc_events
           << " GC events)\n";
    }
    return os.str();
}

std::string
checkProfileAttribution(const TraceBuffer &trace, const obs::MethodMap &map,
                        const Program &prog, const RunResult &result,
                        std::uint64_t per_method_slack)
{
    // The offline join keys its interp/runtime context on the single
    // most recent method across *all* threads, so it is only exact for
    // single-threaded streams.
    if (result.threadsSpawned != 0)
        return "";

    obs::AttributionSink sink(map);
    trace.replay(sink);

    std::map<std::string, std::uint64_t> attributed;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        for (const obs::AttributedMethod &m :
             sink.top(static_cast<Phase>(p), map.rows() + 2)) {
            if (m.name != "(unattributed)")
                attributed[m.name] += m.events;
        }
    }

    std::map<std::string, std::uint64_t> profiled;
    std::map<std::string, std::uint64_t> invocations;
    for (const Method &m : prog.methods) {
        if (static_cast<std::size_t>(m.id) >= result.profiles.size())
            continue;
        const MethodProfile &p = result.profiles.of(m.id);
        profiled[m.name] +=
            p.interpEvents + p.nativeEvents + p.translateEvents;
        invocations[m.name] += p.invocations;
    }

    // The join is exact within a step but not across frame boundaries:
    // a synchronized callee's entry monitor-acquire fires before its
    // first bytecode fetch (attributing to the caller), and
    // return-value delivery lands on the returning method. Each call
    // crossing can shift a handful of events between the two adjacent
    // methods, so the tolerance scales with the method's own
    // invocation count plus a small fraction of its size (the caller
    // side absorbs its callees' crossings).
    std::uint64_t total_attr = 0;
    std::uint64_t total_prof = 0;
    std::ostringstream os;
    for (const auto &[name, want] : profiled) {
        const auto it = attributed.find(name);
        const std::uint64_t got = it == attributed.end() ? 0 : it->second;
        total_attr += got;
        total_prof += want;
        const std::uint64_t diff = got > want ? got - want : want - got;
        const std::uint64_t allowed =
            per_method_slack + 4 * invocations[name] + want / 64;
        if (diff > allowed) {
            os << name << ": profile charges " << want
               << ", trace attribution finds " << got << " (allowed "
               << allowed << ")\n";
        }
    }
    // Aggregate drift has no boundary excuse: both sides only exclude
    // small startup prefixes (the engine's entry frame setup, the
    // sink's events before any mapped access).
    const std::uint64_t agg_diff = total_attr > total_prof
        ? total_attr - total_prof
        : total_prof - total_attr;
    if (agg_diff > 128) {
        os << "aggregate: profiles charge " << total_prof
           << ", attribution finds " << total_attr << "\n";
    }
    for (const auto &[name, got] : attributed) {
        if (got != 0 && profiled.find(name) == profiled.end())
            os << name << ": " << got
               << " events attributed to a method with no profile row\n";
    }
    return os.str();
}

namespace {

/** Read a whole small text file; false when it cannot be opened. */
bool
slurp(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    char buf[4096];
    std::size_t n;
    out->clear();
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out->append(buf, n);
    std::fclose(f);
    return true;
}

/**
 * Validate the `.meta` sidecar (format written by the sweep trace
 * cache: "key=<key>\nexit=<int>\nevents=<count>\n"). Returns "" on
 * success.
 */
std::string
lintMetaSidecar(const std::string &path, const std::string &expect_key,
                std::uint64_t expect_events)
{
    std::string text;
    if (!slurp(path, &text))
        return "missing .meta sidecar: " + path;

    char key[512] = {};
    int exit_value = 0;
    unsigned long long events = 0;
    if (std::sscanf(text.c_str(), "key=%511[^\n]\nexit=%d\nevents=%llu",
                    key, &exit_value, &events)
        != 3) {
        return "corrupt .meta sidecar (expected key=/exit=/events= "
               "lines): "
            + path;
    }
    if (!expect_key.empty() && expect_key != key) {
        return ".meta key \"" + std::string(key)
            + "\" does not match trace filename stem \"" + expect_key
            + "\"";
    }
    if (events != expect_events) {
        return ".meta records " + std::to_string(events)
            + " events but the stream holds "
            + std::to_string(expect_events);
    }
    return "";
}

/**
 * Validate the `.methods` sidecar ("<lo-hex> <hi-hex> <name>" lines).
 * Returns "" on success.
 */
std::string
lintMethodsSidecar(const std::string &path, std::uint64_t *ranges_out)
{
    std::string text;
    if (!slurp(path, &text))
        return "missing .methods sidecar: " + path;

    std::istringstream in(text);
    std::string line;
    std::uint64_t ranges = 0;
    std::uint64_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        unsigned long long lo = 0;
        unsigned long long hi = 0;
        char name[512] = {};
        if (std::sscanf(line.c_str(), "%llx %llx %511[^\n]", &lo, &hi,
                        name)
            != 3) {
            return "corrupt .methods sidecar at line "
                + std::to_string(lineno) + ": \"" + line + "\"";
        }
        if (lo >= hi) {
            return ".methods line " + std::to_string(lineno)
                + " has an empty or inverted range";
        }
        ++ranges;
    }
    *ranges_out = ranges;
    return "";
}

} // namespace

LintResult
lintTraceFile(const std::string &path, bool require_sidecars)
{
    LintResult out;

    TraceInvariantChecker checker;
    try {
        replayTraceFile(path, checker);
    } catch (const VmError &e) {
        out.error = e.what();
        return out;
    }

    out.events = checker.eventCount();
    if (!checker.ok()) {
        out.error = checker.report();
        return out;
    }
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        if (checker.inPhase(phase) != 0) {
            out.notes.push_back(std::string(phaseName(phase)) + ": "
                                + std::to_string(checker.inPhase(phase))
                                + " events");
        }
    }

    if (require_sidecars) {
        // The cache names files "<key>.jrstrace"; the .meta key line
        // must round-trip to the same stem.
        std::string stem = std::filesystem::path(path).filename().string();
        if (const auto pos = stem.find(".jrstrace");
            pos != std::string::npos)
            stem.resize(pos);
        else
            stem.clear();

        if (std::string err =
                lintMetaSidecar(path + ".meta", stem, out.events);
            !err.empty()) {
            out.error = err;
            return out;
        }
        std::uint64_t ranges = 0;
        if (std::string err =
                lintMethodsSidecar(path + ".methods", &ranges);
            !err.empty()) {
            out.error = err;
            return out;
        }
        out.notes.push_back(".methods: " + std::to_string(ranges)
                            + " address ranges");
    }

    out.ok = true;
    return out;
}

std::vector<std::pair<std::string, LintResult>>
lintCacheDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    if (!fs::is_directory(dir))
        throw VmError("lintCacheDir: not a directory: " + dir);

    std::vector<std::pair<std::string, LintResult>> out;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.size() < 9
            || name.compare(name.size() - 9, 9, ".jrstrace") != 0)
            continue;
        out.emplace_back(name,
                         lintTraceFile(entry.path().string(), true));
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

} // namespace jrs::check
