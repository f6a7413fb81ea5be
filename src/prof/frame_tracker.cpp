#include "prof/frame_tracker.h"

#include <algorithm>

#include "isa/address_map.h"

namespace jrs::prof {

const char *
frameKindName(FrameKind k)
{
    switch (k) {
      case FrameKind::Root:
        return "root";
      case FrameKind::Method:
        return "method";
      case FrameKind::Runtime:
        return "runtime";
      case FrameKind::Translate:
        return "translate";
      case FrameKind::Gc:
        return "gc";
    }
    return "?";
}

std::string
frameName(const Frame &f, const obs::MethodMap *map)
{
    if (f.kind == FrameKind::Root || f.kind == FrameKind::Method) {
        if (f.methodRow >= 0 && map != nullptr)
            return map->name(f.methodRow);
        if (f.kind == FrameKind::Root)
            return "(root)";
        return "(method#" + std::to_string(f.methodId) + ")";
    }
    return f.stubName;
}

namespace {

/** What a tracker without a map views (it never looks anything up). */
const obs::MethodMap &
noMap()
{
    static const obs::MethodMap empty;
    return empty;
}

} // namespace

FrameTracker::FrameTracker(const obs::MethodMap *map, Options opt)
    : map_(map), view_(map != nullptr ? *map : noMap()), opt_(opt)
{
    frames_.emplace_back();
    frames_[0].kind = FrameKind::Root;
}

void
FrameTracker::name(const TraceEvent &ev)
{
    // First attributable event wins.
    int row = -1;
    if (ev.phase == Phase::NativeExec)
        row = view_.pcRowOf(ev.pc, events_);
    else if (ev.phase == Phase::Interpret && ev.kind == NKind::Load)
        row = view_.rowOf(ev.mem, events_);
    if (row >= 0)
        frames_.back().methodRow = row;
}

FrameTracker::Action
FrameTracker::push(const TraceEvent &ev)
{
    if (frames_.size() + overflow_ >= opt_.maxDepth) {
        ++overflow_;
        ++overflowPushes_;
        return Action::None;
    }
    FrameKind kind;
    std::uint32_t methodId = 0;
    const char *stubName = nullptr;
    std::uint64_t id;
    if (stub::isMethodStub(ev.target)) {
        kind = FrameKind::Method;
        methodId = stub::methodIdOfStub(ev.target);
        id = methodId;
    } else if (ev.phase == Phase::Gc) {
        kind = FrameKind::Gc;
        stubName = "(gc)";
        id = 0;
    } else if (ev.phase == Phase::Translate) {
        kind = FrameKind::Translate;
        stubName = "(translate)";
        id = 0;
    } else {
        // Runtime service brackets, named by their call-site pc.
        kind = FrameKind::Runtime;
        if (ev.pc == stub::kAllocPc)
            stubName = "(alloc)";
        else if (ev.pc == stub::kAllocPc + 0x40)
            stubName = "(alloc.array)";
        else if (ev.pc == stub::kCopyPc)
            stubName = "(arraycopy)";
        else
            stubName = "(runtime)";
        id = ev.pc;
    }
    Frame f;
    f.key = (static_cast<std::uint64_t>(kind) << 56) |
            (id & 0xff'ffff'ffff'ffffull);
    f.kind = kind;
    f.methodId = methodId;
    f.stubName = stubName;
    frames_.push_back(f);
    maxDepthSeen_ = std::max(maxDepthSeen_, frames_.size());
    return Action::Push;
}

bool
FrameTracker::pop(const TraceEvent &ev)
{
    FrameKind want;
    switch (ev.phase) {
      case Phase::Interpret:
      case Phase::NativeExec:
        want = FrameKind::Method;
        break;
      case Phase::Runtime:
        want = FrameKind::Runtime;
        break;
      case Phase::Gc:
        want = FrameKind::Gc;
        break;
      case Phase::Translate:
        // The translator returns from a per-bytecode routine to its
        // dispatch loop once per translated bytecode; only the final
        // install return closes the compilation's frame.
        if (ev.pc != stub::kTransInstallRet)
            return false;
        want = FrameKind::Translate;
        break;
      default:
        return false;
    }
    if (overflow_ > 0) {
        // The innermost open frames were depth-suppressed; this Ret
        // closes one of them.
        --overflow_;
        return false;
    }
    if (frames_.size() == 1) {
        ++unmatchedRets_;
        return false;
    }
    if (frames_.back().kind != want) {
        ++mismatchedRets_;
        return false;
    }
    frames_.pop_back();
    return true;
}

} // namespace jrs::prof
