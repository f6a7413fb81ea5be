#include "gc/copying.h"

#include <unordered_map>

#include "gc/heap_walk.h"

namespace jrs::gc {

namespace {

/** Forwarding table: from-space offset -> to-space offset. */
using ForwardMap = std::unordered_map<std::uint32_t, std::uint32_t>;

} // namespace

void
CopyingCollector::collect(GcContext &ctx, GcStats &stats)
{
    Heap &heap = ctx.heap;
    ctx.control(kGcPc + 0x40, NKind::Call, kGcPc + 0x44);

    const unsigned to = 1 - active_;
    const std::size_t toBase = spaceBase(to);
    std::size_t toCursor = toBase;
    ForwardMap fwd;
    std::uint64_t roots = 0;

    // Evacuate one object (or return its existing forwarded address).
    auto forward = [&](SimAddr obj) -> SimAddr {
        const auto fromOff = static_cast<std::uint32_t>(obj - seg::kHeap);
        ctx.branch(kGcPc + 0x44, kGcPc + 0x50,
                   fwd.find(fromOff) != fwd.end());
        if (auto it = fwd.find(fromOff); it != fwd.end())
            return seg::kHeap + it->second;
        const std::size_t bytes = objectBytesAt(heap, ctx.registry, obj);
        const auto toOff = static_cast<std::uint32_t>(toCursor);
        heap.rawCopy(toOff, fromOff, bytes);
        for (std::size_t o = 0; o < bytes; o += 4)
            heap.setRefBit(toOff + o, heap.refBitAt(fromOff + o));
        // The copy's memory traffic, 8 bytes per beat.
        for (std::size_t o = 0; o < bytes; o += 8) {
            ctx.load(kGcPc + 0x48, obj + o, 8);
            ctx.store(kGcPc + 0x4c, seg::kHeap + toOff + o, 8);
        }
        fwd.emplace(fromOff, toOff);
        toCursor += bytes;
        stats.bytesCopied += bytes;
        return seg::kHeap + toOff;
    };

    class Visitor : public RootVisitor {
      public:
        Visitor(decltype(forward) &f, std::uint64_t &roots)
            : forward_(f), roots_(roots) {}
        SimAddr visitRoot(SimAddr ref, RootKind) override {
            ++roots_;
            return forward_(ref);
        }

      private:
        decltype(forward) &forward_;
        std::uint64_t &roots_;
    } visitor(forward, roots);

    enumerateRoots(ctx.roots(), visitor);

    // Cheney scan: fix up children of everything already evacuated;
    // forwarding appends survivors past the scan pointer.
    std::size_t scan = toBase;
    std::uint64_t liveObjects = 0;
    while (scan < toCursor) {
        const SimAddr obj = seg::kHeap + scan;
        ctx.load(kGcPc + 0x50, obj);
        ++liveObjects;
        forEachRefSlot(heap, ctx.registry, obj, [&](SimAddr slot) {
            const SimAddr child = refFromSlot(heap.loadU32(slot));
            // Children still point into from-space here.
            const SimAddr moved = forward(child);
            heap.storeSlot(slot,
                           static_cast<std::uint32_t>(moved
                                                      - seg::kHeap),
                           heap.refSlot(slot));
            ctx.store(kGcPc + 0x54, slot);
        });
        scan += objectBytesAt(heap, ctx.registry, obj);
    }

    ctx.sync.relocate([&](SimAddr obj) -> SimAddr {
        const auto it =
            fwd.find(static_cast<std::uint32_t>(obj - seg::kHeap));
        return it == fwd.end() ? 0 : seg::kHeap + it->second;
    });

    // The vacated space is the mutator's next to-space. Zero its used
    // extent now: the allocator promises zeroed objects, and the bump
    // path past the next flip's survivors would otherwise hand out
    // stale field bytes and ref bits. Pages past the extent were never
    // touched and are still zero.
    heap.clearRange(heap.windowBase(),
                    heap.windowCursor() - heap.windowBase());
    heap.resetWindow(toBase, toCursor, spaceLimit(to));
    active_ = to;

    ctx.control(kGcPc + 0x58, NKind::Ret, 0);

    stats.liveBytesLast = toCursor - toBase;
    stats.liveObjectsLast = liveObjects;
    stats.rootsLast = roots;
}

} // namespace jrs::gc
