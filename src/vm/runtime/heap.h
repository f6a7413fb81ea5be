/**
 * @file
 * The simulated Java heap.
 *
 * A bump-allocated arena addressed by simulated addresses in
 * seg::kHeap. Object layout (little-endian, 4-byte slots):
 *
 *   objects:  [0] header (klass id, flags)   [4] lockword
 *             [8...] instance fields, 4 bytes each
 *   arrays:   [0] header                      [4] lockword
 *             [8] length                      [12...] elements
 *
 * Collection is pluggable (src/gc/): with no collector configured the
 * arena is the paper's plain bump allocator, bit-identical to the
 * original GC-less design. A collector adds three capabilities the
 * arena exposes here:
 *
 *  - a per-word ref bitmap maintained at store time (object fields are
 *    untyped in ClassDef; the typed access opcodes tell us which slots
 *    hold references), so precise tracing never guesses;
 *  - a first-fit free list for the non-moving mark-sweep collector.
 *    Freed runs are rewritten as walkable filler pseudo-objects so a
 *    linear sweep can always parse the arena;
 *  - an allocation window for the semispace copying collector (each
 *    space is half the arena; resetWindow() flips them).
 *
 * The arena and the ref bitmap are calloc'd: large blocks come straight
 * from the kernel's zero pages, so an engine pays only for the pages
 * its program touches, not for zero-filling the whole capacity up
 * front. Every path that hands memory back to the mutator (the free
 * list, the semispace flip) clears it with clearRange() first, so
 * allocations stay zeroed.
 */
#ifndef JRS_VM_RUNTIME_HEAP_H
#define JRS_VM_RUNTIME_HEAP_H

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "isa/address_map.h"
#include "vm/bytecode/class_def.h"
#include "vm/bytecode/opcode.h"
#include "vm/runtime/value.h"
#include "vm/runtime/vm_error.h"

namespace jrs {

/** Pseudo class-id base for builtin exception objects. */
inline constexpr ClassId kBuiltinExClassBase = 0xff00;

/** Pseudo class-id of the GC's 8-byte free-space filler object. */
inline constexpr ClassId kGcFillerClassId = 0xfffe;

/** Default arena capacity (the original fixed size, now tunable). */
inline constexpr std::size_t kDefaultHeapBytes = 64u << 20;

/** Class id for a builtin exception kind. */
inline ClassId
builtinExClassId(BuiltinEx kind)
{
    return static_cast<ClassId>(kBuiltinExClassBase
                                + static_cast<ClassId>(kind));
}

/** The simulated heap arena. */
class Heap {
  public:
    /** @param capacity_bytes Arena capacity (default 64 MiB). */
    explicit Heap(std::size_t capacity_bytes = kDefaultHeapBytes);

    // --- allocation ----------------------------------------------------

    /** Allocate a zeroed object with @p num_fields 4-byte slots. */
    SimAddr allocObject(ClassId cls, std::uint16_t num_fields);

    /** Allocate a zeroed array. Throws VmError on negative length. */
    SimAddr allocArray(ArrayKind kind, std::int32_t length);

    /**
     * Bytes handed out so far (Table 1 accounting). Monotonic even
     * when a collector recycles memory: it counts every allocation's
     * aligned size plus the 16-byte reserved prefix, which makes it
     * bit-identical to the bump cursor when no collector runs.
     */
    std::size_t bytesAllocated() const { return totalAllocated_; }

    /** Number of allocations performed. */
    std::uint64_t allocationCount() const { return allocCount_; }

    /** Arena capacity in bytes. */
    std::size_t capacity() const { return capacity_; }

    /** True when an allocation of @p bytes would succeed right now. */
    bool canAllocate(std::size_t bytes) const;

    // --- raw access (callers emit the trace events) ---------------------

    std::uint32_t loadU32(SimAddr addr) const;
    void storeU32(SimAddr addr, std::uint32_t v);
    std::uint16_t loadU16(SimAddr addr) const;
    void storeU16(SimAddr addr, std::uint16_t v);
    std::uint8_t loadU8(SimAddr addr) const;
    void storeU8(SimAddr addr, std::uint8_t v);

    /**
     * Store a 4-byte slot and record whether it now holds a reference
     * (slot-encoded heap offset). The per-word ref bitmap is what
     * makes precise GC possible over untyped object fields: the typed
     * store sites (PutFieldA / AAstore / StRef / ref arraycopy) pass
     * @p is_ref = true, every other 4-byte store clears the bit.
     */
    void storeSlot(SimAddr addr, std::uint32_t bits, bool is_ref) {
        storeU32(addr, bits);
        setRefBit(offsetOf(addr), is_ref);
    }

    /** True when the 4-byte slot at @p addr last held a reference. */
    bool refSlot(SimAddr addr) const {
        return refBitAt(offsetOf(addr));
    }

    // --- object helpers -------------------------------------------------

    /** Class id of the object at @p obj. */
    ClassId klassOf(SimAddr obj) const;

    /** True when @p obj is an array. */
    bool isArray(SimAddr obj) const;

    /** Element kind of the array at @p arr. */
    ArrayKind arrayKindOf(SimAddr arr) const;

    /** Length of the array at @p arr. */
    std::int32_t arrayLength(SimAddr arr) const;

    /** Simulated address of the lockword of @p obj. */
    static SimAddr lockwordAddr(SimAddr obj) { return obj + 4; }

    /** Read/write the lockword. */
    std::uint32_t lockword(SimAddr obj) const { return loadU32(obj + 4); }
    void setLockword(SimAddr obj, std::uint32_t v) { storeU32(obj + 4, v); }

    /** Simulated address of instance-field slot @p slot. */
    static SimAddr fieldAddr(SimAddr obj, std::uint16_t slot) {
        return obj + 8 + 4u * slot;
    }

    /** Simulated address of array element @p index. */
    SimAddr elemAddr(SimAddr arr, std::int32_t index) const;

    /**
     * Bounds-checked element index validation; returns false when the
     * access must raise ArrayIndexOutOfBounds.
     */
    bool indexInBounds(SimAddr arr, std::int32_t index) const {
        return index >= 0 && index < arrayLength(arr);
    }

    /** True when @p addr lies within the allocated part of the arena. */
    bool validRef(SimAddr addr) const;

    /**
     * FNV-1a hash of the allocated part of the arena. The allocator is
     * a deterministic bump pointer, so two runs that perform the same
     * allocations and stores in the same order produce the same hash —
     * the heap component of jrs::check's VmStateDigest. With a
     * collector recycling addresses this hash covers dead and filler
     * bytes too; jrs::check switches to the reachability-ordered live
     * digest (src/gc/live_digest.h) whenever a collector is enabled.
     */
    std::uint64_t contentHash() const;

    // --- collector support (src/gc/) ------------------------------------

    /** One reusable run of free bytes, as (arena offset, size). */
    struct FreeBlock {
        std::uint32_t off = 0;
        std::uint32_t size = 0;
    };

    /**
     * Install the sweep's free list. Every block is zeroed (memory and
     * ref bits) and rewritten as a walkable filler pseudo-object: a
     * byte array for runs >= 16 bytes, an 8-byte kGcFillerClassId
     * object for the minimum run. Blocks must be sorted, 8-aligned,
     * and disjoint.
     */
    void setFreeBlocks(std::vector<FreeBlock> blocks);

    /** Current free list (sweep diagnostics / tests). */
    const std::vector<FreeBlock> &freeBlocks() const { return freeList_; }

    /**
     * Point allocation at [@p cursor, @p limit) within the arena (the
     * semispace flip). Drops the free list; @p base marks where a
     * linear walk of the active space starts.
     */
    void resetWindow(std::size_t base, std::size_t cursor,
                     std::size_t limit);

    /** First offset of the active allocation window. */
    std::size_t windowBase() const { return allocBase_; }

    /** One past the last allocated offset of the active window. */
    std::size_t windowCursor() const { return cursor_; }

    /** Exclusive end of the active allocation window. */
    std::size_t windowLimit() const { return allocLimit_; }

    /** Raw byte move within the arena (GC relocation; no events). */
    void rawCopy(std::size_t dst_off, std::size_t src_off,
                 std::size_t bytes);

    /** Ref bit of the 4-byte word at arena offset @p off. */
    bool refBitAt(std::size_t off) const {
        const std::size_t w = off >> 2;
        return (refBits_[w >> 6] >> (w & 63)) & 1u;
    }

    /** Set/clear the ref bit of the word at arena offset @p off. */
    void setRefBit(std::size_t off, bool is_ref) {
        const std::size_t w = off >> 2;
        const std::uint64_t mask = std::uint64_t{1} << (w & 63);
        if (is_ref)
            refBits_[w >> 6] |= mask;
        else
            refBits_[w >> 6] &= ~mask;
    }

    /** Zero @p bytes of memory and ref bits at arena offset @p off. */
    void clearRange(std::size_t off, std::size_t bytes);

  private:
    std::size_t offsetOf(SimAddr addr) const;
    SimAddr bump(std::size_t bytes);
    void writeFiller(std::size_t off, std::size_t size);

    struct Free {
        void operator()(void *p) const { std::free(p); }
    };

    std::size_t capacity_;
    std::unique_ptr<std::uint8_t[], Free> storage_;
    std::unique_ptr<std::uint64_t[], Free> refBits_;
    std::size_t cursor_;
    std::size_t allocBase_ = 16;
    std::size_t allocLimit_;
    std::size_t totalAllocated_ = 16;
    std::vector<FreeBlock> freeList_;
    std::uint64_t allocCount_ = 0;
};

} // namespace jrs

#endif // JRS_VM_RUNTIME_HEAP_H
