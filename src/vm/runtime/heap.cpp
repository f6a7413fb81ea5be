#include "vm/runtime/heap.h"

#include <cstring>
#include <new>

namespace jrs {

namespace {

/** Header layout: bits 0..15 klass id, bits 16..18 array kind,
 *  bit 31 array flag. */
constexpr std::uint32_t kArrayFlag = 0x8000'0000u;

std::uint32_t
makeHeader(ClassId cls, bool is_array, ArrayKind kind)
{
    std::uint32_t h = cls;
    if (is_array) {
        h |= kArrayFlag;
        h |= static_cast<std::uint32_t>(kind) << 16;
    }
    return h;
}

/** @p n zeroed T from calloc (see the file comment in heap.h). */
template <class T>
T *
zeroed(std::size_t n)
{
    void *p = std::calloc(n == 0 ? 1 : n, sizeof(T));
    if (p == nullptr)
        throw std::bad_alloc();
    return static_cast<T *>(p);
}

} // namespace

Heap::Heap(std::size_t capacity_bytes)
    : capacity_(capacity_bytes),
      storage_(zeroed<std::uint8_t>(capacity_bytes)),
      refBits_(zeroed<std::uint64_t>((capacity_bytes / 4 + 63) / 64 + 1)),
      cursor_(16),  // offset 0 reserved so a null ref is never valid
      allocLimit_(capacity_bytes)
{
}

std::size_t
Heap::offsetOf(SimAddr addr) const
{
    if (addr < seg::kHeap || addr - seg::kHeap >= capacity_)
        throw VmError("heap access out of range");
    return static_cast<std::size_t>(addr - seg::kHeap);
}

bool
Heap::canAllocate(std::size_t bytes) const
{
    const std::size_t aligned = (bytes + 7) & ~std::size_t{7};
    if (cursor_ + aligned <= allocLimit_)
        return true;
    for (const FreeBlock &b : freeList_)
        if (b.size >= aligned)
            return true;
    return false;
}

SimAddr
Heap::bump(std::size_t bytes)
{
    const std::size_t aligned = (bytes + 7) & ~std::size_t{7};

    // First-fit from the sweep's free list (empty without a collector,
    // so the un-collected path is the original bump allocator).
    for (auto it = freeList_.begin(); it != freeList_.end(); ++it) {
        if (it->size < aligned)
            continue;
        const std::size_t off = it->off;
        if (it->size - aligned >= 8) {
            it->off += static_cast<std::uint32_t>(aligned);
            it->size -= static_cast<std::uint32_t>(aligned);
            // The remainder must stay walkable for the next sweep.
            writeFiller(it->off, it->size);
        } else {
            freeList_.erase(it);
        }
        clearRange(off, aligned);
        totalAllocated_ += aligned;
        ++allocCount_;
        return seg::kHeap + off;
    }

    if (cursor_ + aligned > allocLimit_)
        throw VmError("heap exhausted");
    const SimAddr addr = seg::kHeap + cursor_;
    cursor_ += aligned;
    totalAllocated_ += aligned;
    ++allocCount_;
    return addr;
}

SimAddr
Heap::allocObject(ClassId cls, std::uint16_t num_fields)
{
    const SimAddr addr = bump(8 + 4u * num_fields);
    storeU32(addr, makeHeader(cls, false, ArrayKind::Int));
    storeU32(addr + 4, 0);  // lockword
    return addr;
}

SimAddr
Heap::allocArray(ArrayKind kind, std::int32_t length)
{
    if (length < 0)
        throw VmError("negative array size reached allocator");
    const std::size_t bytes = 12
        + static_cast<std::size_t>(length) * arrayElemSize(kind);
    const SimAddr addr = bump(bytes);
    storeU32(addr, makeHeader(0, true, kind));
    storeU32(addr + 4, 0);
    storeU32(addr + 8, static_cast<std::uint32_t>(length));
    return addr;
}

std::uint32_t
Heap::loadU32(SimAddr addr) const
{
    std::uint32_t v;
    std::memcpy(&v, &storage_[offsetOf(addr)], sizeof(v));
    return v;
}

void
Heap::storeU32(SimAddr addr, std::uint32_t v)
{
    const std::size_t off = offsetOf(addr);
    std::memcpy(&storage_[off], &v, sizeof(v));
    setRefBit(off, false);
}

std::uint16_t
Heap::loadU16(SimAddr addr) const
{
    std::uint16_t v;
    std::memcpy(&v, &storage_[offsetOf(addr)], sizeof(v));
    return v;
}

void
Heap::storeU16(SimAddr addr, std::uint16_t v)
{
    const std::size_t off = offsetOf(addr);
    std::memcpy(&storage_[off], &v, sizeof(v));
    setRefBit(off, false);
}

std::uint8_t
Heap::loadU8(SimAddr addr) const
{
    return storage_[offsetOf(addr)];
}

void
Heap::storeU8(SimAddr addr, std::uint8_t v)
{
    const std::size_t off = offsetOf(addr);
    storage_[off] = v;
    setRefBit(off, false);
}

ClassId
Heap::klassOf(SimAddr obj) const
{
    return static_cast<ClassId>(loadU32(obj) & 0xffffu);
}

bool
Heap::isArray(SimAddr obj) const
{
    return (loadU32(obj) & kArrayFlag) != 0;
}

ArrayKind
Heap::arrayKindOf(SimAddr arr) const
{
    return static_cast<ArrayKind>((loadU32(arr) >> 16) & 0x7u);
}

std::int32_t
Heap::arrayLength(SimAddr arr) const
{
    return static_cast<std::int32_t>(loadU32(arr + 8));
}

SimAddr
Heap::elemAddr(SimAddr arr, std::int32_t index) const
{
    return arr + 12
        + static_cast<SimAddr>(index)
        * arrayElemSize(arrayKindOf(arr));
}

bool
Heap::validRef(SimAddr addr) const
{
    return addr >= seg::kHeap + 16 && addr < seg::kHeap + cursor_;
}

std::uint64_t
Heap::contentHash() const
{
    std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
    for (std::size_t i = 0; i < cursor_; ++i) {
        h ^= storage_[i];
        h *= 1099511628211ull;  // FNV prime
    }
    return h;
}

void
Heap::clearRange(std::size_t off, std::size_t bytes)
{
    if (bytes == 0)
        return;
    std::memset(&storage_[off], 0, bytes);
    // Ref bits of every word the range overlaps; whole bitmap words
    // at a time between the partial ends.
    std::size_t w = off >> 2;
    const std::size_t end = (off + bytes + 3) >> 2;
    for (; w < end && (w & 63) != 0; ++w)
        setRefBit(w << 2, false);
    for (; w + 64 <= end; w += 64)
        refBits_[w >> 6] = 0;
    for (; w < end; ++w)
        setRefBit(w << 2, false);
}

void
Heap::writeFiller(std::size_t off, std::size_t size)
{
    const SimAddr addr = seg::kHeap + off;
    if (size >= 16) {
        storeU32(addr, makeHeader(0, true, ArrayKind::Byte));
        storeU32(addr + 4, 0);
        storeU32(addr + 8, static_cast<std::uint32_t>(size - 12));
    } else {
        storeU32(addr, makeHeader(kGcFillerClassId, false,
                                  ArrayKind::Int));
        storeU32(addr + 4, 0);
    }
}

void
Heap::setFreeBlocks(std::vector<FreeBlock> blocks)
{
    for (const FreeBlock &b : blocks) {
        clearRange(b.off, b.size);
        writeFiller(b.off, b.size);
    }
    freeList_ = std::move(blocks);
}

void
Heap::resetWindow(std::size_t base, std::size_t cursor,
                  std::size_t limit)
{
    if (base < 16 || cursor < base || limit < cursor
        || limit > capacity_)
        throw VmError("bad heap allocation window");
    allocBase_ = base;
    cursor_ = cursor;
    allocLimit_ = limit;
    freeList_.clear();
}

void
Heap::rawCopy(std::size_t dst_off, std::size_t src_off,
              std::size_t bytes)
{
    std::memmove(&storage_[dst_off], &storage_[src_off], bytes);
}

} // namespace jrs
