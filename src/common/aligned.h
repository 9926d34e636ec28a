#ifndef CRYSTAL_COMMON_ALIGNED_H_
#define CRYSTAL_COMMON_ALIGNED_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/memory.h"

namespace crystal {

/// STL allocator with 64-byte alignment so AVX2 loads/stores on column data
/// are always aligned and rows never straddle a cache line start. Every
/// allocation is routed through the process MemoryBudget's allocator ledger
/// (observability: aligned_bytes / aligned_peak_bytes), so an OOM is
/// attributable after the fact instead of a bare std::bad_alloc from
/// nowhere. The ledger observes; enforcement happens at the governor's
/// claim points (docs/ROBUSTNESS.md, "Memory governance").
///
/// Blocks of kMmapThreshold bytes or more bypass malloc and map pages
/// directly (page aligned, hence 64-byte aligned). Columns are often built
/// on pool workers (parallel datagen) and freed on another thread; through
/// malloc such a block lands in the worker's glibc arena, which may keep
/// the freed pages resident, so peak RSS would grow with the thread count.
/// munmap returns them to the OS whichever thread allocated. Value
/// semantics are unchanged: vectors still value-initialize their elements.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;
  static constexpr std::size_t kMmapThreshold = std::size_t{1} << 20;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    const std::size_t bytes = RoundUp(n * sizeof(T));
    void* p = nullptr;
    if (bytes >= kMmapThreshold) {
      p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
    } else {
      p = std::aligned_alloc(kAlignment, bytes);
      if (p == nullptr) throw std::bad_alloc();
    }
    MemoryBudget::Process().NoteAligned(static_cast<int64_t>(bytes));
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) {
    if (p == nullptr || n == 0) return;
    const std::size_t bytes = RoundUp(n * sizeof(T));
    MemoryBudget::Process().NoteAligned(-static_cast<int64_t>(bytes));
    if (bytes >= kMmapThreshold) {
      munmap(p, bytes);
    } else {
      std::free(p);
    }
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }

 private:
  static std::size_t RoundUp(std::size_t bytes) {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }
};

/// Column vector type used throughout: 64-byte aligned contiguous storage.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace crystal

#endif  // CRYSTAL_COMMON_ALIGNED_H_
