#ifndef CRYSTAL_CPU_HASH_JOIN_H_
#define CRYSTAL_CPU_HASH_JOIN_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/thread_pool.h"

namespace crystal::cpu {

/// CPU-side linear-probing hash table for the no-partitioning join
/// (Section 4.3): an array of packed (key+1, value) uint64 slots, no
/// pointers, power-of-two capacity sized for a 50% fill rate.
///
/// Invariant: at least one slot is always empty (inserts abort before the
/// table can fill completely), so every miss probe — scalar walks, the
/// vertical-SIMD lane walks in vector_ops, and group-prefetch probes —
/// terminates at an empty slot instead of cycling forever.
class HashTable {
 public:
  explicit HashTable(int64_t expected_keys, double max_fill = 0.5);

  /// Movable (builders return tables by value); the atomic insert counter
  /// requires spelling the move out. Not concurrency-safe against in-flight
  /// inserts, like any move.
  HashTable(HashTable&& other) noexcept
      : slots_(std::move(other.slots_)),
        mask_(other.mask_),
        size_(other.size_.load(std::memory_order_relaxed)) {}

  /// Parallel build: threads claim slots with compare-and-swap (the standard
  /// no-partitioning build phase). Keys must be unique and >= 0.
  void Build(const int32_t* keys, const int32_t* values, int64_t n,
             ThreadPool& pool);

  /// Single atomic insert (CAS slot claim); safe to call concurrently from
  /// many threads, e.g. a parallel filtered build that skips the
  /// materialize-then-Build detour. Key must be unique and >= 0. Aborts if
  /// the insert would fill the last empty slot (see class invariant).
  void Insert(int32_t key, int32_t value);

  /// Probe for `key`; returns true and sets *value on match.
  bool Lookup(int32_t key, int32_t* value) const;

  const uint64_t* slots() const { return slots_.data(); }
  int64_t num_slots() const { return static_cast<int64_t>(slots_.size()); }
  int64_t bytes() const { return num_slots() * 8; }
  /// Keys inserted so far (always < num_slots()).
  int64_t size() const { return size_.load(std::memory_order_relaxed); }
  uint32_t mask() const { return mask_; }

  static uint64_t EncodeSlot(int32_t key, int32_t value) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(key) + 1u) << 32) |
           static_cast<uint32_t>(value);
  }
  static bool SlotEmpty(uint64_t s) { return s == 0; }
  static int32_t SlotKey(uint64_t s) {
    return static_cast<int32_t>(static_cast<uint32_t>(s >> 32) - 1u);
  }
  static int32_t SlotValue(uint64_t s) {
    return static_cast<int32_t>(static_cast<uint32_t>(s));
  }

 private:
  /// Slot count the constructor allocates for these arguments (a power of
  /// two).
  static int64_t SlotsFor(int64_t expected_keys, double max_fill);

  AlignedVector<uint64_t> slots_;
  uint32_t mask_;
  /// Insert count; bumped by every Insert (possibly from many threads).
  std::atomic<int64_t> size_{0};
};

/// Probe-phase variants for the microbenchmark Q4
///   SELECT SUM(A.v + B.v) FROM A, B WHERE A.k = B.k
/// (build side already in `table`, payload = A.v). Each returns the checksum
/// and match count. All partition the probe input across the pool.
struct ProbeResult {
  int64_t checksum = 0;
  int64_t matches = 0;
};

/// "CPU Scalar": tuple-at-a-time probe with thread-local sums.
ProbeResult ProbeScalar(const HashTable& table, const int32_t* keys,
                        const int32_t* vals, int64_t n, ThreadPool& pool);

/// "CPU SIMD": vertical vectorization (Polychroniou et al.): one key per
/// SIMD lane, hash-table slots fetched with gathers (two 4x64-bit gathers
/// per 8 keys), finished lanes refilled each iteration. Falls back to
/// scalar without AVX2.
ProbeResult ProbeSimd(const HashTable& table, const int32_t* keys,
                      const int32_t* vals, int64_t n, ThreadPool& pool);

/// "CPU Prefetch": group prefetching (Chen et al.): hashes a group of keys,
/// issues software prefetches for their slots, then probes the group.
ProbeResult ProbePrefetch(const HashTable& table, const int32_t* keys,
                          const int32_t* vals, int64_t n, ThreadPool& pool,
                          int prefetch_distance = 16);

}  // namespace crystal::cpu

#endif  // CRYSTAL_CPU_HASH_JOIN_H_
