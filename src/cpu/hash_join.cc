#include "cpu/hash_join.h"

#include <atomic>

#include "common/bitutil.h"
#include "common/macros.h"
#include "cpu/vector_ops.h"
#include "cpu/vector_ops_internal.h"

namespace crystal::cpu {

int64_t HashTable::SlotsFor(int64_t expected_keys, double max_fill) {
  return static_cast<int64_t>(NextPowerOfTwo(static_cast<uint64_t>(
      static_cast<double>(expected_keys) / max_fill + 1)));
}

HashTable::HashTable(int64_t expected_keys, double max_fill)
    : slots_(static_cast<size_t>(SlotsFor(expected_keys, max_fill))),
      mask_(static_cast<uint32_t>(slots_.size() - 1)) {
  std::fill(slots_.begin(), slots_.end(), 0);
}

void HashTable::Insert(int32_t key, int32_t value) {
  CRYSTAL_CHECK(key >= 0);
  // Reserve-one-empty-slot guard: claiming the count before the slot keeps
  // the table from ever becoming completely full, so a miss probe (which
  // stops only at an empty slot) cannot cycle the whole table forever. The
  // hazard is real with max_fill = 1.0 and a key count that lands exactly on
  // a power of two — see HashTableTest.FullTableInsertAborts.
  const int64_t prior = size_.fetch_add(1, std::memory_order_relaxed);
  CRYSTAL_CHECK_MSG(prior + 1 < num_slots(),
                    "hash table full: one slot must stay empty");
  auto* slots = reinterpret_cast<std::atomic<uint64_t>*>(slots_.data());
  const uint64_t packed = EncodeSlot(key, value);
  uint64_t slot = HashMurmur32(static_cast<uint32_t>(key)) & mask_;
  for (;;) {
    uint64_t expected = 0;
    if (slots[slot].compare_exchange_strong(expected, packed,
                                            std::memory_order_relaxed)) {
      break;
    }
    CRYSTAL_CHECK_MSG(SlotKey(expected) != key, "duplicate build key");
    slot = (slot + 1) & mask_;
  }
}

void HashTable::Build(const int32_t* keys, const int32_t* values, int64_t n,
                      ThreadPool& pool) {
  pool.ParallelFor(n, [&](int, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) Insert(keys[i], values[i]);
  });
}

bool HashTable::Lookup(int32_t key, int32_t* value) const {
  uint64_t slot = HashMurmur32(static_cast<uint32_t>(key)) & mask_;
  for (int64_t step = 0; step < num_slots(); ++step) {
    const uint64_t s = slots_[slot];
    if (SlotEmpty(s)) return false;
    if (SlotKey(s) == key) {
      *value = SlotValue(s);
      return true;
    }
    slot = (slot + 1) & mask_;
  }
  return false;
}

namespace {

template <typename BodyFn>
ProbeResult ProbeDriver(int64_t n, ThreadPool& pool, BodyFn body) {
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> matches{0};
  pool.ParallelFor(n, [&](int, int64_t begin, int64_t end) {
    int64_t local_sum = 0;
    int64_t local_matches = 0;
    body(begin, end, &local_sum, &local_matches);
    sum.fetch_add(local_sum, std::memory_order_relaxed);
    matches.fetch_add(local_matches, std::memory_order_relaxed);
  });
  return ProbeResult{sum.load(), matches.load()};
}

}  // namespace

ProbeResult ProbeScalar(const HashTable& table, const int32_t* keys,
                        const int32_t* vals, int64_t n, ThreadPool& pool) {
  return ProbeDriver(n, pool, [&](int64_t begin, int64_t end, int64_t* sum,
                                  int64_t* matches) {
    for (int64_t i = begin; i < end; ++i) {
      int32_t payload;
      if (table.Lookup(keys[i], &payload)) {
        *sum += static_cast<int64_t>(vals[i]) + payload;
        ++*matches;
      }
    }
  });
}

ProbeResult ProbeSimd(const HashTable& table, const int32_t* keys,
                      const int32_t* vals, int64_t n, ThreadPool& pool) {
  // Runtime-dispatched like the vector-ops primitives: the vertical AVX2
  // probe lives in the dedicated -mavx2 TU; hosts without AVX2 (or with
  // CRYSTAL_SIMD=0) fall back to the scalar probe.
  if (!SimdEnabled()) return ProbeScalar(table, keys, vals, n, pool);
  return ProbeDriver(n, pool, [&](int64_t begin, int64_t end, int64_t* sum,
                                  int64_t* matches) {
    internal::ProbeSumAvx2(table, keys, vals, begin, end, sum, matches);
  });
}

ProbeResult ProbePrefetch(const HashTable& table, const int32_t* keys,
                          const int32_t* vals, int64_t n, ThreadPool& pool,
                          int prefetch_distance) {
  const uint64_t* slots = table.slots();
  const uint32_t mask = table.mask();
  return ProbeDriver(n, pool, [&](int64_t begin, int64_t end, int64_t* sum,
                                  int64_t* matches) {
    for (int64_t i = begin; i < end; ++i) {
      const int64_t ahead = i + prefetch_distance;
      if (ahead < end) {
        const uint64_t slot =
            HashMurmur32(static_cast<uint32_t>(keys[ahead])) & mask;
        __builtin_prefetch(&slots[slot], 0 /*read*/, 1 /*low locality*/);
      }
      int32_t payload;
      if (table.Lookup(keys[i], &payload)) {
        *sum += static_cast<int64_t>(vals[i]) + payload;
        ++*matches;
      }
    }
  });
}

}  // namespace crystal::cpu
