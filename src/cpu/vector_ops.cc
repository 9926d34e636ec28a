#include "cpu/vector_ops.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/bitutil.h"
#include "cpu/vector_ops_internal.h"

namespace crystal::cpu {

namespace internal {

const PermTable& GetPermTable() {
  static const PermTable* table = new PermTable();
  return *table;
}

}  // namespace internal

namespace {

bool CpuSupportsAvx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  // The kernel TU is compiled with -mavx2 -mfma (the projection kernels use
  // FMA), so the dispatch requires both feature bits.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// CRYSTAL_SIMD=0 forces the scalar path (conformance runs both); anything
// else leaves the runtime-detected default.
bool InitialEnabled() {
  if (!SimdAvailable()) return false;
  const char* env = std::getenv("CRYSTAL_SIMD");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{InitialEnabled()};
  return enabled;
}

// --------------------------- scalar kernels ------------------------------

int SelectRangeScalar(const int32_t* col, int n, int32_t lo, int32_t hi,
                      int32_t* sel) {
  // Branch-free predication (Fig. 15b): the cursor advance is a data
  // dependency, so intermediate selectivities cost no mispredictions.
  int w = 0;
  for (int i = 0; i < n; ++i) {
    sel[w] = i;
    w += (col[i] >= lo && col[i] <= hi) ? 1 : 0;
  }
  return w;
}

int RefineRangeScalar(const int32_t* col, const int32_t* sel, int m,
                      int32_t lo, int32_t hi, int32_t* sel_out) {
  int w = 0;
  for (int i = 0; i < m; ++i) {
    const int32_t v = col[sel[i]];
    sel_out[w] = sel[i];
    w += (v >= lo && v <= hi) ? 1 : 0;
  }
  return w;
}

/// The `W`-byte little-endian slot `off` of a direct payload array.
template <int W>
inline int32_t LoadSlot(const uint8_t* payload, int64_t off) {
  if constexpr (W == 1) {
    return payload[off];
  } else if constexpr (W == 2) {
    uint16_t v = 0;
    std::memcpy(&v, payload + 2 * off, 2);
    return v;
  } else {
    int32_t v = 0;
    std::memcpy(&v, payload + 4 * off, 4);
    return v;
  }
}

/// ProbeDirect for one form (see ProbeDirectForm in vector_ops_avx2.cc):
/// branch-free predication, the cursor advance a data dependency.
template <int W, bool kBits, bool kPayload>
int ProbeDirectScalar(const DirectTable& t, const int32_t* keys,
                      const int32_t* sel, int m, int32_t* sel_out,
                      int32_t* val_out, int32_t* pos_out) {
  int w = 0;
  for (int i = 0; i < m; ++i) {
    const int32_t row = sel != nullptr ? sel[i] : i;
    // One unsigned compare folds both range ends (off < 0 wraps huge).
    const int64_t off = static_cast<int64_t>(keys[row]) - t.base;
    const bool in = static_cast<uint64_t>(off) < static_cast<uint64_t>(t.span);
    const int64_t safe = in ? off : 0;
    int32_t value = 0;
    bool found = false;
    if constexpr (kBits) {
      found = in && ((t.bits[safe >> 5] >> (safe & 31)) & 1u) != 0;
      value = kPayload ? static_cast<int32_t>(safe) : keys[row];
    } else {
      value = LoadSlot<W>(t.payload, safe);
      found = in && value != DirectSentinel(W);
    }
    sel_out[w] = row;
    if (val_out != nullptr) val_out[w] = value;
    if (pos_out != nullptr) pos_out[w] = i;
    w += found ? 1 : 0;
  }
  if constexpr (kBits && kPayload) {
    // Two-level: only the survivors' slots touch the payload array.
    if (val_out != nullptr) {
      for (int j = 0; j < w; ++j) {
        val_out[j] = LoadSlot<W>(t.payload, val_out[j]);
      }
    }
  }
  return w;
}

int ProbeDirectScalar(const DirectTable& t, const int32_t* keys,
                      const int32_t* sel, int m, int32_t* sel_out,
                      int32_t* val_out, int32_t* pos_out) {
  if (t.payload == nullptr) {
    return ProbeDirectScalar<4, true, false>(t, keys, sel, m, sel_out,
                                             val_out, pos_out);
  }
  const bool two_level = t.bits != nullptr;
  switch (t.width) {
    case 1:
      return two_level ? ProbeDirectScalar<1, true, true>(
                             t, keys, sel, m, sel_out, val_out, pos_out)
                       : ProbeDirectScalar<1, false, true>(
                             t, keys, sel, m, sel_out, val_out, pos_out);
    case 2:
      return two_level ? ProbeDirectScalar<2, true, true>(
                             t, keys, sel, m, sel_out, val_out, pos_out)
                       : ProbeDirectScalar<2, false, true>(
                             t, keys, sel, m, sel_out, val_out, pos_out);
    default:
      return two_level ? ProbeDirectScalar<4, true, true>(
                             t, keys, sel, m, sel_out, val_out, pos_out)
                       : ProbeDirectScalar<4, false, true>(
                             t, keys, sel, m, sel_out, val_out, pos_out);
  }
}

// ----------------------- packed scalar kernels ---------------------------

void UnpackRangeScalar(const uint32_t* words, int bits, int32_t reference,
                       int64_t start, int n, int32_t* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = PackedGet(words, bits, reference, start + i);
  }
}

void UnpackAtScalar(const uint32_t* words, int bits, int32_t reference,
                    int64_t start, const int32_t* sel, int m, int32_t* out) {
  for (int i = 0; i < m; ++i) {
    out[sel[i]] = PackedGet(words, bits, reference, start + sel[i]);
  }
}

int SelectRangePackedScalar(const uint32_t* words, int bits,
                            int32_t reference, int64_t start, int n,
                            int32_t lo, int32_t hi, int32_t* sel) {
  // Same branch-free predication as SelectRangeScalar, with the decode
  // fused in front of the compare.
  int w = 0;
  for (int i = 0; i < n; ++i) {
    const int32_t v = PackedGet(words, bits, reference, start + i);
    sel[w] = i;
    w += (v >= lo && v <= hi) ? 1 : 0;
  }
  return w;
}

int RefineRangePackedScalar(const uint32_t* words, int bits,
                            int32_t reference, int64_t start,
                            const int32_t* sel, int m, int32_t lo, int32_t hi,
                            int32_t* sel_out) {
  int w = 0;
  for (int i = 0; i < m; ++i) {
    const int32_t v = PackedGet(words, bits, reference, start + sel[i]);
    sel_out[w] = sel[i];
    w += (v >= lo && v <= hi) ? 1 : 0;
  }
  return w;
}

}  // namespace

bool SimdAvailable() {
  static const bool available = internal::HaveAvx2Kernels() &&
                                CpuSupportsAvx2();
  return available;
}

bool SimdEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetSimdEnabled(bool enabled) {
  EnabledFlag().store(enabled && SimdAvailable(),
                      std::memory_order_relaxed);
}

int SelectRange(const int32_t* col, int n, int32_t lo, int32_t hi,
                int32_t* sel) {
  if (SimdEnabled()) return internal::SelectRangeAvx2(col, n, lo, hi, sel);
  return SelectRangeScalar(col, n, lo, hi, sel);
}

int RefineRange(const int32_t* col, const int32_t* sel, int m, int32_t lo,
                int32_t hi, int32_t* sel_out) {
  if (SimdEnabled())
    return internal::RefineRangeAvx2(col, sel, m, lo, hi, sel_out);
  return RefineRangeScalar(col, sel, m, lo, hi, sel_out);
}

int ProbeDirect(const DirectTable& table, const int32_t* keys,
                const int32_t* sel, int m, int32_t* sel_out,
                int32_t* val_out, int32_t* pos_out) {
  if (SimdEnabled()) {
    return internal::ProbeDirectAvx2(table, keys, sel, m, sel_out, val_out,
                                     pos_out);
  }
  return ProbeDirectScalar(table, keys, sel, m, sel_out, val_out, pos_out);
}

void UnpackRange(const uint32_t* words, int bits, int32_t reference,
                 int64_t start, int n, int32_t* out) {
  if (SimdEnabled()) {
    internal::UnpackRangeAvx2(words, bits, reference, start, n, out);
    return;
  }
  UnpackRangeScalar(words, bits, reference, start, n, out);
}

void UnpackAt(const uint32_t* words, int bits, int32_t reference,
              int64_t start, const int32_t* sel, int m, int32_t* out) {
  if (SimdEnabled()) {
    internal::UnpackAtAvx2(words, bits, reference, start, sel, m, out);
    return;
  }
  UnpackAtScalar(words, bits, reference, start, sel, m, out);
}

void UnpackSurvivors(const uint32_t* words, int bits, int32_t reference,
                     int64_t start, const int32_t* sel, int m, int32_t* out) {
  if (SimdEnabled() && m > 0 &&
      int64_t{m} * kDenseSurvivorStride >= int64_t{sel[m - 1]} + 1) {
    internal::UnpackRangeAvx2(words, bits, reference, start, sel[m - 1] + 1,
                              out);
    return;
  }
  UnpackAt(words, bits, reference, start, sel, m, out);
}

int SelectRangePacked(const uint32_t* words, int bits, int32_t reference,
                      int64_t start, int n, int32_t lo, int32_t hi,
                      int32_t* sel) {
  if (SimdEnabled()) {
    return internal::SelectRangePackedAvx2(words, bits, reference, start, n,
                                           lo, hi, sel);
  }
  return SelectRangePackedScalar(words, bits, reference, start, n, lo, hi,
                                 sel);
}

int RefineRangePacked(const uint32_t* words, int bits, int32_t reference,
                      int64_t start, const int32_t* sel, int m, int32_t lo,
                      int32_t hi, int32_t* sel_out) {
  if (SimdEnabled()) {
    return internal::RefineRangePackedAvx2(words, bits, reference, start, sel,
                                           m, lo, hi, sel_out);
  }
  return RefineRangePackedScalar(words, bits, reference, start, sel, m, lo,
                                 hi, sel_out);
}

void CompactInPlace(int32_t* v, const int32_t* pos, int m) {
  // pos is strictly increasing with pos[j] >= j, so the forward scan never
  // reads an already-overwritten entry.
  for (int j = 0; j < m; ++j) v[j] = v[pos[j]];
}

}  // namespace crystal::cpu
