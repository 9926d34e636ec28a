#ifndef CRYSTAL_CPU_VECTOR_OPS_INTERNAL_H_
#define CRYSTAL_CPU_VECTOR_OPS_INTERNAL_H_

#include <cstdint>

#include "cpu/hash_join.h"
#include "cpu/vector_ops.h"

namespace crystal::cpu::internal {

/// perm_table[mask] holds the lane permutation that compacts the lanes
/// whose mask bit is set to the front (Polychroniou-style selective store).
/// Plain data, no intrinsics — shared by every SIMD translation unit that
/// compacts with permutevar8x32 (cpu/select.cc, cpu/vector_ops_avx2.cc).
struct PermTable {
  alignas(32) int32_t idx[256][8];
  PermTable() {
    for (int mask = 0; mask < 256; ++mask) {
      int k = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (mask & (1 << lane)) idx[mask][k++] = lane;
      }
      for (; k < 8; ++k) idx[mask][k] = 0;
    }
  }
};

/// Process-wide instance (defined in vector_ops.cc; safe on any host).
const PermTable& GetPermTable();

/// AVX2 kernel entry points, defined in vector_ops_avx2.cc — the only
/// translation unit compiled with -mavx2, so the scalar paths elsewhere can
/// never pick up AVX2 instructions by auto-vectorization. When the compiler
/// cannot target AVX2 the same TU provides stubs and HaveAvx2Kernels()
/// returns false; callers must gate on it (and on the runtime cpuid check).

bool HaveAvx2Kernels();

int SelectRangeAvx2(const int32_t* col, int n, int32_t lo, int32_t hi,
                    int32_t* sel);
int RefineRangeAvx2(const int32_t* col, const int32_t* sel, int m, int32_t lo,
                    int32_t hi, int32_t* sel_out);
int ProbeDirectAvx2(const DirectTable& table, const int32_t* keys,
                    const int32_t* sel, int m, int32_t* sel_out,
                    int32_t* val_out, int32_t* pos_out);

// Packed-column kernels (see vector_ops.h for contracts): densely read
// rows unpack from contiguous loads with a byte shuffle and per-lane
// shifts; UnpackAt and RefineRangePacked gather each survivor's word
// pair. Filters compare codes.

void UnpackRangeAvx2(const uint32_t* words, int bits, int32_t reference,
                     int64_t start, int n, int32_t* out);
void UnpackAtAvx2(const uint32_t* words, int bits, int32_t reference,
                  int64_t start, const int32_t* sel, int m, int32_t* out);
int SelectRangePackedAvx2(const uint32_t* words, int bits, int32_t reference,
                          int64_t start, int n, int32_t lo, int32_t hi,
                          int32_t* sel);
int RefineRangePackedAvx2(const uint32_t* words, int bits, int32_t reference,
                          int64_t start, const int32_t* sel, int m,
                          int32_t lo, int32_t hi, int32_t* sel_out);

// Micro-bench kernels (fig12 select, fig13 join) on the same dispatch: the
// callers in cpu/select.cc and cpu/hash_join.cc gate on SimdEnabled(), so
// the figures measure real AVX2 whenever the host supports it.

/// Counts entries with in[i] < v (8-lane compare + movemask popcount).
int64_t CountLessAvx2(const float* in, int64_t n, float v);

/// Selective store of entries with in[i] < v into `out` (compacted lanes
/// via the permutation table). `out` needs 7 floats of tail slack.
void CompactLessAvx2(const float* in, int64_t n, float v, float* out);

/// Vertical-vectorized probe of keys[begin..end) accumulating
/// sum(vals[i] + payload) and the match count (the fig13 "CPU SIMD"
/// variant: one in-flight key per lane, slots fetched with 4x64 gathers,
/// finished lanes refilled each iteration).
void ProbeSumAvx2(const HashTable& ht, const int32_t* keys,
                  const int32_t* vals, int64_t begin, int64_t end,
                  int64_t* sum, int64_t* matches);

// fig10 projection kernels (cpu/project.cc "CPU-Opt" variants) on the same
// dispatch: 8-lane FMA arithmetic with non-temporal stores, and a
// polynomial 8-lane exp for the sigmoid (~3e-5 relative error). Each call
// covers one thread's [begin, end) partition and fences its streaming
// stores before returning.

/// out[i] = a*x1[i] + b*x2[i] for i in [begin, end).
void ProjectLinearAvx2(const float* x1, const float* x2, int64_t begin,
                       int64_t end, float a, float b, float* out);

/// out[i] = sigmoid(a*x1[i] + b*x2[i]) for i in [begin, end).
void ProjectSigmoidAvx2(const float* x1, const float* x2, int64_t begin,
                        int64_t end, float a, float b, float* out);

}  // namespace crystal::cpu::internal

#endif  // CRYSTAL_CPU_VECTOR_OPS_INTERNAL_H_
