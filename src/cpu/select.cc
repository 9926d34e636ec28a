#include "cpu/select.h"

#include <atomic>
#include <cstring>

#include "cpu/vector_ops.h"
#include "cpu/vector_ops_internal.h"

namespace crystal::cpu {

namespace {

// Vector size for the two-pass scheme: small enough that the second pass
// reads from L1 ("a vector is about 1000 entries", Section 3.2).
constexpr int kVectorSize = 1024;

// Shared driver: walks the thread's partition in vectors, counts with
// `count_fn`, claims output space, and copies with `copy_fn`.
template <typename CountFn, typename CopyFn>
int64_t SelectDriver(const float* in, int64_t n, float v, float* out,
                     ThreadPool& pool, CountFn count_fn, CopyFn copy_fn) {
  std::atomic<int64_t> cursor{0};
  pool.ParallelFor(n, [&](int, int64_t begin, int64_t end) {
    for (int64_t lo = begin; lo < end; lo += kVectorSize) {
      const int64_t hi = lo + kVectorSize < end ? lo + kVectorSize : end;
      const int64_t matches = count_fn(in + lo, hi - lo, v);
      if (matches == 0) continue;
      const int64_t off = cursor.fetch_add(matches);
      copy_fn(in + lo, hi - lo, v, out + off, matches);
    }
  });
  return cursor.load();
}

int64_t CountPredicated(const float* in, int64_t n, float v) {
  int64_t c = 0;
  for (int64_t i = 0; i < n; ++i) c += in[i] < v ? 1 : 0;
  return c;
}

}  // namespace

int64_t SelectBranching(const float* in, int64_t n, float v, float* out,
                        ThreadPool& pool) {
  return SelectDriver(
      in, n, v, out, pool, CountPredicated,
      [](const float* src, int64_t len, float cut, float* dst, int64_t) {
        int64_t w = 0;
        for (int64_t i = 0; i < len; ++i) {
          if (src[i] < cut) {  // branch: mispredicts at mid selectivities
            dst[w++] = src[i];
          }
        }
      });
}

int64_t SelectPredicated(const float* in, int64_t n, float v, float* out,
                         ThreadPool& pool) {
  return SelectDriver(
      in, n, v, out, pool, CountPredicated,
      [](const float* src, int64_t len, float cut, float* dst,
         int64_t matches) {
        // The unconditional store writes one slot past the last match, so
        // stage into a local buffer and copy exactly the claimed range.
        float buf[kVectorSize];
        int64_t w = 0;
        for (int64_t i = 0; i < len; ++i) {
          buf[w] = src[i];
          w += src[i] < cut ? 1 : 0;  // data dependency, no branch
        }
        std::memcpy(dst, buf, static_cast<size_t>(matches) * sizeof(float));
      });
}

int64_t SelectSimdPredicated(const float* in, int64_t n, float v, float* out,
                             ThreadPool& pool) {
  // Same runtime dispatch as the vector-ops pipeline primitives: the AVX2
  // kernels live in the dedicated -mavx2 TU and are taken only when the
  // host supports them (and CRYSTAL_SIMD=0 is not set).
  if (!SimdEnabled()) return SelectPredicated(in, n, v, out, pool);
  // The compacted tail may scribble up to 7 lanes past the claimed range;
  // each vector's copy stays within its claim except transiently, so run the
  // SIMD copy against a small local buffer and memcpy the exact count.
  return SelectDriver(
      in, n, v, out, pool, internal::CountLessAvx2,
      [](const float* src, int64_t len, float cut, float* dst,
         int64_t matches) {
        alignas(32) float buf[kVectorSize + 8];
        internal::CompactLessAvx2(src, len, cut, buf);
        std::memcpy(dst, buf, static_cast<size_t>(matches) * sizeof(float));
      });
}

}  // namespace crystal::cpu
