#ifndef CRYSTAL_COMMON_BITUTIL_H_
#define CRYSTAL_COMMON_BITUTIL_H_

#include <cstdint>

#include "common/macros.h"

namespace crystal {

/// True if v is a power of two (and nonzero).
constexpr bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Smallest power of two >= v (v must be <= 2^63).
constexpr uint64_t NextPowerOfTwo(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Integer log2 of a power of two.
constexpr int Log2(uint64_t v) {
  int r = 0;
  while (v > 1) {
    v >>= 1;
    ++r;
  }
  return r;
}

/// Ceil(a / b) for positive integers.
constexpr int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Readable words every bit-packed buffer carries past its payload
/// (storage::PackedWords). The scalar decode's 64-bit window reads one
/// word past a field's low word; the AVX2 dense decode loads a 16-byte
/// window (plus one byte for fields of 27 bits or more) at up to half a
/// group's bytes into its last full 8-row group, which reaches at most 16
/// bytes past the payload (cpu/vector_ops_avx2.cc, DenseDecoder).
inline constexpr int kPackedSlackWords = 4;

/// Frame-of-reference decode of row i of a bit-packed column: the
/// `bits`-wide code at bit i*bits plus `reference`, read through the
/// window words[w], words[w+1] (kPackedSlackWords keeps it in bounds).
/// The add wraps in uint32_t: at bits == 32 a signed add could overflow.
inline int32_t DecodePacked(const uint32_t* words, int bits, int32_t reference,
                            int64_t i) {
  const int64_t bit = i * bits;
  const int64_t word = bit >> 5;
  const uint64_t window = static_cast<uint64_t>(words[word]) |
                          (static_cast<uint64_t>(words[word + 1]) << 32);
  const uint32_t mask = bits >= 32 ? ~0u : ((1u << bits) - 1u);
  const uint32_t code = static_cast<uint32_t>(window >> (bit & 31)) & mask;
  return static_cast<int32_t>(code + static_cast<uint32_t>(reference));
}

/// Finalizer of MurmurHash3 for 32-bit keys; cheap, well-mixed hash used by
/// all hash tables in the repo (both CPU and simulated-GPU sides share it so
/// results are bit-identical).
inline uint32_t HashMurmur32(uint32_t k) {
  k ^= k >> 16;
  k *= 0x85ebca6bu;
  k ^= k >> 13;
  k *= 0xc2b2ae35u;
  k ^= k >> 16;
  return k;
}

}  // namespace crystal

#endif  // CRYSTAL_COMMON_BITUTIL_H_
