// AVX2 fast paths for the vector-ops primitives. This is the only
// translation unit in crystal_cpu compiled with -mavx2 (see
// src/CMakeLists.txt), so AVX2 instructions cannot leak into the scalar
// fallbacks via auto-vectorization; callers reach these kernels only through
// the runtime-dispatched entry points in vector_ops.cc.
//
// Every gather goes through Gather32 / Gather64, never a bare
// _mm256_i32gather_*. vpgather merges into its destination register, and
// for the unmasked intrinsic the compiler may pick a register the previous
// loop iteration wrote, so each 8-row group's gather would wait for the
// last group's instead of overlapping with it. tools/check_gather_deps.py
// (the gather_deps_crystal_cpu test) fails when a gather does that.
#include "cpu/vector_ops_internal.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bitutil.h"
#include "common/macros.h"
#include "cpu/vector_ops.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace crystal::cpu::internal {

#if defined(__AVX2__)

namespace {

/// All-ones in the lanes where lo <= x <= hi (signed; no overflow tricks).
inline __m256i InRange(__m256i x, __m256i lo, __m256i hi) {
  const __m256i below = _mm256_cmpgt_epi32(lo, x);
  const __m256i above = _mm256_cmpgt_epi32(x, hi);
  return _mm256_andnot_si256(_mm256_or_si256(below, above),
                             _mm256_set1_epi32(-1));
}

// Not a namespace-scope constant: that would execute AVX instructions in a
// static initializer, which must not happen on hosts without AVX2.
inline __m256i Iota() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }

/// Gathers the 8 int32 lanes at byte offsets idx * kScale from `base`
/// into a freshly zeroed destination. The empty asm statements hide the
/// zero source and the all-ones mask from the compiler, which otherwise
/// folds the masked form back into the unmasked one and merges into a
/// register the previous loop iteration wrote: a dependency that
/// serializes the gathers.
template <int kScale>
inline __m256i Gather32(const int* base, __m256i idx) {
  __m256i src = _mm256_setzero_si256();
  __m256i all = _mm256_set1_epi32(-1);
  asm("" : "+x"(src));
  asm("" : "+x"(all));
  return _mm256_mask_i32gather_epi32(src, base, idx, all, kScale);
}

/// Gather32 for 4 int64 lanes indexed by 4 int32 offsets.
template <int kScale>
inline __m256i Gather64(const long long* base, __m128i idx) {
  __m256i src = _mm256_setzero_si256();
  __m256i all = _mm256_set1_epi64x(-1);
  asm("" : "+x"(src));
  asm("" : "+x"(all));
  return _mm256_mask_i32gather_epi64(src, base, idx, all, kScale);
}

}  // namespace

bool HaveAvx2Kernels() { return true; }

namespace {

/// All-ones in the lanes where code - base <= span (unsigned, mod 2^32):
/// the packed filters' code-domain range test (see CodeBounds).
inline __m256i InCodeRange(__m256i code, __m256i base, __m256i span) {
  const __m256i d = _mm256_sub_epi32(code, base);
  return _mm256_cmpeq_epi32(_mm256_min_epu32(d, span), d);
}

/// The scalar form of InCodeRange.
inline bool InCodeRange(uint32_t code, uint32_t base, uint32_t span) {
  return code - base <= span;
}

/// Selective store: writes the lanes of `idx` whose bit is set in `mask`
/// to out[0..popcount) (scratch lanes follow) and returns the count.
inline int Compact8(const PermTable& pt, __m256i idx, int mask,
                    int32_t* out) {
  const __m256i perm =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(pt.idx[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(idx, perm));
  return __builtin_popcount(static_cast<unsigned>(mask));
}

}  // namespace

int SelectRangeAvx2(const int32_t* col, int n, int32_t lo, int32_t hi,
                    int32_t* sel) {
  const PermTable& pt = GetPermTable();
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  int w = 0;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
    const int mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(InRange(x, vlo, vhi)));
    w += Compact8(pt, _mm256_add_epi32(Iota(), _mm256_set1_epi32(i)), mask,
                  sel + w);
  }
  for (; i < n; ++i) {
    sel[w] = i;
    w += (col[i] >= lo && col[i] <= hi) ? 1 : 0;
  }
  return w;
}

int RefineRangeAvx2(const int32_t* col, const int32_t* sel, int m, int32_t lo,
                    int32_t hi, int32_t* sel_out) {
  const PermTable& pt = GetPermTable();
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  int w = 0;
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    const __m256i x = Gather32<4>(col, idx);
    const int mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(InRange(x, vlo, vhi)));
    w += Compact8(pt, idx, mask, sel_out + w);
  }
  for (; i < m; ++i) {
    const int32_t v = col[sel[i]];
    sel_out[w] = sel[i];
    w += (v >= lo && v <= hi) ? 1 : 0;
  }
  return w;
}

namespace {

/// The `W`-byte little-endian slot `off` of a direct payload array. Kept
/// local to this TU (as every helper here) so the scalar kernels in
/// vector_ops.cc can never be linked against an AVX2-compiled copy.
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

/// ProbeDirect for one form: kBits (bitmap membership) and/or kPayload
/// (a W-byte payload array); both = two-level. Every lane gathers and is
/// masked, whatever the data: no branch on a vector's match count.
template <int W, bool kBits, bool kPayload>
int ProbeDirectForm(const DirectTable& t, const int32_t* keys,
                    const int32_t* sel, int m, int32_t* sel_out,
                    int32_t* val_out, int32_t* pos_out) {
  const PermTable& pt = GetPermTable();
  const int* bits = reinterpret_cast<const int*>(t.bits);
  const int* payload = reinterpret_cast<const int*>(t.payload);
  const __m256i vbase = _mm256_set1_epi32(t.base);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i v31 = _mm256_set1_epi32(31);
  const __m256i vspan_m1 = _mm256_set1_epi32(static_cast<int32_t>(t.span - 1));
  const __m256i vwidth =
      _mm256_set1_epi32(W == 1 ? 0xFF : W == 2 ? 0xFFFF : -1);
  const __m256i vsentinel = _mm256_set1_epi32(DirectSentinel(W));
  int w = 0;
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256i pos8 = _mm256_add_epi32(Iota(), _mm256_set1_epi32(i));
    const __m256i idx =
        sel != nullptr
            ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i))
            : pos8;
    const __m256i k =
        sel != nullptr
            ? Gather32<4>(keys, idx)
            : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    // 32-bit wrap cannot alias an out-of-domain key into [0, span): base +
    // span - 1 is itself an int32. Lanes outside are zeroed so every
    // lane's gather stays in bounds, then dropped through the mask.
    const __m256i off = _mm256_sub_epi32(k, vbase);
    const __m256i in_range = InRange(off, vzero, vspan_m1);
    const __m256i safe_off = _mm256_and_si256(off, in_range);
    __m256i value = vzero;
    __m256i found = vzero;
    if constexpr (kBits) {
      const __m256i word =
          Gather32<4>(bits, _mm256_srli_epi32(safe_off, 5));
      const __m256i bit = _mm256_and_si256(
          _mm256_srlv_epi32(word, _mm256_and_si256(safe_off, v31)), vone);
      found = _mm256_and_si256(in_range, _mm256_cmpeq_epi32(bit, vone));
      // Two-level: carry the slot to the survivor-only payload pass.
      value = kPayload ? safe_off : k;
    } else {
      value = Gather32<W>(payload, safe_off);
      if constexpr (W < 4) value = _mm256_and_si256(value, vwidth);
      found = _mm256_andnot_si256(_mm256_cmpeq_epi32(value, vsentinel),
                                  in_range);
    }
    const int mask8 = _mm256_movemask_ps(_mm256_castsi256_ps(found));
    const __m256i perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(pt.idx[mask8]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel_out + w),
                        _mm256_permutevar8x32_epi32(idx, perm));
    if (val_out != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(val_out + w),
                          _mm256_permutevar8x32_epi32(value, perm));
    }
    if (pos_out != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos_out + w),
                          _mm256_permutevar8x32_epi32(pos8, perm));
    }
    w += __builtin_popcount(static_cast<unsigned>(mask8));
  }
  for (; i < m; ++i) {
    const int32_t row = sel != nullptr ? sel[i] : i;
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
    // Second pass: only the survivors' slots touch the payload array.
    if (val_out != nullptr) {
      int j = 0;
      for (; j + 8 <= w; j += 8) {
        const __m256i slot =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(val_out + j));
        __m256i v = Gather32<W>(payload, slot);
        if constexpr (W < 4) v = _mm256_and_si256(v, vwidth);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(val_out + j), v);
      }
      for (; j < w; ++j) val_out[j] = LoadSlot<W>(t.payload, val_out[j]);
    }
  }
  return w;
}

}  // namespace

int ProbeDirectAvx2(const DirectTable& t, const int32_t* keys,
                    const int32_t* sel, int m, int32_t* sel_out,
                    int32_t* val_out, int32_t* pos_out) {
  if (t.payload == nullptr) {
    return ProbeDirectForm<4, true, false>(t, keys, sel, m, sel_out, val_out,
                                           pos_out);
  }
  const bool two_level = t.bits != nullptr;
  switch (t.width) {
    case 1:
      return two_level ? ProbeDirectForm<1, true, true>(t, keys, sel, m,
                                                        sel_out, val_out,
                                                        pos_out)
                       : ProbeDirectForm<1, false, true>(t, keys, sel, m,
                                                         sel_out, val_out,
                                                         pos_out);
    case 2:
      return two_level ? ProbeDirectForm<2, true, true>(t, keys, sel, m,
                                                        sel_out, val_out,
                                                        pos_out)
                       : ProbeDirectForm<2, false, true>(t, keys, sel, m,
                                                         sel_out, val_out,
                                                         pos_out);
    default:
      return two_level ? ProbeDirectForm<4, true, true>(t, keys, sel, m,
                                                        sel_out, val_out,
                                                        pos_out)
                       : ProbeDirectForm<4, false, true>(t, keys, sel, m,
                                                         sel_out, val_out,
                                                         pos_out);
  }
}

namespace {

/// Lane mask for a `bits`-wide packed field (all ones when bits == 32).
inline __m256i PackedFieldMask(int bits) {
  return _mm256_set1_epi32(
      bits >= 32 ? -1 : static_cast<int32_t>((1u << bits) - 1u));
}

/// Gather-free decode of the rows of a packed run that are read densely
/// (SIMD-Scan, Willhalm et al., VLDB 2009). Eight consecutive `bits`-wide
/// fields span exactly `bits` bytes, so every 8-row group of a run that
/// starts at row `start` begins at byte (start*bits >> 3) + k*bits with the
/// same bit phase. Each 128-bit half's four fields then sit at fixed byte
/// offsets and shifts inside a 16-byte window loaded at a fixed offset
/// from the group: one vpshufb moves each field's four bytes into its
/// lane, one vpsrlvd aligns it and a mask trims it. The shuffle and shift
/// vectors depend only on (bits, phase) and are built once per run.
/// A field of 27 to 31 bits can straddle five bytes (kFifthByte): a
/// second shuffle over the window one byte further on supplies the fifth,
/// shifted into place with vpsllvd. (Fields of even width start at even
/// bit phases, so a 26-bit field ends by bit 6 + 26 = 32 of its four
/// bytes.) 32-bit fields are a plain load.
///
/// The highest byte read for a full group is at most 16 bytes past the
/// group's last payload byte, which kPackedSlackWords covers.
enum class DenseForm { kShuffle, kFifthByte, kWord };

template <DenseForm kForm>
class DenseDecoder {
 public:
  DenseDecoder(const uint32_t* words, int bits, int64_t start) : bits_(bits) {
    if constexpr (kForm == DenseForm::kWord) {
      bytes_ = reinterpret_cast<const uint8_t*>(words + start);
    } else {
      Build(words, bits, start);
    }
  }

  /// Raw codes of rows start + i .. start + i + 7 (i a multiple of 8).
  __m256i Codes(int i) const {
    if constexpr (kForm == DenseForm::kWord) {
      return _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bytes_ + 4 * int64_t{i}));
    } else {
      const uint8_t* g = bytes_ + int64_t{i / 8} * bits_;
      __m256i x = _mm256_srlv_epi32(
          _mm256_shuffle_epi8(Window(g), shuffle_), shift_);
      if constexpr (kForm == DenseForm::kFifthByte) {
        x = _mm256_or_si256(
            x, _mm256_sllv_epi32(_mm256_shuffle_epi8(Window(g + 1), fifth_),
                                 fifth_shift_));
      }
      return _mm256_and_si256(x, mask_);
    }
  }

 private:
  /// Builds the (bits, phase) shuffle and shift vectors.
  void Build(const uint32_t* words, int bits, int64_t start) {
    const int64_t bit = start * static_cast<int64_t>(bits);
    bytes_ = reinterpret_cast<const uint8_t*>(words) + (bit >> 3);
    const int phase = static_cast<int>(bit & 7);
    high_ = (phase + 4 * bits) >> 3;
    alignas(32) uint8_t shuffle[32];
    alignas(32) uint8_t fifth[32];
    alignas(32) int32_t shift[8];
    alignas(32) int32_t fifth_shift[8];
    for (int lane = 0; lane < 8; ++lane) {
      const int lane_bit = phase + lane * bits;
      // Byte of the field's low bit within its half's window.
      const int at = (lane_bit >> 3) - (lane < 4 ? 0 : high_);
      uint8_t* s = shuffle + 4 * lane;
      uint8_t* f = fifth + 4 * lane;
      for (int b = 0; b < 4; ++b) {
        s[b] = static_cast<uint8_t>(at + b);
        f[b] = 0x80;  // vpshufb zeroes a byte whose index has bit 7 set
      }
      // The fifth byte, at + 4, is byte at + 3 of the window loaded one
      // byte further on (at <= 12, so it stays inside the window).
      f[0] = static_cast<uint8_t>(at + 3);
      shift[lane] = lane_bit & 7;
      fifth_shift[lane] = 32 - (lane_bit & 7);  // 32 shifts to zero
    }
    shuffle_ = _mm256_load_si256(reinterpret_cast<const __m256i*>(shuffle));
    shift_ = _mm256_load_si256(reinterpret_cast<const __m256i*>(shift));
    fifth_ = _mm256_load_si256(reinterpret_cast<const __m256i*>(fifth));
    fifth_shift_ =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(fifth_shift));
    mask_ = PackedFieldMask(bits);
  }

  /// Bytes g[0..16) in the low half and g[high_..high_ + 16) in the high.
  __m256i Window(const uint8_t* g) const {
    return _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(g))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(g + high_)), 1);
  }

  const uint8_t* bytes_ = nullptr;
  int bits_ = 0;
  int high_ = 0;
  __m256i shuffle_, shift_, fifth_, fifth_shift_, mask_;
};

/// Calls f(decoder) with the dense decoder form for `bits`.
template <class F>
auto WithDenseDecoder(const uint32_t* words, int bits, int64_t start, F&& f) {
  if (bits <= 26) {
    return f(DenseDecoder<DenseForm::kShuffle>(words, bits, start));
  }
  if (bits < 32) {
    return f(DenseDecoder<DenseForm::kFifthByte>(words, bits, start));
  }
  return f(DenseDecoder<DenseForm::kWord>(words, bits, start));
}

/// Raw code of row i (the scalar tail of the code-domain kernels).
inline uint32_t PackedCode(const uint32_t* words, int bits, int64_t i) {
  return static_cast<uint32_t>(DecodePacked(words, bits, 0, i));
}

/// A value range [lo, hi] rebased once per call into the code domain of a
/// column with `reference`. A row decodes to reference + code (mod 2^32,
/// as DecodePacked adds), which lies in [lo, hi] exactly when
/// code - (lo - reference) <= hi - lo in uint32 arithmetic — one unsigned
/// compare on the raw code, no add, and bit-identical to the value test
/// for every stored code. Returns false when no `bits`-wide code can
/// match: an empty range, or bounds wholly below the reference or above
/// reference + 2^bits - 1.
inline bool CodeBounds(int bits, int32_t reference, int32_t lo, int32_t hi,
                       uint32_t* base, uint32_t* span) {
  if (lo > hi) return false;
  *base = static_cast<uint32_t>(lo) - static_cast<uint32_t>(reference);
  *span = static_cast<uint32_t>(hi) - static_cast<uint32_t>(lo);
  // Matching codes form the interval [base, base + span] mod 2^32; it
  // meets [0, 2^bits) unless it starts past the top code without wrapping.
  const int64_t max_code = bits >= 32 ? 0xffffffffll : (1ll << bits) - 1;
  return *base <= max_code || int64_t{*base} + *span > 0xffffffffll;
}

/// Raw codes of 8 packed lanes whose bit offsets relative to `base` (the
/// word holding the vector's first bit) are in `lane_bit`: gather the word
/// pair around each field, funnel-shift, mask. This is the survivor path
/// of UnpackAt and RefineRangePacked. srlv/sllv yield 0 for shift counts
/// >= 32, so the sh == 0 straddle term vanishes without a branch, and the
/// tail slack keeps the second gather in bounds on the last field.
inline __m256i Unpack8(const uint32_t* base, __m256i lane_bit,
                       __m256i vmask) {
  const __m256i w_idx = _mm256_srli_epi32(lane_bit, 5);
  const __m256i sh = _mm256_and_si256(lane_bit, _mm256_set1_epi32(31));
  const int* p = reinterpret_cast<const int*>(base);
  const __m256i w0 = Gather32<4>(p, w_idx);
  const __m256i w1 =
      Gather32<4>(p, _mm256_add_epi32(w_idx, _mm256_set1_epi32(1)));
  const __m256i low = _mm256_srlv_epi32(w0, sh);
  const __m256i high =
      _mm256_sllv_epi32(w1, _mm256_sub_epi32(_mm256_set1_epi32(32), sh));
  return _mm256_and_si256(_mm256_or_si256(low, high), vmask);
}

}  // namespace

void UnpackRangeAvx2(const uint32_t* words, int bits, int32_t reference,
                     int64_t start, int n, int32_t* out) {
  const __m256i vref = _mm256_set1_epi32(reference);
  int i = WithDenseDecoder(words, bits, start, [&](const auto& dec) {
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                          _mm256_add_epi32(dec.Codes(j), vref));
    }
    return j;
  });
  for (; i < n; ++i) out[i] = PackedGet(words, bits, reference, start + i);
}

void UnpackAtAvx2(const uint32_t* words, int bits, int32_t reference,
                  int64_t start, const int32_t* sel, int m, int32_t* out) {
  const int64_t base_bit = start * static_cast<int64_t>(bits);
  const uint32_t* base = words + (base_bit >> 5);
  const int rem = static_cast<int>(base_bit & 31);
  const __m256i vmask = PackedFieldMask(bits);
  const __m256i vref = _mm256_set1_epi32(reference);
  const __m256i vbits = _mm256_set1_epi32(bits);
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    const __m256i lane_bit = _mm256_add_epi32(
        _mm256_set1_epi32(rem), _mm256_mullo_epi32(idx, vbits));
    alignas(32) int32_t tmp[8];
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(tmp),
        _mm256_add_epi32(Unpack8(base, lane_bit, vmask), vref));
    // No AVX2 scatter; 8 scalar stores to the selected slots.
    for (int j = 0; j < 8; ++j) out[sel[i + j]] = tmp[j];
  }
  for (; i < m; ++i) {
    out[sel[i]] = PackedGet(words, bits, reference, start + sel[i]);
  }
}

int SelectRangePackedAvx2(const uint32_t* words, int bits, int32_t reference,
                          int64_t start, int n, int32_t lo, int32_t hi,
                          int32_t* sel) {
  uint32_t code_base = 0;
  uint32_t code_span = 0;
  if (!CodeBounds(bits, reference, lo, hi, &code_base, &code_span)) return 0;
  const PermTable& pt = GetPermTable();
  const __m256i vbase = _mm256_set1_epi32(static_cast<int32_t>(code_base));
  const __m256i vspan = _mm256_set1_epi32(static_cast<int32_t>(code_span));
  int w = 0;
  int i = WithDenseDecoder(words, bits, start, [&](const auto& dec) {
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      const int mask = _mm256_movemask_ps(
          _mm256_castsi256_ps(InCodeRange(dec.Codes(j), vbase, vspan)));
      w += Compact8(pt, _mm256_add_epi32(Iota(), _mm256_set1_epi32(j)), mask,
                    sel + w);
    }
    return j;
  });
  for (; i < n; ++i) {
    sel[w] = i;
    w += InCodeRange(PackedCode(words, bits, start + i), code_base, code_span)
             ? 1
             : 0;
  }
  return w;
}

int RefineRangePackedAvx2(const uint32_t* words, int bits, int32_t reference,
                          int64_t start, const int32_t* sel, int m,
                          int32_t lo, int32_t hi, int32_t* sel_out) {
  uint32_t code_base = 0;
  uint32_t code_span = 0;
  if (m == 0 || !CodeBounds(bits, reference, lo, hi, &code_base, &code_span)) {
    return 0;
  }
  const PermTable& pt = GetPermTable();
  const int64_t base_bit = start * static_cast<int64_t>(bits);
  const uint32_t* base = words + (base_bit >> 5);
  const int rem = static_cast<int>(base_bit & 31);
  const __m256i vmask = PackedFieldMask(bits);
  const __m256i vbits = _mm256_set1_epi32(bits);
  const __m256i vbase = _mm256_set1_epi32(static_cast<int32_t>(code_base));
  const __m256i vspan = _mm256_set1_epi32(static_cast<int32_t>(code_span));
  int w = 0;
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    const __m256i lane_bit = _mm256_add_epi32(
        _mm256_set1_epi32(rem), _mm256_mullo_epi32(idx, vbits));
    const __m256i x = Unpack8(base, lane_bit, vmask);
    const int mask = _mm256_movemask_ps(
        _mm256_castsi256_ps(InCodeRange(x, vbase, vspan)));
    w += Compact8(pt, idx, mask, sel_out + w);
  }
  for (; i < m; ++i) {
    sel_out[w] = sel[i];
    w += InCodeRange(PackedCode(words, bits, start + sel[i]), code_base,
                     code_span)
             ? 1
             : 0;
  }
  return w;
}

int64_t CountLessAvx2(const float* in, int64_t n, float v) {
  const __m256 vv = _mm256_set1_ps(v);
  int64_t c = 0;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(in + i);
    const int mask = _mm256_movemask_ps(_mm256_cmp_ps(x, vv, _CMP_LT_OQ));
    c += __builtin_popcount(static_cast<unsigned>(mask));
  }
  for (; i < n; ++i) c += in[i] < v ? 1 : 0;
  return c;
}

void CompactLessAvx2(const float* in, int64_t n, float v, float* out) {
  const PermTable& pt = GetPermTable();
  const __m256 vv = _mm256_set1_ps(v);
  int64_t w = 0;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(in + i);
    const int mask = _mm256_movemask_ps(_mm256_cmp_ps(x, vv, _CMP_LT_OQ));
    const __m256i perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(pt.idx[mask]));
    const __m256 packed = _mm256_permutevar8x32_ps(x, perm);
    // Unaligned store of the compacted lanes; only the first popcount lanes
    // are meaningful and the cursor advance keeps later writes overwriting
    // the garbage tail — the classic selective-store idiom.
    _mm256_storeu_ps(out + w, packed);
    w += __builtin_popcount(static_cast<unsigned>(mask));
  }
  for (; i < n; ++i) {
    out[w] = in[i];
    w += in[i] < v ? 1 : 0;
  }
}

void ProbeSumAvx2(const HashTable& ht, const int32_t* keys,
                  const int32_t* vals, int64_t begin, int64_t end,
                  int64_t* sum, int64_t* matches) {
  const uint64_t* slots = ht.slots();
  const uint32_t mask = ht.mask();
  // Vertical vectorization state: 8 lanes, each owning an in-flight key.
  // lane_slot is zero-initialized because every lane of the gathers below
  // loads: a dead lane (fewer than 8 rows in the partition) must gather the
  // in-bounds slot 0, not a garbage index.
  alignas(32) int32_t lane_key[8];
  alignas(32) int32_t lane_val[8];
  alignas(32) uint32_t lane_slot[8] = {};
  alignas(32) uint32_t lane_live[8];
  int64_t next = begin;
  auto refill = [&](int lane) {
    if (next < end) {
      lane_key[lane] = keys[next];
      lane_val[lane] = vals[next];
      lane_slot[lane] = HashMurmur32(static_cast<uint32_t>(keys[next])) & mask;
      lane_live[lane] = 1;
      ++next;
    } else {
      lane_live[lane] = 0;
    }
  };
  for (int lane = 0; lane < 8; ++lane) refill(lane);
  for (;;) {
    bool any_live = false;
    for (int lane = 0; lane < 8; ++lane) any_live |= lane_live[lane] != 0;
    if (!any_live) break;
    // Two 4x64-bit gathers fetch the 8 lanes' slots (the extra gather +
    // deinterleave is exactly the overhead Section 4.3 blames for
    // CPU SIMD losing to CPU Scalar). With fresh gather destinations it
    // still loses on a 4-vCPU Xeon, one thread, 4M probes: ProbeSimd runs
    // 1.1-1.7x ProbeScalar's time at 1K-64K build keys, 1.6-2.2x at 1M-16M.
    const __m128i idx_lo =
        _mm_load_si128(reinterpret_cast<const __m128i*>(lane_slot));
    const __m128i idx_hi =
        _mm_load_si128(reinterpret_cast<const __m128i*>(lane_slot + 4));
    alignas(32) uint64_t fetched[8];
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(fetched),
        Gather64<8>(reinterpret_cast<const long long*>(slots), idx_lo));
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(fetched + 4),
        Gather64<8>(reinterpret_cast<const long long*>(slots), idx_hi));
    for (int lane = 0; lane < 8; ++lane) {
      if (!lane_live[lane]) continue;
      const uint64_t s = fetched[lane];
      if (HashTable::SlotEmpty(s)) {
        refill(lane);
      } else if (HashTable::SlotKey(s) == lane_key[lane]) {
        *sum += static_cast<int64_t>(lane_val[lane]) + HashTable::SlotValue(s);
        ++*matches;
        refill(lane);
      } else {
        lane_slot[lane] = (lane_slot[lane] + 1) & mask;
      }
    }
  }
}

namespace {

// 8-lane exp(x) via the classic exponent-bit split:
//   exp(x) = 2^k * 2^f, k = round(x/ln2), f in [-0.5, 0.5],
// with a degree-5 polynomial for 2^f. Relative error ~3e-5, far below the
// tolerance any OLAP aggregate cares about.
inline __m256 Exp8(__m256 x) {
  const __m256 log2e = _mm256_set1_ps(1.442695040f);
  const __m256 c0 = _mm256_set1_ps(1.0f);
  const __m256 c1 = _mm256_set1_ps(0.693147180f);
  const __m256 c2 = _mm256_set1_ps(0.240226507f);
  const __m256 c3 = _mm256_set1_ps(0.0555041087f);
  const __m256 c4 = _mm256_set1_ps(0.00961812911f);
  const __m256 c5 = _mm256_set1_ps(0.00133335581f);
  // Clamp to avoid overflow in the exponent bits.
  x = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(87.0f)),
                    _mm256_set1_ps(-87.0f));
  const __m256 t = _mm256_mul_ps(x, log2e);  // x / ln2
  const __m256 k = _mm256_round_ps(
      t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256 f = _mm256_sub_ps(t, k);  // fractional part in [-0.5, 0.5]
  // 2^f = poly(f) (minimax-ish via exp(f*ln2) Taylor with fitted terms).
  __m256 p = c5;
  p = _mm256_fmadd_ps(p, f, c4);
  p = _mm256_fmadd_ps(p, f, c3);
  p = _mm256_fmadd_ps(p, f, c2);
  p = _mm256_fmadd_ps(p, f, c1);
  p = _mm256_fmadd_ps(p, f, c0);
  // 2^k via exponent bits.
  const __m256i ki = _mm256_cvtps_epi32(k);
  const __m256i pow2k =
      _mm256_slli_epi32(_mm256_add_epi32(ki, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(pow2k));
}

inline __m256 Sigmoid8(__m256 z) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = Exp8(_mm256_sub_ps(_mm256_setzero_ps(), z));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

}  // namespace

void ProjectLinearAvx2(const float* x1, const float* x2, int64_t begin,
                       int64_t end, float a, float b, float* out) {
  const __m256 va = _mm256_set1_ps(a);
  const __m256 vb = _mm256_set1_ps(b);
  int64_t i = begin;
  // Head: align the output pointer for streaming stores.
  while (i < end && (reinterpret_cast<uintptr_t>(out + i) & 31) != 0) {
    out[i] = a * x1[i] + b * x2[i];
    ++i;
  }
  for (; i + 8 <= end; i += 8) {
    const __m256 v1 = _mm256_loadu_ps(x1 + i);
    const __m256 v2 = _mm256_loadu_ps(x2 + i);
    const __m256 r = _mm256_fmadd_ps(va, v1, _mm256_mul_ps(vb, v2));
    _mm256_stream_ps(out + i, r);  // non-temporal: skip the cache
  }
  for (; i < end; ++i) out[i] = a * x1[i] + b * x2[i];
  _mm_sfence();  // streaming stores must be globally visible on return
}

void ProjectSigmoidAvx2(const float* x1, const float* x2, int64_t begin,
                        int64_t end, float a, float b, float* out) {
  const __m256 va = _mm256_set1_ps(a);
  const __m256 vb = _mm256_set1_ps(b);
  int64_t i = begin;
  while (i < end && (reinterpret_cast<uintptr_t>(out + i) & 31) != 0) {
    const float z = a * x1[i] + b * x2[i];
    out[i] = 1.0f / (1.0f + std::exp(-z));
    ++i;
  }
  for (; i + 8 <= end; i += 8) {
    const __m256 v1 = _mm256_loadu_ps(x1 + i);
    const __m256 v2 = _mm256_loadu_ps(x2 + i);
    const __m256 z = _mm256_fmadd_ps(va, v1, _mm256_mul_ps(vb, v2));
    _mm256_stream_ps(out + i, Sigmoid8(z));
  }
  for (; i < end; ++i) {
    const float z = a * x1[i] + b * x2[i];
    out[i] = 1.0f / (1.0f + std::exp(-z));
  }
  _mm_sfence();
}

#else  // !defined(__AVX2__)

// Toolchain cannot target AVX2: report no kernels. The dispatcher never
// calls the stubs (SimdAvailable() is false); aborting keeps misuse loud.
bool HaveAvx2Kernels() { return false; }

int SelectRangeAvx2(const int32_t*, int, int32_t, int32_t, int32_t*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
  return 0;
}
int RefineRangeAvx2(const int32_t*, const int32_t*, int, int32_t, int32_t,
                    int32_t*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
  return 0;
}
int ProbeDirectAvx2(const DirectTable&, const int32_t*, const int32_t*, int,
                    int32_t*, int32_t*, int32_t*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
  return 0;
}
void UnpackRangeAvx2(const uint32_t*, int, int32_t, int64_t, int, int32_t*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
}
void UnpackAtAvx2(const uint32_t*, int, int32_t, int64_t, const int32_t*,
                  int, int32_t*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
}
int SelectRangePackedAvx2(const uint32_t*, int, int32_t, int64_t, int,
                          int32_t, int32_t, int32_t*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
  return 0;
}
int RefineRangePackedAvx2(const uint32_t*, int, int32_t, int64_t,
                          const int32_t*, int, int32_t, int32_t, int32_t*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
  return 0;
}
void ProjectLinearAvx2(const float*, const float*, int64_t, int64_t, float,
                       float, float*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
}
void ProjectSigmoidAvx2(const float*, const float*, int64_t, int64_t, float,
                        float, float*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
}
int64_t CountLessAvx2(const float*, int64_t, float) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
  return 0;
}
void CompactLessAvx2(const float*, int64_t, float, float*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
}
void ProbeSumAvx2(const HashTable&, const int32_t*, const int32_t*, int64_t,
                  int64_t, int64_t*, int64_t*) {
  CRYSTAL_CHECK_MSG(false, "AVX2 kernels not compiled in");
}

#endif  // defined(__AVX2__)

}  // namespace crystal::cpu::internal
