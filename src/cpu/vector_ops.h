#ifndef CRYSTAL_CPU_VECTOR_OPS_H_
#define CRYSTAL_CPU_VECTOR_OPS_H_

#include <cstdint>

#include "common/bitutil.h"

namespace crystal::cpu {

/// Vector-at-a-time primitives for the paper's CPU execution model
/// (Section 3.2): predicate evaluation into compacted selection vectors and
/// direct-address probe-with-selection, over vectors of at most a few
/// thousand rows.
///
/// Every primitive has two implementations behind one entry point:
///  * an AVX2 fast path (compare + movemask + permutation-table compaction,
///    bounds-masked gathers for probes), compiled in a dedicated -mavx2
///    translation unit;
///  * a portable scalar path (branch-free predication).
/// Dispatch is checked at runtime (cpuid), so binaries built with the AVX2
/// unit still run — and return bit-identical results — on any x86-64 host.
/// Setting CRYSTAL_SIMD=0 in the environment (or SetSimdEnabled(false))
/// forces the scalar path; the conformance suite runs both.

/// True when AVX2 kernels were compiled in and the host CPU supports them.
bool SimdAvailable();

/// True when the AVX2 fast path will actually be taken: available, not
/// disabled via CRYSTAL_SIMD=0, and not switched off programmatically.
bool SimdEnabled();

/// Force-enables/disables the SIMD path (tests, ablations). Enabling is a
/// no-op when SimdAvailable() is false. Thread-safe.
void SetSimdEnabled(bool enabled);

// ---------------------------------------------------------------------------
// Selection-vector primitives. A selection vector sel[] holds strictly
// increasing row indices relative to the current vector's base pointer.
// Output buffers must have room for a full input's worth of entries: the
// SIMD paths store whole 8-lane registers and advance the write cursor by
// the match count, so up to 7 lanes of scratch may be written past the
// returned length (never past index `n`/`m` - 1 + 8... i.e. callers size
// buffers to the vector length, as the two-pass scheme already does).

/// Fills sel[0..ret) with the indices i in [0, n) where
/// lo <= col[i] <= hi (equality when lo == hi). Returns the match count.
int SelectRange(const int32_t* col, int n, int32_t lo, int32_t hi,
                int32_t* sel);

/// Keeps the entries of sel[0..m) whose column value is in [lo, hi]:
/// sel_out[0..ret) = { s in sel : lo <= col[s] <= hi }. In-place operation
/// (sel_out == sel) is supported and is the common engine idiom.
int RefineRange(const int32_t* col, const int32_t* sel, int m, int32_t lo,
                int32_t hi, int32_t* sel_out);

/// Absent-slot sentinel of a `width`-byte payload array (1, 2 or 4)
/// without a presence bitmap, as the probe reads it back: all ones for the
/// narrow widths, INT32_MIN for 4 bytes. Such an array is only built when
/// no build row carries the sentinel as its payload; a payload range that
/// contains it takes the two-level form (see DirectTable).
inline constexpr int32_t DirectSentinel(int width) {
  return width == 1 ? 0xFF : width == 2 ? 0xFFFF : INT32_MIN;
}

/// A direct-address build side as the probe kernels see it (cpu::JoinTable
/// owns the storage): key k lives at slot k - base of a span-slot domain,
/// the degenerate perfect hash the SSB dimension tables admit (dense
/// 1..rows surrogate keys; compact yyyymmdd date domain). Three forms:
///  * presence bitmap (payload == nullptr): bit (k - base) of `bits` is set
///    when k has a build row. For filter-only probes; a match's "payload"
///    is the probe key itself.
///  * payload array (bits == nullptr): `width`-byte little-endian slots,
///    DirectSentinel(width) in slots without a build row.
///  * two-level (both set): the bitmap decides membership for every row and
///    only the survivors gather their payload, whose slots need no
///    sentinel.
/// A payload array carries 4 - width readable bytes past its last slot, so
/// a 4-byte gather at any slot stays in bounds.
struct DirectTable {
  const uint32_t* bits = nullptr;
  const uint8_t* payload = nullptr;
  int width = 4;
  int64_t span = 0;  // <= INT32_MAX: slot offsets are int32 lanes
  int32_t base = 0;
};

/// Direct-address probe with selection: probes `table` for keys[sel[i]]
/// (or keys[i] when sel == nullptr, the first pipeline stage) for i in
/// [0, m). For each match, writes the surviving row index to sel_out, the
/// matched payload to val_out (optional), and the input position i to
/// pos_out (optional; used to compact vectors carried from earlier
/// pipeline stages). Returns the match count. sel_out may alias sel.
/// The AVX2 path probes 8 lanes per vector with no branch on the data:
/// with a selection it first gathers the keys through `sel`, then makes
/// one bounds-masked table gather (scale 1, 2 or 4 on payload arrays, a
/// word gather plus a variable shift on bitmaps); the two-level form
/// gathers payloads in a second pass over the survivors only.
int ProbeDirect(const DirectTable& table, const int32_t* keys,
                const int32_t* sel, int m, int32_t* sel_out,
                int32_t* val_out, int32_t* pos_out);

/// Compacts a carried vector through the positions a ProbeDirect emitted:
/// v[j] = v[pos[j]] for j in [0, m). Safe in place because pos is strictly
/// increasing with pos[j] >= j.
void CompactInPlace(int32_t* v, const int32_t* pos, int m);

// ---------------------------------------------------------------------------
// Packed-column primitives (storage layer, paper Section 5.5): columns whose
// values are frame-of-reference + bit-packed — value i occupies `bits` bits
// at bit offset i*bits of `words`, and decodes to raw + reference. The
// kernels take the raw (words, bits, reference) triple rather than a
// storage::ColumnView so crystal_cpu stays below the storage layer.
//
// Contracts shared by all of them:
//  * `start` is the absolute row of the vector's first element; `sel`
//    entries and `n`/`m` are vector-relative, exactly like the plain
//    primitives above operating on `col + start`.
//  * `words` must carry kPackedSlackWords tail slack words past the
//    payload (see storage::PackedWords): the scalar window and the AVX2
//    gathers read the word after the one holding an element's low bits,
//    and the AVX2 dense decode reads whole 16-byte windows.
//  * The AVX2 filters compare raw codes, never adding the reference:
//    [lo, hi] is rebased once per call to the unsigned test
//    code - (lo - reference) <= hi - lo, which agrees with the decoded
//    value test for every stored code.
//  * Vector-relative offsets must stay small: the AVX2 paths compute
//    per-lane bit offsets in 32 bits, so (n or max sel entry) * bits must
//    fit in an int32 — true by construction for vector-at-a-time callers.
//
// The AVX2 paths decode rows that are read densely (a whole vector, or
// every row up to the last survivor of a dense selection, UnpackSurvivors)
// without gathers: eight consecutive `bits`-wide fields span exactly
// `bits` bytes, so every 8-row group sits at the same bit phase and one
// fixed byte shuffle plus per-lane shifts unpacks it from contiguous
// loads (SIMD-Scan, Willhalm et al., VLDB 2009). Sparse survivor decodes
// and the survivor filter (RefineRangePacked) gather.

/// UnpackSurvivors' density rule: survivors sel[0..m) are dense when at
/// least one row in kDenseSurvivorStride up to the last survivor
/// survives, m * kDenseSurvivorStride >= sel[m - 1] + 1. Per 1024-row
/// vector on a 4-vCPU Xeon at widths 4..27, the AVX2 decode of the whole
/// prefix (about 250-300 ns) costs 0.3x, 0.5-0.65x and 0.75-0.95x the
/// survivor gathers at one survivor in 1, 2 and 3 rows, and 1.0-1.2x at
/// one in 4.
inline constexpr int kDenseSurvivorStride = 3;

/// Decodes one value; the scalar building block (shared with tests).
inline int32_t PackedGet(const uint32_t* words, int bits, int32_t reference,
                         int64_t i) {
  return DecodePacked(words, bits, reference, i);
}

/// out[i] = decoded value at row start + i, for i in [0, n).
void UnpackRange(const uint32_t* words, int bits, int32_t reference,
                 int64_t start, int n, int32_t* out);

/// Scatter-unpack at selected rows: out[sel[i]] = decoded value at row
/// start + sel[i], for i in [0, m). Leaves other entries of `out`
/// untouched, so downstream consumers can keep indexing out[sel[i]] — the
/// idiom that lets probe/aggregate stages pay unpack cost proportional to
/// the survivors, not the vector.
void UnpackAt(const uint32_t* words, int bits, int32_t reference,
              int64_t start, const int32_t* sel, int m, int32_t* out);

/// Decodes the survivors of a vector so that out[sel[i]] = decoded value
/// at row start + sel[i], for i in [0, m) — indexable like UnpackAt's
/// output. Entries of out[0, sel[m - 1]] between survivors may be
/// overwritten with their own decoded values: on the AVX2 path dense
/// survivors (kDenseSurvivorStride) decode the whole prefix with
/// UnpackRange; sparse ones, and the scalar path (whose decode costs the
/// same per row either way), take UnpackAt.
void UnpackSurvivors(const uint32_t* words, int bits, int32_t reference,
                     int64_t start, const int32_t* sel, int m, int32_t* out);

/// SelectRange fused with unpack: fills sel with the i in [0, n) whose
/// decoded value at row start + i is in [lo, hi]. Returns the match count.
int SelectRangePacked(const uint32_t* words, int bits, int32_t reference,
                      int64_t start, int n, int32_t lo, int32_t hi,
                      int32_t* sel);

/// RefineRange fused with unpack; in-place (sel_out == sel) supported.
/// The AVX2 path gathers each survivor's field.
int RefineRangePacked(const uint32_t* words, int bits, int32_t reference,
                      int64_t start, const int32_t* sel, int m, int32_t lo,
                      int32_t hi, int32_t* sel_out);

}  // namespace crystal::cpu

#endif  // CRYSTAL_CPU_VECTOR_OPS_H_
