#ifndef CRYSTAL_STORAGE_ENCODED_COLUMN_H_
#define CRYSTAL_STORAGE_ENCODED_COLUMN_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/aligned.h"
#include "common/bitutil.h"
#include "common/macros.h"

namespace crystal::storage {

/// First-class compressed column storage (paper Section 5.5): a b-bit
/// bit-packed scan ships b/32 of the bytes of a plain int32 scan, and that
/// ratio carries through every layer that models or moves fact bytes — the
/// morsel loop's memory traffic, the Crystal kernel's modeled DRAM reads,
/// and the coprocessor's PCIe transfer volume.
///
/// Two encodings:
///  * kPlain  — one int32 per value, the seed's original layout.
///  * kPacked — frame-of-reference + bit-packing: value - reference is
///    stored in `bits` bits, densely packed little-endian into uint32
///    words. `reference` is the column minimum so offsets are unsigned,
///    and `bits` covers the value span (the dictionary domain for encoded
///    string columns, the natural range for measures).
enum class Encoding {
  kPlain,
  kPacked,
};

/// Storage knob threaded from the CLI (`crystaldb --storage=packed`)
/// through datagen into every engine.
struct StorageOptions {
  Encoding encoding = Encoding::kPlain;
};

const char* EncodingName(Encoding encoding);
/// Parses "plain" / "packed"; returns false on anything else.
bool EncodingFromName(const std::string& name, Encoding* out);

/// Bits needed to store values in [0, span]; at least 1 (a 0-bit column
/// would make every packed word empty and is not worth the special case).
int BitsForSpan(uint32_t span);

/// Packed payload size in whole bytes: ceil(rows * bits / 8). This is the
/// quantity engines charge as sequential-read / PCIe-transfer volume.
int64_t PackedBytes(int64_t rows, int bits);

/// Word count of a packed buffer: the payload words plus
/// kPackedSlackWords tail slack words (common/bitutil.h), so the scalar
/// `word[i], word[i+1]` window, the AVX2 gathers and the AVX2 dense
/// decode's 16-byte loads never read past the allocation. PackedBytes,
/// not this, is the traffic a scan is charged.
int64_t PackedWords(int64_t rows, int bits);

/// Non-owning typed view of an encoded column. Cheap to copy; this is what
/// pipeline stages and engine kernels carry. For plain columns `bits()` is
/// 32 and `reference()` is 0 so byte accounting needs no special cases.
class ColumnView {
 public:
  ColumnView() = default;

  static ColumnView Plain(const int32_t* data, int64_t rows) {
    ColumnView v;
    v.plain_ = data;
    v.rows_ = rows;
    return v;
  }

  static ColumnView Packed(const uint32_t* words, int64_t rows, int bits,
                           int32_t reference) {
    CRYSTAL_CHECK(bits >= 1 && bits <= 32);
    ColumnView v;
    v.words_ = words;
    v.rows_ = rows;
    v.bits_ = bits;
    v.reference_ = reference;
    return v;
  }

  bool packed() const { return words_ != nullptr; }
  int64_t rows() const { return rows_; }
  int bits() const { return packed() ? bits_ : 32; }
  int32_t reference() const { return reference_; }

  /// Plain payload; check `!packed()` before calling on hot paths.
  const int32_t* plain_data() const {
    CRYSTAL_DCHECK(!packed());
    return plain_;
  }
  /// Packed payload; check `packed()` before calling on hot paths.
  const uint32_t* words() const {
    CRYSTAL_DCHECK(packed());
    return words_;
  }

  /// Decoded value at row i (both encodings). The packed path reads a
  /// 64-bit window across the word boundary; the tail slack words in
  /// every packed buffer keep the second word load in bounds.
  int32_t Get(int64_t i) const {
    CRYSTAL_DCHECK(i >= 0 && i < rows_);
    if (!packed()) return plain_[i];
    return DecodePacked(words_, bits_, reference_, i);
  }

  /// Bytes this column occupies (and ships): rows*4 plain, else
  /// ceil(rows*bits/8).
  int64_t encoded_bytes() const {
    return packed() ? PackedBytes(rows_, bits_) : rows_ * 4;
  }

 private:
  const int32_t* plain_ = nullptr;
  const uint32_t* words_ = nullptr;
  int64_t rows_ = 0;
  int bits_ = 32;
  int32_t reference_ = 0;
};

/// Owning encoded column; what `ssb::LineorderTable` members are. Keeps the
/// seed's plain layout as a zero-copy move (`FromPlain`) so plain-mode
/// behaviour and performance are bit-identical to the pre-storage-layer
/// code.
class EncodedColumn {
 public:
  EncodedColumn() = default;

  /// Wraps an existing plain vector without copying.
  static EncodedColumn FromPlain(AlignedVector<int32_t> values);

  /// Packs with (reference, bits) derived from the actual min/max of
  /// `values`. Empty input yields an empty packed column with bits=1.
  static EncodedColumn Pack(const int32_t* values, int64_t n);

  /// Packs with a caller-chosen layout; every value must satisfy
  /// reference <= value < reference + 2^bits.
  static EncodedColumn PackWithLayout(const int32_t* values, int64_t n,
                                      int32_t reference, int bits);

  /// Encodes per `options` (moving in for plain, packing for packed).
  static EncodedColumn Encode(AlignedVector<int32_t> values,
                              const StorageOptions& options);

  Encoding encoding() const { return encoding_; }
  int64_t rows() const { return rows_; }
  int64_t size() const { return rows_; }
  int bits() const { return encoding_ == Encoding::kPacked ? bits_ : 32; }
  int32_t reference() const { return reference_; }

  ColumnView view() const {
    return encoding_ == Encoding::kPacked
               ? ColumnView::Packed(words_.data(), rows_, bits_, reference_)
               : ColumnView::Plain(plain_.data(), rows_);
  }

  int32_t Get(int64_t i) const { return view().Get(i); }
  int32_t operator[](int64_t i) const { return Get(i); }

  /// Raw plain payload — only valid for plain columns (checked). Callers
  /// that want encoding-agnostic access go through view().
  const int32_t* data() const {
    CRYSTAL_CHECK(encoding_ == Encoding::kPlain);
    return plain_.data();
  }

  int64_t encoded_bytes() const { return view().encoded_bytes(); }

  /// Decoded (value-level) equality: a packed and a plain column holding
  /// the same values compare equal.
  bool operator==(const EncodedColumn& other) const;
  bool operator!=(const EncodedColumn& other) const {
    return !(*this == other);
  }

 private:
  friend class ColumnBuilder;

  Encoding encoding_ = Encoding::kPlain;
  int64_t rows_ = 0;
  int bits_ = 32;
  int32_t reference_ = 0;
  AlignedVector<int32_t> plain_;
  AlignedVector<uint32_t> words_;
};

/// Streaming writer used by datagen: rows land directly in the final
/// (plain or packed) buffer, so generation is memory-bounded by the
/// encoded size — there is never a transient plain materialization to
/// re-encode. For packed targets the layout (reference, bits) must be
/// known up front (SSB domains are; see ssb/datagen.cc) and each row index
/// must be Set at most once (packed writes OR into pre-zeroed words).
class ColumnBuilder {
 public:
  /// Plain builder.
  ColumnBuilder(Encoding encoding, int64_t rows);
  /// Packed-capable builder with an explicit layout (ignored for plain).
  ColumnBuilder(Encoding encoding, int64_t rows, int32_t reference, int bits);

  void Set(int64_t i, int32_t value) {
    CRYSTAL_DCHECK(i >= 0 && i < rows_);
    if (encoding_ == Encoding::kPlain) {
      plain_[i] = value;
      return;
    }
    const uint32_t raw =
        static_cast<uint32_t>(static_cast<int64_t>(value) - reference_);
    CRYSTAL_DCHECK(bits_ >= 32 || (raw >> bits_) == 0);
    const int64_t bit = i * bits_;
    const int64_t word = bit >> 5;
    const int shift = static_cast<int>(bit & 31);
    words_[word] |= raw << shift;
    if (shift + bits_ > 32) words_[word + 1] |= raw >> (32 - shift);
  }

  EncodedColumn Finish();

 private:
  Encoding encoding_;
  int64_t rows_;
  int32_t reference_ = 0;
  int bits_ = 32;
  AlignedVector<int32_t> plain_;
  AlignedVector<uint32_t> words_;
};

}  // namespace crystal::storage

#endif  // CRYSTAL_STORAGE_ENCODED_COLUMN_H_
