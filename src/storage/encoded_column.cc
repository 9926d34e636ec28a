#include "storage/encoded_column.h"

#include <algorithm>

namespace crystal::storage {

const char* EncodingName(Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlain:
      return "plain";
    case Encoding::kPacked:
      return "packed";
  }
  return "unknown";
}

bool EncodingFromName(const std::string& name, Encoding* out) {
  if (name == "plain") {
    *out = Encoding::kPlain;
    return true;
  }
  if (name == "packed") {
    *out = Encoding::kPacked;
    return true;
  }
  return false;
}

int BitsForSpan(uint32_t span) {
  int bits = 1;
  while (bits < 32 && (span >> bits) != 0) ++bits;
  return bits;
}

int64_t PackedBytes(int64_t rows, int bits) {
  return (rows * bits + 7) / 8;
}

int64_t PackedWords(int64_t rows, int bits) {
  return (rows * bits + 31) / 32 + kPackedSlackWords;
}

EncodedColumn EncodedColumn::FromPlain(AlignedVector<int32_t> values) {
  EncodedColumn c;
  c.encoding_ = Encoding::kPlain;
  c.rows_ = static_cast<int64_t>(values.size());
  c.plain_ = std::move(values);
  return c;
}

EncodedColumn EncodedColumn::Pack(const int32_t* values, int64_t n) {
  int32_t lo = 0;
  int32_t hi = 0;
  if (n > 0) {
    lo = hi = values[0];
    for (int64_t i = 1; i < n; ++i) {
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
  }
  const uint32_t span = static_cast<uint32_t>(static_cast<int64_t>(hi) - lo);
  return PackWithLayout(values, n, lo, BitsForSpan(span));
}

EncodedColumn EncodedColumn::PackWithLayout(const int32_t* values, int64_t n,
                                            int32_t reference, int bits) {
  ColumnBuilder builder(Encoding::kPacked, n, reference, bits);
  for (int64_t i = 0; i < n; ++i) builder.Set(i, values[i]);
  return builder.Finish();
}

EncodedColumn EncodedColumn::Encode(AlignedVector<int32_t> values,
                                    const StorageOptions& options) {
  if (options.encoding == Encoding::kPlain)
    return FromPlain(std::move(values));
  return Pack(values.data(), static_cast<int64_t>(values.size()));
}

bool EncodedColumn::operator==(const EncodedColumn& other) const {
  if (rows_ != other.rows_) return false;
  const ColumnView a = view();
  const ColumnView b = other.view();
  for (int64_t i = 0; i < rows_; ++i) {
    if (a.Get(i) != b.Get(i)) return false;
  }
  return true;
}

ColumnBuilder::ColumnBuilder(Encoding encoding, int64_t rows)
    : ColumnBuilder(encoding, rows, /*reference=*/0, /*bits=*/32) {}

ColumnBuilder::ColumnBuilder(Encoding encoding, int64_t rows,
                             int32_t reference, int bits)
    : encoding_(encoding), rows_(rows), reference_(reference), bits_(bits) {
  CRYSTAL_CHECK(rows >= 0);
  CRYSTAL_CHECK(bits >= 1 && bits <= 32);
  if (encoding_ == Encoding::kPlain) {
    plain_.resize(static_cast<size_t>(rows));
  } else {
    words_.assign(static_cast<size_t>(PackedWords(rows, bits)), 0u);
  }
}

EncodedColumn ColumnBuilder::Finish() {
  EncodedColumn c;
  c.encoding_ = encoding_;
  c.rows_ = rows_;
  if (encoding_ == Encoding::kPacked) {
    c.bits_ = bits_;
    c.reference_ = reference_;
    c.words_ = std::move(words_);
  } else {
    c.plain_ = std::move(plain_);
  }
  return c;
}

}  // namespace crystal::storage
