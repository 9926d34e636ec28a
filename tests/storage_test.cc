// Storage-layer tests: bit-packed encoding round-trips, layout formulas,
// the streaming ColumnBuilder, the CPU unpack/select kernels against the
// scalar PackedGet reference (both SIMD dispatch states), and datagen's
// contract that plain and packed runs generate value-identical databases,
// pinned by golden hashes and independent of the generating thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cpu/vector_ops.h"
#include "query/query_spec.h"
#include "ssb/datagen.h"
#include "storage/encoded_column.h"

namespace crystal::storage {
namespace {

// ---------------------------------------------------------------------
// Layout formulas.

TEST(StorageLayoutTest, BitsForSpan) {
  EXPECT_EQ(BitsForSpan(0), 1);  // never a 0-bit column
  EXPECT_EQ(BitsForSpan(1), 1);
  EXPECT_EQ(BitsForSpan(2), 2);
  EXPECT_EQ(BitsForSpan(3), 2);
  EXPECT_EQ(BitsForSpan(4), 3);
  for (int b = 1; b < 32; ++b) {
    const uint32_t max = (1u << b) - 1u;
    EXPECT_EQ(BitsForSpan(max), b) << max;
    EXPECT_EQ(BitsForSpan(max + 1), b + 1) << max + 1;
  }
  EXPECT_EQ(BitsForSpan(0xffffffffu), 32);
}

TEST(StorageLayoutTest, PackedBytesIsCeilRowsBitsOver8) {
  EXPECT_EQ(PackedBytes(0, 7), 0);
  EXPECT_EQ(PackedBytes(1, 1), 1);
  EXPECT_EQ(PackedBytes(8, 1), 1);
  EXPECT_EQ(PackedBytes(9, 1), 2);
  EXPECT_EQ(PackedBytes(3, 6), 3);   // 18 bits -> 3 bytes
  EXPECT_EQ(PackedBytes(5, 13), 9);  // 65 bits -> 9 bytes
  EXPECT_EQ(PackedBytes(1000, 32), 4000);
  // The 42-bit q1.x working set: 6M rows at 16+6+4+16 bits = 31.5 MB,
  // i.e. 5.25 bytes/row — the number the coprocessor ships over PCIe.
  EXPECT_EQ(PackedBytes(6000000, 16) + PackedBytes(6000000, 6) +
                PackedBytes(6000000, 4) + PackedBytes(6000000, 16),
            31500000);
}

TEST(StorageLayoutTest, PackedWordsHasTailSlack) {
  // Payload words + kPackedSlackWords (4), so 64-bit window reads and the
  // AVX2 dense decode's 16-byte loads at the last rows stay in bounds for
  // every (rows, bits) combination.
  EXPECT_EQ(kPackedSlackWords, 4);
  EXPECT_EQ(PackedWords(0, 9), 4);
  EXPECT_EQ(PackedWords(1, 1), 5);
  EXPECT_EQ(PackedWords(32, 1), 5);
  EXPECT_EQ(PackedWords(33, 1), 6);
  EXPECT_EQ(PackedWords(8, 32), 12);
  for (int bits = 1; bits <= 32; ++bits) {
    for (int64_t rows : {1, 7, 64, 1000}) {
      const int64_t payload = (rows * bits + 31) / 32;
      EXPECT_EQ(PackedWords(rows, bits), payload + kPackedSlackWords)
          << rows << "x" << bits;
    }
  }
}

TEST(StorageLayoutTest, EncodingNames) {
  Encoding e = Encoding::kPacked;
  EXPECT_TRUE(EncodingFromName("plain", &e));
  EXPECT_EQ(e, Encoding::kPlain);
  EXPECT_TRUE(EncodingFromName("packed", &e));
  EXPECT_EQ(e, Encoding::kPacked);
  EXPECT_FALSE(EncodingFromName("zstd", &e));
  EXPECT_FALSE(EncodingFromName("", &e));
  EXPECT_STREQ(EncodingName(Encoding::kPlain), "plain");
  EXPECT_STREQ(EncodingName(Encoding::kPacked), "packed");
}

// ---------------------------------------------------------------------
// Round-trips.

std::vector<int32_t> RandomValues(Rng* rng, int n, int32_t lo, int32_t hi) {
  std::vector<int32_t> v(static_cast<size_t>(n));
  for (int32_t& x : v) x = rng->UniformInt(lo, hi);
  return v;
}

TEST(EncodedColumnTest, PackRoundTripsEveryWidthAndTailLength) {
  Rng rng(1);
  for (int bits = 1; bits <= 32; ++bits) {
    // References below, at and above zero; the span forces exactly `bits`.
    const int32_t reference = bits % 3 == 0 ? -123456 : (bits % 3 == 1 ? 0 : 7);
    const int64_t span = bits >= 32 ? 0xffffffffll : (1ll << bits) - 1;
    // n from 1 to a few words' worth, so tails straddle word boundaries at
    // every phase for every width.
    for (int n = 1; n <= 70; n += (bits < 8 ? 1 : 7)) {
      std::vector<int32_t> values(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        values[static_cast<size_t>(i)] = static_cast<int32_t>(
            reference + static_cast<int64_t>(rng.Next64() % (span + 1)));
      }
      // Pin the extremes so Pack's derived layout is exercised at width.
      values[0] = reference;
      values[static_cast<size_t>(n - 1)] =
          static_cast<int32_t>(reference + span);

      const EncodedColumn packed = EncodedColumn::Pack(values.data(), n);
      ASSERT_EQ(packed.encoding(), Encoding::kPacked);
      EXPECT_EQ(packed.rows(), n);
      // At bits=32 `reference + span` wraps int32, so the derived layout
      // legitimately picks the (negative) wrapped minimum; only narrower
      // widths pin the exact layout.
      if (n > 1 && bits < 32) {
        EXPECT_EQ(packed.bits(), bits) << "n=" << n;
        EXPECT_EQ(packed.reference(), reference);
      }
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(packed.Get(i), values[static_cast<size_t>(i)])
            << "bits=" << bits << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(packed.encoded_bytes(), PackedBytes(n, packed.bits()));
    }
  }
}

TEST(EncodedColumnTest, PackWithLayoutRoundTripsExplicitLayouts) {
  Rng rng(2);
  for (int bits : {1, 3, 11, 17, 31, 32}) {
    const int32_t reference = -50;
    const int64_t span = bits >= 32 ? 0xffffffffll : (1ll << bits) - 1;
    const int n = 257;
    std::vector<int32_t> values(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      values[static_cast<size_t>(i)] = static_cast<int32_t>(
          reference + static_cast<int64_t>(rng.Next64() % (span + 1)));
    }
    const EncodedColumn col =
        EncodedColumn::PackWithLayout(values.data(), n, reference, bits);
    EXPECT_EQ(col.bits(), bits);
    EXPECT_EQ(col.reference(), reference);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(col.Get(i), values[static_cast<size_t>(i)]) << i;
    }
  }
}

TEST(EncodedColumnTest, PackEmptyIsEmpty) {
  const EncodedColumn col = EncodedColumn::Pack(nullptr, 0);
  EXPECT_EQ(col.encoding(), Encoding::kPacked);
  EXPECT_EQ(col.rows(), 0);
  EXPECT_EQ(col.bits(), 1);
  EXPECT_EQ(col.encoded_bytes(), 0);
}

TEST(EncodedColumnTest, EncodeDispatchesOnOptions) {
  Rng rng(3);
  const std::vector<int32_t> values = RandomValues(&rng, 100, -5, 1000);
  AlignedVector<int32_t> plain_in(values.begin(), values.end());
  AlignedVector<int32_t> packed_in(values.begin(), values.end());

  StorageOptions plain_opts;  // default kPlain
  const EncodedColumn plain =
      EncodedColumn::Encode(std::move(plain_in), plain_opts);
  EXPECT_EQ(plain.encoding(), Encoding::kPlain);
  EXPECT_EQ(plain.bits(), 32);
  EXPECT_EQ(plain.encoded_bytes(), 100 * 4);

  StorageOptions packed_opts;
  packed_opts.encoding = Encoding::kPacked;
  const EncodedColumn packed =
      EncodedColumn::Encode(std::move(packed_in), packed_opts);
  EXPECT_EQ(packed.encoding(), Encoding::kPacked);
  EXPECT_LT(packed.encoded_bytes(), plain.encoded_bytes());

  // Decoded equality across encodings — the relation every engine's
  // conformance run depends on.
  EXPECT_TRUE(plain == packed);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(plain.Get(i), packed.Get(i)) << i;
    ASSERT_EQ(plain.Get(i), values[static_cast<size_t>(i)]) << i;
  }
}

TEST(EncodedColumnTest, DecodedEqualityDetectsDifferences) {
  const std::vector<int32_t> a = {1, 2, 3};
  std::vector<int32_t> b = a;
  b[2] = 4;
  const EncodedColumn pa = EncodedColumn::Pack(a.data(), 3);
  const EncodedColumn pb = EncodedColumn::Pack(b.data(), 3);
  EXPECT_TRUE(pa == pa);
  EXPECT_TRUE(pa != pb);
  const EncodedColumn shorter = EncodedColumn::Pack(a.data(), 2);
  EXPECT_TRUE(pa != shorter);
}

TEST(EncodedColumnTest, ViewMatchesOwnerForBothEncodings) {
  Rng rng(4);
  const std::vector<int32_t> values = RandomValues(&rng, 77, 0, 999);
  const EncodedColumn packed = EncodedColumn::Pack(values.data(), 77);
  const ColumnView pv = packed.view();
  EXPECT_TRUE(pv.packed());
  EXPECT_EQ(pv.rows(), 77);
  EXPECT_EQ(pv.bits(), packed.bits());
  EXPECT_EQ(pv.reference(), packed.reference());
  EXPECT_EQ(pv.encoded_bytes(), packed.encoded_bytes());

  AlignedVector<int32_t> owned(values.begin(), values.end());
  const EncodedColumn plain = EncodedColumn::FromPlain(std::move(owned));
  const ColumnView lv = plain.view();
  EXPECT_FALSE(lv.packed());
  EXPECT_EQ(lv.bits(), 32);
  EXPECT_EQ(lv.plain_data(), plain.data());  // zero-copy
  for (int64_t i = 0; i < 77; ++i) {
    ASSERT_EQ(pv.Get(i), values[static_cast<size_t>(i)]) << i;
    ASSERT_EQ(lv.Get(i), values[static_cast<size_t>(i)]) << i;
  }
}

// ---------------------------------------------------------------------
// Streaming builder (the datagen write path).

TEST(ColumnBuilderTest, PackedBuilderMatchesPack) {
  Rng rng(5);
  const int n = 1000;
  const int32_t reference = -7;
  const int bits = 13;
  std::vector<int32_t> values(static_cast<size_t>(n));
  for (int32_t& v : values) {
    v = reference + rng.UniformInt(0, (1 << bits) - 1);
  }

  ColumnBuilder builder(Encoding::kPacked, n, reference, bits);
  // Out-of-order single writes: each index exactly once, like the
  // generator's per-table column loops.
  for (int i = n - 1; i >= 0; --i) {
    builder.Set(i, values[static_cast<size_t>(i)]);
  }
  const EncodedColumn built = builder.Finish();
  const EncodedColumn packed =
      EncodedColumn::PackWithLayout(values.data(), n, reference, bits);
  EXPECT_EQ(built.bits(), bits);
  EXPECT_EQ(built.reference(), reference);
  EXPECT_TRUE(built == packed);
}

TEST(ColumnBuilderTest, PlainBuilderIgnoresLayout) {
  ColumnBuilder builder(Encoding::kPlain, 3, /*reference=*/100, /*bits=*/4);
  builder.Set(0, -1);
  builder.Set(1, 1 << 20);  // would not fit 4 bits; plain must not care
  builder.Set(2, 42);
  const EncodedColumn col = builder.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kPlain);
  EXPECT_EQ(col.Get(0), -1);
  EXPECT_EQ(col.Get(1), 1 << 20);
  EXPECT_EQ(col.Get(2), 42);
}

// ---------------------------------------------------------------------
// CPU packed kernels vs DecodePacked, under both SIMD dispatch states: the
// AVX2 and scalar paths must each reproduce the one-value decode. The
// sweep covers every width, every bit phase of a vector's start (the AVX2
// dense decode builds its byte shuffle per (bits, start*bits % 8)), the
// short and full vector lengths around the 8-lane groups, and survivor
// sets on both sides of UnpackSurvivors' density rule.

class PackedKernelsTest : public testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    simd_was_enabled_ = cpu::SimdEnabled();
    if (GetParam() && !cpu::SimdAvailable()) {
      GTEST_SKIP() << "AVX2 not available on this host";
    }
    cpu::SetSimdEnabled(GetParam());
  }
  void TearDown() override { cpu::SetSimdEnabled(simd_was_enabled_); }

 private:
  bool simd_was_enabled_ = true;
};

/// Clamps an int64 bound into int32.
int32_t Bound(int64_t v) {
  return static_cast<int32_t>(
      std::clamp<int64_t>(v, INT32_MIN, INT32_MAX));
}

TEST_P(PackedKernelsTest, KernelsMatchScalarReference) {
  Rng rng(6);
  constexpr int64_t kRows = 3000;
  for (int bits = 1; bits <= 32; ++bits) {
    // Wide odd widths store values whose reference + code wraps past
    // INT32_MAX; the decode wraps the same way on every path.
    const int32_t reference = bits % 2 == 0 ? -1000 : 19920101;
    const int64_t span = bits >= 32 ? 0xffffffffll : (1ll << bits) - 1;
    std::vector<int32_t> values(static_cast<size_t>(kRows));
    for (int32_t& v : values) {
      v = static_cast<int32_t>(reference +
                               static_cast<int64_t>(rng.Next64() % (span + 1)));
    }
    const EncodedColumn col =
        EncodedColumn::PackWithLayout(values.data(), kRows, reference, bits);
    // An exact-size heap copy: a vector ending at the last row then ends
    // at the end of the allocation, so an over-read past the tail slack
    // trips AddressSanitizer.
    const std::vector<uint32_t> buffer(
        col.view().words(),
        col.view().words() + PackedWords(kRows, bits));
    const uint32_t* words = buffer.data();

    // Predicates: mid-domain, a single value, bounds below the reference,
    // straddling it, above the domain, straddling its top, an empty range
    // and the whole int32 range.
    const int64_t ref = reference;
    const std::vector<std::pair<int32_t, int32_t>> ranges = {
        {Bound(ref + span / 4), Bound(ref + (3 * span) / 4)},
        {values[7], values[7]},
        {Bound(ref - 100), Bound(ref - 1)},
        {Bound(ref - 100), Bound(ref + span / 2)},
        {Bound(ref + span + 1), Bound(ref + span + 100)},
        {Bound(ref + span / 2), Bound(ref + span + 100)},
        {Bound(ref + span / 2), Bound(ref + span / 4)},
        {INT32_MIN, INT32_MAX},
    };

    for (int n : {0, 1, 7, 8, 9, 1023, 1024}) {
      std::vector<int64_t> starts = {0, 1, 2, 3, 4, 5, 6, 7, 1024,
                                     kRows - n};
      for (int64_t start : starts) {
        const std::string where = "bits=" + std::to_string(bits) +
                                  " start=" + std::to_string(start) +
                                  " n=" + std::to_string(n);
        std::vector<int32_t> want(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
          want[static_cast<size_t>(i)] =
              DecodePacked(words, bits, reference, start + i);
          ASSERT_EQ(want[static_cast<size_t>(i)],
                    values[static_cast<size_t>(start + i)])
              << where << " i=" << i;
        }

        // UnpackRange over the whole vector.
        std::vector<int32_t> out(static_cast<size_t>(n) + 1, 0);
        cpu::UnpackRange(words, bits, reference, start, n, out.data());
        out.pop_back();
        ASSERT_EQ(out, want) << where;

        // Survivor sets: empty, one at n - 1 (sparse once n > 3), every
        // 5th and 4th row (sparse once n > 9), every 3rd row (dense), and
        // all rows.
        std::vector<std::vector<int32_t>> survivors(6);
        if (n > 0) survivors[1].push_back(n - 1);
        for (int i = 0; i < n; ++i) {
          if (i % 5 == 0) survivors[2].push_back(i);
          if (i % 4 == 0) survivors[3].push_back(i);
          if (i % 3 == 0) survivors[4].push_back(i);
          survivors[5].push_back(i);
        }

        // UnpackAt: selected slots decode, the others stay untouched.
        // UnpackSurvivors: selected slots decode, the others stay
        // untouched or hold their own decoded value.
        constexpr int32_t kSentinel = -2147000000;
        for (const std::vector<int32_t>& s : survivors) {
          const int m = static_cast<int>(s.size());
          std::vector<int32_t> got(static_cast<size_t>(n), kSentinel);
          std::vector<int32_t> expect(static_cast<size_t>(n), kSentinel);
          for (int32_t r : s) {
            expect[static_cast<size_t>(r)] = want[static_cast<size_t>(r)];
          }
          cpu::UnpackAt(words, bits, reference, start, s.data(), m,
                        got.data());
          ASSERT_EQ(got, expect) << where << " m=" << m;

          std::fill(got.begin(), got.end(), kSentinel);
          cpu::UnpackSurvivors(words, bits, reference, start, s.data(), m,
                               got.data());
          for (int i = 0; i < n; ++i) {
            const size_t k = static_cast<size_t>(i);
            if (got[k] != expect[k]) {
              ASSERT_EQ(expect[k], kSentinel) << where << " m=" << m;
              ASSERT_EQ(got[k], want[k]) << where << " m=" << m << " i=" << i;
              ASSERT_LE(i, s.back()) << where << " m=" << m;
            }
          }
        }

        for (const auto& [lo, hi] : ranges) {
          const std::string pred = where + " lo=" + std::to_string(lo) +
                                   " hi=" + std::to_string(hi);
          auto passes = [&](int32_t r) {
            const int32_t v = want[static_cast<size_t>(r)];
            return v >= lo && v <= hi;
          };
          // SelectRangePacked.
          std::vector<int32_t> want_sel;
          for (int i = 0; i < n; ++i) {
            if (passes(i)) want_sel.push_back(i);
          }
          std::vector<int32_t> sel(static_cast<size_t>(n) + 8);
          const int got = cpu::SelectRangePacked(words, bits, reference, start,
                                                 n, lo, hi, sel.data());
          sel.resize(static_cast<size_t>(got));
          ASSERT_EQ(sel, want_sel) << pred;

          // RefineRangePacked in place (the engine idiom) over every
          // survivor set.
          for (const std::vector<int32_t>& s : survivors) {
            std::vector<int32_t> want_kept;
            for (int32_t r : s) {
              if (passes(r)) want_kept.push_back(r);
            }
            std::vector<int32_t> kept = s;
            kept.resize(s.size() + 8);
            const int k = cpu::RefineRangePacked(
                words, bits, reference, start, kept.data(),
                static_cast<int>(s.size()), lo, hi, kept.data());
            kept.resize(static_cast<size_t>(k));
            ASSERT_EQ(kept, want_kept) << pred << " m=" << s.size();
          }
        }
      }
    }
  }
}

TEST_P(PackedKernelsTest, UnpackSurvivorsSplitsAtTheDensityRule) {
  // With SIMD, m survivors whose last row is m * kDenseSurvivorStride - 1
  // decode the whole prefix (rows between survivors hold their values);
  // one row further on they are sparse and only the survivors are
  // written. Without SIMD only survivors are ever written.
  constexpr int kStride = cpu::kDenseSurvivorStride;
  constexpr int kBits = 11;
  constexpr int32_t kReference = 7;
  constexpr int kSurvivors = 100;
  constexpr int kRows = kSurvivors * kStride + 1;
  std::vector<int32_t> values(kRows);
  for (int i = 0; i < kRows; ++i) values[i] = kReference + (i * 37) % 2000;
  const EncodedColumn col =
      EncodedColumn::PackWithLayout(values.data(), kRows, kReference, kBits);
  constexpr int32_t kSentinel = -1;
  for (int last : {kSurvivors * kStride - 1, kSurvivors * kStride}) {
    std::vector<int32_t> sel;
    for (int i = 0; i + 1 < kSurvivors; ++i) sel.push_back(i * kStride);
    sel.push_back(last);
    std::vector<int32_t> out(kRows, kSentinel);
    cpu::UnpackSurvivors(col.view().words(), kBits, kReference, 0,
                         sel.data(), kSurvivors, out.data());
    const bool dense = GetParam() && last < kSurvivors * kStride;
    for (int i = 0; i < kRows; ++i) {
      const bool selected = std::binary_search(sel.begin(), sel.end(), i);
      const int32_t expect = selected || (dense && i <= last)
                                 ? values[static_cast<size_t>(i)]
                                 : kSentinel;
      ASSERT_EQ(out[static_cast<size_t>(i)], expect)
          << "last=" << last << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SimdDispatch, PackedKernelsTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "simd" : "scalar";
                         });

// ---------------------------------------------------------------------
// Datagen contract: the storage knob changes layout only. One RNG stream,
// one draw order, so plain and packed runs are value-identical — the
// property the whole conformance matrix and the SF=10 streaming build
// rest on.

TEST(DatagenStorageTest, PackedAndPlainGenerateIdenticalValues) {
  ssb::DatagenOptions plain_opts;
  plain_opts.scale_factor = 1;
  plain_opts.fact_divisor = 2000;  // 3k fact rows: fast but word-straddling
  ssb::DatagenOptions packed_opts = plain_opts;
  packed_opts.storage.encoding = Encoding::kPacked;

  const ssb::Database plain = ssb::Generate(plain_opts);
  const ssb::Database packed = ssb::Generate(packed_opts);
  ASSERT_EQ(plain.lo.rows, packed.lo.rows);
  EXPECT_EQ(plain.storage, Encoding::kPlain);
  EXPECT_EQ(packed.storage, Encoding::kPacked);

  for (int c = 0; c < query::kNumFactCols; ++c) {
    const query::FactCol fc = static_cast<query::FactCol>(c);
    const EncodedColumn& p = query::FactColumn(plain, fc);
    const EncodedColumn& q = query::FactColumn(packed, fc);
    ASSERT_EQ(p.encoding(), Encoding::kPlain) << query::FactColName(fc);
    ASSERT_EQ(q.encoding(), Encoding::kPacked) << query::FactColName(fc);
    // Decoded equality over every row, and a real compression win.
    EXPECT_TRUE(p == q) << query::FactColName(fc);
    EXPECT_LT(q.encoded_bytes(), p.encoded_bytes()) << query::FactColName(fc);
    EXPECT_EQ(q.encoded_bytes(), PackedBytes(q.rows(), q.bits()));
  }
}

// FNV-1a-64 over every row's value as 4 little-endian bytes of uint32.
uint64_t Fnv1a64(const EncodedColumn& column) {
  uint64_t h = 0xcbf29ce484222325ull;
  const ColumnView v = column.view();
  for (int64_t i = 0; i < v.rows(); ++i) {
    const uint32_t value = static_cast<uint32_t>(v.Get(i));
    for (int b = 0; b < 4; ++b) {
      h ^= (value >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Every dimension column of a database, for whole-database comparisons.
std::vector<const ssb::Column*> DimensionColumns(const ssb::Database& db) {
  return {&db.d.datekey, &db.d.year,    &db.d.yearmonthnum,
          &db.d.weeknuminyear,
          &db.c.custkey, &db.c.city,    &db.c.nation,   &db.c.region,
          &db.s.suppkey, &db.s.city,    &db.s.nation,   &db.s.region,
          &db.p.partkey, &db.p.mfgr,    &db.p.category, &db.p.brand1};
}

// Pins the fact draw order, then checks that the thread count changes
// nothing. Parallel generation splits lineorder into fixed-size chunks
// whatever the thread count, so comparing thread counts alone cannot catch
// a wrong RNG skip offset; the hashes were recorded from the serial
// generator. SF=1 / divisor 7 is 857,142 rows: not a multiple of 32, and
// more than one chunk.
TEST(DatagenStorageTest, FactColumnsMatchGoldenHashes) {
  constexpr uint64_t kGolden[query::kNumFactCols] = {
      0x5a4c5d7a2439be54ull,  // orderdate
      0x99554a404e25767aull,  // custkey
      0xc9275d7f488bb144ull,  // partkey
      0xa481e771706ff57full,  // suppkey
      0xcef934920d7b50cdull,  // quantity
      0xcb7bfcdb5d849849ull,  // discount
      0xf0d5740edca3054cull,  // extendedprice
      0x58dac88e7c2ad4f1ull,  // revenue
      0xbbc7010baf2c40cbull,  // supplycost
  };
  for (const Encoding enc : {Encoding::kPlain, Encoding::kPacked}) {
    ssb::DatagenOptions opts;
    opts.scale_factor = 1;
    opts.fact_divisor = 7;
    opts.storage.encoding = enc;
    ThreadPool serial_pool(1);
    const ssb::Database serial = ssb::Generate(opts, serial_pool);
    ASSERT_EQ(serial.lo.rows, 857'142);
    for (int c = 0; c < query::kNumFactCols; ++c) {
      const query::FactCol fc = static_cast<query::FactCol>(c);
      EXPECT_EQ(Fnv1a64(query::FactColumn(serial, fc)), kGolden[c])
          << EncodingName(enc) << " " << query::FactColName(fc);
    }

    for (const int threads : {3, 4}) {
      ThreadPool pool(threads);
      const ssb::Database db = ssb::Generate(opts, pool);
      ASSERT_EQ(db.lo.rows, serial.lo.rows);
      for (int c = 0; c < query::kNumFactCols; ++c) {
        const query::FactCol fc = static_cast<query::FactCol>(c);
        EXPECT_TRUE(query::FactColumn(db, fc) ==
                    query::FactColumn(serial, fc))
            << EncodingName(enc) << " threads=" << threads << " "
            << query::FactColName(fc);
      }
      const std::vector<const ssb::Column*> a = DimensionColumns(db);
      const std::vector<const ssb::Column*> b = DimensionColumns(serial);
      for (size_t d = 0; d < a.size(); ++d) {
        EXPECT_TRUE(*a[d] == *b[d])
            << EncodingName(enc) << " threads=" << threads << " dim " << d;
      }
    }
  }
}

}  // namespace
}  // namespace crystal::storage
