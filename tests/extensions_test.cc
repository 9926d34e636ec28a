// Tests for the Section 5.5 / Section 4.3 extension features: bit-packed
// columns and the radix-partitioned join.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "gpu/hash_join.h"
#include "gpu/hash_table.h"
#include "gpu/packed_column.h"
#include "gpu/radix_join.h"
#include "sim/device.h"

namespace crystal::gpu {
namespace {

using sim::Device;
using sim::DeviceBuffer;
using sim::DeviceProfile;

// ------------------------------ PackedColumn -----------------------------

class PackedBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedBitsTest, RoundTripsEveryValue) {
  const int bits = GetParam();
  Device dev(DeviceProfile::V100());
  const int64_t n = 10'000;
  std::vector<int32_t> values(n);
  Rng rng(bits);
  const int32_t max_v =
      bits == 32 ? INT32_MAX : static_cast<int32_t>((1ll << bits) - 1);
  for (auto& v : values) {
    v = static_cast<int32_t>(rng.Uniform(0, max_v));
  }
  PackedColumn col(dev, values.data(), n, bits);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(col.Get(i), values[i]) << "bits=" << bits << " i=" << i;
  }
}

TEST_P(PackedBitsTest, SelectCountMatchesPlain) {
  const int bits = GetParam();
  Device dev(DeviceProfile::V100());
  const int64_t n = 20'000;
  const int32_t max_v =
      bits == 32 ? 1'000'000 : static_cast<int32_t>((1ll << bits) - 1);
  DeviceBuffer<int32_t> plain(dev, n);
  std::vector<int32_t> values(n);
  Rng rng(100 + bits);
  for (int64_t i = 0; i < n; ++i) {
    values[i] = static_cast<int32_t>(rng.Uniform(0, max_v));
    plain[i] = values[i];
  }
  PackedColumn packed(dev, values.data(), n, bits);
  const int32_t lo = max_v / 4;
  const int32_t hi = max_v / 2;
  EXPECT_EQ(SelectCountPacked(dev, packed, lo, hi),
            SelectCountPlain(dev, plain, lo, hi));
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedBitsTest,
                         ::testing::Values(1, 5, 8, 11, 16, 17, 24, 31, 32));

TEST(PackedColumnTest, PackedBytesShrinkWithWidth) {
  Device dev(DeviceProfile::V100());
  const int64_t n = 100'000;
  std::vector<int32_t> values(n, 3);
  PackedColumn narrow(dev, values.data(), n, 8);
  PackedColumn wide(dev, values.data(), n, 32);
  EXPECT_NEAR(static_cast<double>(wide.packed_bytes()) /
                  static_cast<double>(narrow.packed_bytes()),
              4.0, 0.01);
}

TEST(PackedColumnTest, ScanTrafficMatchesBitWidth) {
  Device dev(DeviceProfile::V100());
  const int64_t n = 1 << 16;
  std::vector<int32_t> values(n, 1);
  PackedColumn col(dev, values.data(), n, 10);
  dev.ResetStats();
  SelectCountPacked(dev, col, 0, 1);
  // 10-bit scan moves ~10/32 of the plain traffic.
  EXPECT_NEAR(static_cast<double>(dev.stats().seq_read_bytes),
              n * 10.0 / 8.0, n * 0.01);
}

TEST(PackedColumnTest, RejectsOutOfRangeValues) {
  Device dev(DeviceProfile::V100());
  std::vector<int32_t> values = {256};  // needs 9 bits
  EXPECT_DEATH(PackedColumn(dev, values.data(), 1, 8), "does not fit");
}

// ------------------------------- Radix join ------------------------------

class RadixJoinBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(RadixJoinBitsTest, MatchesNoPartitioningJoin) {
  const int bits = GetParam();
  Device dev(DeviceProfile::V100());
  const int64_t build_n = 30'000;
  const int64_t probe_n = 120'000;
  DeviceBuffer<int32_t> bk(dev, build_n), bv(dev, build_n);
  Rng rng(7 + bits);
  for (int64_t i = 0; i < build_n; ++i) {
    bk[i] = static_cast<int32_t>(i * 2);  // even keys
    bv[i] = rng.UniformInt(0, 999);
  }
  DeviceBuffer<int32_t> pk(dev, probe_n), pv(dev, probe_n);
  for (int64_t i = 0; i < probe_n; ++i) {
    pk[i] = rng.UniformInt(0, static_cast<int32_t>(build_n * 2 - 1));
    pv[i] = rng.UniformInt(0, 999);
  }
  DeviceHashTable table(dev, build_n);
  table.Build(bk, bv);
  const JoinResult plain = HashJoinProbeSum(dev, table, pk, pv);
  const JoinResult radix = RadixHashJoinSum(dev, bk, bv, pk, pv, bits);
  EXPECT_EQ(radix.checksum, plain.checksum);
  EXPECT_EQ(radix.matches, plain.matches);
}

INSTANTIATE_TEST_SUITE_P(Bits, RadixJoinBitsTest, ::testing::Values(1, 4, 8));

TEST(RadixJoinTest, ChoosesEnoughBitsToFitCache) {
  Device dev(DeviceProfile::V100());
  // 64M build rows * 16B = 1 GB; 6 MB L2 => capped at the 8-bit pass limit.
  EXPECT_EQ(ChooseRadixBits(dev, 64'000'000), 8);
  // Tiny build side: no partitioning needed beyond the minimum.
  EXPECT_EQ(ChooseRadixBits(dev, 1'000), 1);
}

TEST(RadixJoinTest, PartitioningTurnsDramProbesIntoCacheProbes) {
  // A build side far beyond L2: the no-partitioning join misses DRAM on
  // most probes, while the radix join's per-partition tables fit.
  Device dev_plain(DeviceProfile::V100());
  Device dev_radix(DeviceProfile::V100());
  const int64_t build_n = 2'000'000;  // 64 MB table
  const int64_t probe_n = 1'000'000;
  auto fill = [&](Device&, DeviceBuffer<int32_t>& k,
                  DeviceBuffer<int32_t>& v, int64_t n, bool dense) {
    Rng rng(11);
    for (int64_t i = 0; i < n; ++i) {
      k[i] = dense ? static_cast<int32_t>(i)
                   : rng.UniformInt(0, static_cast<int32_t>(build_n - 1));
      v[i] = 1;
    }
  };
  DeviceBuffer<int32_t> bk1(dev_plain, build_n), bv1(dev_plain, build_n);
  DeviceBuffer<int32_t> pk1(dev_plain, probe_n), pv1(dev_plain, probe_n);
  fill(dev_plain, bk1, bv1, build_n, true);
  fill(dev_plain, pk1, pv1, probe_n, false);
  DeviceHashTable table(dev_plain, build_n);
  table.Build(bk1, bv1);
  dev_plain.ResetStats();
  HashJoinProbeSum(dev_plain, table, pk1, pv1);
  const auto& plain_stats = dev_plain.stats();

  DeviceBuffer<int32_t> bk2(dev_radix, build_n), bv2(dev_radix, build_n);
  DeviceBuffer<int32_t> pk2(dev_radix, probe_n), pv2(dev_radix, probe_n);
  fill(dev_radix, bk2, bv2, build_n, true);
  fill(dev_radix, pk2, pv2, probe_n, false);
  dev_radix.ResetStats();
  RadixHashJoinSum(dev_radix, bk2, bv2, pk2, pv2,
                   ChooseRadixBits(dev_radix, build_n));
  const auto& radix_stats = dev_radix.stats();

  const double plain_miss =
      static_cast<double>(plain_stats.rand_read_lines_dram) /
      (plain_stats.rand_read_lines_dram + plain_stats.rand_read_lines_cache);
  const double radix_miss =
      static_cast<double>(radix_stats.rand_read_lines_dram) /
      (radix_stats.rand_read_lines_dram + radix_stats.rand_read_lines_cache +
       1);
  EXPECT_GT(plain_miss, 0.5);
  EXPECT_LT(radix_miss, 0.25);
}

}  // namespace
}  // namespace crystal::gpu
