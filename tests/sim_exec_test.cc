#include <gtest/gtest.h>

#include <vector>

#include "sim/device.h"
#include "sim/exec.h"
#include "sim/timing.h"

namespace crystal::sim {
namespace {

TEST(DeviceTest, ProfilesMatchTable2) {
  const DeviceProfile gpu = DeviceProfile::V100();
  const DeviceProfile cpu = DeviceProfile::SkylakeI7();
  EXPECT_DOUBLE_EQ(gpu.read_bw_gbps, 880.0);
  EXPECT_DOUBLE_EQ(cpu.read_bw_gbps, 53.0);
  EXPECT_DOUBLE_EQ(cpu.write_bw_gbps, 55.0);
  EXPECT_EQ(gpu.l2_bytes_total, 6 * 1024 * 1024);
  EXPECT_EQ(cpu.l3_bytes_total, 20 * 1024 * 1024);
  EXPECT_NEAR(gpu.read_bw_gbps / cpu.read_bw_gbps, 16.6, 0.1);
}

TEST(DeviceTest, AddressRangesDisjoint) {
  Device dev(DeviceProfile::V100());
  DeviceBuffer<int32_t> a(dev, 100);
  DeviceBuffer<int32_t> b(dev, 100);
  EXPECT_GE(b.addr(0), a.addr(99) + 4);
}

TEST(DeviceTest, RandomReadsFilterThroughL2) {
  Device dev(DeviceProfile::V100());
  DeviceBuffer<int32_t> buf(dev, 1024);
  dev.RecordRandomRead(buf.addr(0), 4);
  dev.RecordRandomRead(buf.addr(0), 4);  // same sector: L2 hit
  EXPECT_EQ(dev.stats().rand_read_lines_dram, 1u);
  EXPECT_EQ(dev.stats().rand_read_lines_cache, 1u);
}

TEST(DeviceTest, L2DisabledChargesDram) {
  Device dev(DeviceProfile::V100());
  dev.set_l2_enabled(false);
  DeviceBuffer<int32_t> buf(dev, 1024);
  dev.RecordRandomRead(buf.addr(0), 4);
  dev.RecordRandomRead(buf.addr(0), 4);
  EXPECT_EQ(dev.stats().rand_read_lines_dram, 2u);
}

TEST(DeviceTest, CpuProfileUsesL3SizedCache) {
  Device dev(DeviceProfile::SkylakeI7());
  ASSERT_NE(dev.l2(), nullptr);
  EXPECT_EQ(dev.l2()->size_bytes(), 20 * 1024 * 1024);
}

TEST(ExecTest, LaunchTilesCoversAllItemsOnce) {
  Device dev(DeviceProfile::V100());
  const int64_t n = 10'000;
  std::vector<int> touched(n, 0);
  LaunchConfig cfg{128, 4};
  LaunchTiles(dev, "touch", cfg, n,
              [&](ThreadBlock&, int64_t off, int tile) {
                for (int i = 0; i < tile; ++i) ++touched[off + i];
              });
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(touched[i], 1) << i;
  // ceil(10000 / 512) = 20 blocks.
  ASSERT_EQ(dev.records().size(), 1u);
  EXPECT_EQ(dev.records()[0].num_blocks, 20);
  EXPECT_EQ(dev.stats().kernel_launches, 1u);
}

TEST(ExecTest, PartialLastTileSizedCorrectly) {
  Device dev(DeviceProfile::V100());
  LaunchConfig cfg{32, 4};  // tile = 128
  int last_tile = -1;
  LaunchTiles(dev, "partial", cfg, 300,
              [&](ThreadBlock& tb, int64_t, int tile) {
                if (tb.block_idx() == tb.num_blocks() - 1) last_tile = tile;
              });
  EXPECT_EQ(last_tile, 300 - 2 * 128);
}

TEST(ExecTest, SharedMemoryResetsBetweenBlocks) {
  Device dev(DeviceProfile::V100());
  LaunchConfig cfg{32, 1};
  LaunchBlocks(dev, "smem", cfg, 4, [&](ThreadBlock& tb) {
    int* p = tb.AllocShared<int>(1000);  // would overflow if it accumulated
    p[0] = 1;
    int* q = tb.AllocShared<int>(1000);
    q[0] = 2;
    EXPECT_NE(p, q);
  });
  SUCCEED();
}

TEST(ExecTest, RegisterTilesStayValidPastTheFirstArenaChunk) {
  // 1024 threads x 4 items x 4 bytes = 16 KB per int tile: the fifth and
  // later tiles of a block lie past the arena's first 64 KB. Earlier
  // tiles must keep their storage (and their values) while later ones
  // are allocated, in every block.
  Device dev(DeviceProfile::V100());
  const LaunchConfig cfg{1024, 4};
  LaunchBlocks(dev, "regs", cfg, 3, [&](ThreadBlock& tb) {
    const int64_t n = int64_t{cfg.block_threads} * cfg.items_per_thread;
    int* first = tb.AllocRegisters<int>(n);
    first[0] = 7;
    first[n - 1] = 11;
    std::vector<int64_t*> later;
    for (int i = 0; i < 8; ++i) later.push_back(tb.AllocRegisters<int64_t>(n));
    for (int64_t* tile : later) tile[n - 1] = -1;
    first[n - 1] += 1;
    EXPECT_EQ(first[0], 7);
    EXPECT_EQ(first[n - 1], 12);
    EXPECT_NE(static_cast<void*>(first), static_cast<void*>(later[0]));
  });
}

TEST(ExecTest, AtomicAddReturnsOldValueAndCounts) {
  Device dev(DeviceProfile::V100());
  int64_t counter = 0;
  LaunchBlocks(dev, "atomics", {}, 3, [&](ThreadBlock& tb) {
    const int64_t old = tb.AtomicAdd(&counter, int64_t{5});
    EXPECT_EQ(old, tb.block_idx() * 5);
  });
  EXPECT_EQ(counter, 15);
  EXPECT_EQ(dev.stats().atomic_ops, 3u);
}

TEST(ExecTest, RunAsKernelRecordsDelta) {
  Device dev(DeviceProfile::V100());
  RunAsKernel(dev, "bulk", {}, 7, [&] { dev.RecordSeqRead(1000); });
  ASSERT_EQ(dev.records().size(), 1u);
  EXPECT_EQ(dev.records()[0].mem.seq_read_bytes, 1000u);
  EXPECT_EQ(dev.records()[0].num_blocks, 7);
}

// ------------------------- Timing model properties ------------------------

TEST(TimingTest, BandwidthBoundKernelMatchesModel) {
  // 1 GB read + 1 GB write at 880/880 GBps => ~2.27 ms.
  MemStats mem;
  mem.seq_read_bytes = 1'000'000'000;
  mem.seq_write_bytes = 1'000'000'000;
  const TimeBreakdown t =
      EstimateKernelTime(mem, DeviceProfile::V100(), LaunchConfig{128, 4});
  EXPECT_NEAR(t.dram_ms, 2.0 / 0.88, 0.01);
  EXPECT_NEAR(t.total_ms, t.dram_ms, 0.01);
}

TEST(TimingTest, GpuToCpuRatioIsBandwidthRatio) {
  MemStats mem;
  mem.seq_read_bytes = 4'000'000'000;
  const double gpu =
      EstimateKernelTime(mem, DeviceProfile::V100(), {}).total_ms;
  const double cpu =
      EstimateKernelTime(mem, DeviceProfile::SkylakeI7(), {}).total_ms;
  EXPECT_NEAR(cpu / gpu, 880.0 / 53.0, 0.05);
}

TEST(TimingTest, SmallItemsPerThreadLosesBandwidth) {
  MemStats mem;
  mem.seq_read_bytes = 1'000'000'000;
  const DeviceProfile gpu = DeviceProfile::V100();
  const double ipt4 = EstimateKernelTime(mem, gpu, {128, 4}).total_ms;
  const double ipt2 = EstimateKernelTime(mem, gpu, {128, 2}).total_ms;
  const double ipt1 = EstimateKernelTime(mem, gpu, {128, 1}).total_ms;
  EXPECT_LT(ipt4, ipt2);
  EXPECT_LT(ipt2, ipt1);
}

TEST(TimingTest, HugeThreadBlocksLoseOccupancy) {
  MemStats mem;
  mem.seq_read_bytes = 1'000'000'000;
  const DeviceProfile gpu = DeviceProfile::V100();
  const double b256 = EstimateKernelTime(mem, gpu, {256, 4}).total_ms;
  const double b512 = EstimateKernelTime(mem, gpu, {512, 4}).total_ms;
  const double b1024 = EstimateKernelTime(mem, gpu, {1024, 4}).total_ms;
  EXPECT_LT(b256, b512);
  EXPECT_LT(b512, b1024);
}

TEST(TimingTest, AtomicsSerializeOnTopOfBandwidth) {
  MemStats mem;
  mem.seq_read_bytes = 1'000'000;
  mem.atomic_ops = 10'000'000;
  const TimeBreakdown t = EstimateKernelTime(mem, DeviceProfile::V100(), {});
  EXPECT_GT(t.atomic_ms, t.dram_ms);
  EXPECT_NEAR(t.total_ms, t.dram_ms + t.atomic_ms + t.launch_ms, 1e-9);
}

TEST(TimingTest, CpuStallsOnRandomDramReads) {
  MemStats mem;
  mem.rand_read_lines_dram = 10'000'000;
  const TimeBreakdown cpu =
      EstimateKernelTime(mem, DeviceProfile::SkylakeI7(), {});
  const TimeBreakdown gpu =
      EstimateKernelTime(mem, DeviceProfile::V100(), {});
  EXPECT_GT(cpu.stall_ms, 0.0);
  EXPECT_DOUBLE_EQ(gpu.stall_ms, 0.0);  // GPUs hide latency with warps
}

TEST(TimingTest, CacheServedTrafficUsesCacheBandwidth) {
  MemStats mem;
  mem.rand_read_lines_cache = 10'000'000;  // 640 MB through L2
  const TimeBreakdown t = EstimateKernelTime(mem, DeviceProfile::V100(), {});
  EXPECT_NEAR(t.cache_ms, 640.0 / 2200.0, 0.01);
}

}  // namespace
}  // namespace crystal::sim
