#ifndef CRYSTAL_SIM_EXEC_H_
#define CRYSTAL_SIM_EXEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "sim/device.h"

namespace crystal::sim {

/// Execution context of one simulated thread block. Kernels are written in
/// block-synchronous style: every Crystal block-wide function iterates the
/// block's threads internally between (implicit) barriers, which is
/// semantically identical to the CUDA original where each primitive starts
/// and ends at a __syncthreads() boundary (Section 3.2 of the paper).
class ThreadBlock {
 public:
  ThreadBlock(Device& device, const LaunchConfig& config, int64_t num_blocks)
      : device_(device), config_(config), num_blocks_(num_blocks) {
    smem_.resize(kMaxSharedBytes);
  }

  Device& device() { return device_; }
  const LaunchConfig& config() const { return config_; }
  int64_t block_idx() const { return block_idx_; }
  int64_t num_blocks() const { return num_blocks_; }
  int num_threads() const { return config_.block_threads; }
  int items_per_thread() const { return config_.items_per_thread; }
  int tile_items() const { return config_.tile_items(); }

  /// Allocates n elements of T from the block's shared-memory arena. The
  /// arena resets between blocks; total usage is checked against the V100's
  /// 96 KB per-SM limit.
  template <typename T>
  T* AllocShared(int64_t n) {
    const size_t align = alignof(T) < 8 ? 8 : alignof(T);
    size_t off = (smem_used_ + align - 1) / align * align;
    const size_t need = off + static_cast<size_t>(n) * sizeof(T);
    CRYSTAL_CHECK_MSG(need <= kMaxSharedBytes,
                      "shared memory per block exceeds 96KB");
    smem_used_ = need;
    if (smem_used_ > smem_peak_) smem_peak_ = smem_used_;
    return reinterpret_cast<T*>(smem_.data() + off);
  }

  /// Allocates n elements of T from the block's register arena (per-thread
  /// register storage modeled collectively; Section 3.3: Crystal keeps tiles
  /// in registers when indices are statically known). Register traffic is
  /// free, matching the paper's model. Resets between blocks. The arena is
  /// a list of chunks that never move once allocated, so every pointer
  /// handed out stays valid until the block ends; later blocks reuse them.
  template <typename T>
  T* AllocRegisters(int64_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    const size_t align = alignof(T) < 8 ? 8 : alignof(T);
    const size_t bytes = static_cast<size_t>(n) * sizeof(T);
    for (;; ++reg_chunk_, regs_used_ = 0) {
      if (reg_chunk_ == reg_chunks_.size()) {
        reg_chunks_.emplace_back(std::max(bytes, kRegChunkBytes));
      }
      std::vector<char>& chunk = reg_chunks_[reg_chunk_];
      const size_t off = (regs_used_ + align - 1) / align * align;
      if (off + bytes <= chunk.size()) {
        regs_used_ = off + bytes;
        return reinterpret_cast<T*>(chunk.data() + off);
      }
    }
  }

  /// Block-wide barrier. In the block-synchronous simulation this only does
  /// the accounting; primitives are already sequentially consistent.
  void SyncThreads() { ++device_.stats().barriers; }

  /// Global atomic add (device memory). Returns the previous value and
  /// records one serialized atomic operation.
  template <typename T>
  T AtomicAdd(T* addr, T v) {
    const T old = *addr;
    *addr = old + v;
    device_.RecordAtomic();
    return old;
  }

  /// Atomic add into shared memory: no global serialization, only shared
  /// traffic (used by block-local histograms).
  template <typename T>
  T AtomicAddShared(T* addr, T v) {
    const T old = *addr;
    *addr = old + v;
    device_.RecordShared(sizeof(T) * 2);
    return old;
  }

  size_t shared_peak_bytes() const { return smem_peak_; }

 private:
  friend void LaunchBlocks(Device&, const std::string&, const LaunchConfig&,
                           int64_t,
                           const std::function<void(ThreadBlock&)>&);

  void BeginBlock(int64_t idx) {
    block_idx_ = idx;
    smem_used_ = 0;
    reg_chunk_ = 0;
    regs_used_ = 0;
  }

  static constexpr size_t kMaxSharedBytes = 96 * 1024;
  static constexpr size_t kRegChunkBytes = 64 * 1024;

  Device& device_;
  LaunchConfig config_;
  int64_t num_blocks_;
  int64_t block_idx_ = 0;
  std::vector<char> smem_;
  size_t smem_used_ = 0;
  size_t smem_peak_ = 0;
  /// Register arena. A chunk is never resized, so its buffer stays put
  /// when reg_chunks_ itself reallocates.
  std::vector<std::vector<char>> reg_chunks_;
  size_t reg_chunk_ = 0;  // chunk the next allocation tries first
  size_t regs_used_ = 0;  // bytes used in reg_chunks_[reg_chunk_]
};

/// Runs `body` once per thread block (serially; the simulator is
/// deterministic) and appends a KernelRecord with the traffic delta and the
/// predicted kernel time to the device's execution history.
void LaunchBlocks(Device& device, const std::string& name,
                  const LaunchConfig& config, int64_t num_blocks,
                  const std::function<void(ThreadBlock&)>& body);

/// Convenience wrapper for the ubiquitous one-tile-per-block pattern: splits
/// [0, num_items) into ceil(num_items / tile) tiles and invokes
/// body(tb, tile_offset, tile_size) for each; the final tile may be partial.
void LaunchTiles(
    Device& device, const std::string& name, const LaunchConfig& config,
    int64_t num_items,
    const std::function<void(ThreadBlock&, int64_t, int)>& body);

/// Records `body` as a single kernel execution without per-block iteration:
/// the body performs the whole kernel's work at once (host-orchestrated) and
/// is responsible for recording its own traffic on the device. Used by bulk
/// passes (radix partition, prefix sums) where per-block simulation adds
/// nothing but loop overhead.
void RunAsKernel(Device& device, const std::string& name,
                 const LaunchConfig& config, int64_t num_blocks,
                 const std::function<void()>& body);

}  // namespace crystal::sim

#endif  // CRYSTAL_SIM_EXEC_H_
