#ifndef CRYSTAL_CRYSTAL_BLOCK_AGGREGATE_H_
#define CRYSTAL_CRYSTAL_BLOCK_AGGREGATE_H_

#include <cstdint>

#include "crystal/reg_tile.h"
#include "sim/exec.h"

namespace crystal {

/// Cost of one block-wide tree reduction of `value_bytes`-wide values:
/// ~2 values per thread through shared memory, then a barrier. Every block
/// reduce charges through here, including kernels that fold a tile with
/// their own loop (the crystal engine's aggregate).
inline void ChargeBlockReduce(sim::ThreadBlock& tb, int64_t value_bytes) {
  tb.device().RecordShared(static_cast<int64_t>(tb.num_threads()) * 2 *
                           value_bytes);
  tb.SyncThreads();
}

/// BlockAggregate (Table 1): hierarchical reduction of a tile into a single
/// value per block. Each thread first reduces its registers, then the block
/// tree-reduces through shared memory (log2(NT) rounds). The caller
/// typically follows with a single global AtomicAdd — turning NT*IPT
/// per-item atomics into one per block, which is the crux of the tile model.
template <typename T>
T BlockSum(sim::ThreadBlock& tb, const RegTile<T>& items, int tile_size) {
  T sum = T();
  for (int k = 0; k < tile_size; ++k) sum += items.logical(k);
  ChargeBlockReduce(tb, sizeof(T));
  return sum;
}

/// Sum of items whose bitmap flag is set (post-selection aggregate).
template <typename T>
T BlockSumIf(sim::ThreadBlock& tb, const RegTile<T>& items,
             const RegTile<int>& bitmap, int tile_size) {
  T sum = T();
  for (int k = 0; k < tile_size; ++k) {
    if (bitmap.logical(k)) sum += items.logical(k);
  }
  ChargeBlockReduce(tb, sizeof(T));
  return sum;
}

/// Count of set flags in the tile (used by selection kernels that only need
/// cardinality).
inline int64_t BlockCount(sim::ThreadBlock& tb, const RegTile<int>& bitmap,
                          int tile_size) {
  int64_t n = 0;
  for (int k = 0; k < tile_size; ++k) n += bitmap.logical(k) ? 1 : 0;
  ChargeBlockReduce(tb, sizeof(int));
  return n;
}

}  // namespace crystal

#endif  // CRYSTAL_CRYSTAL_BLOCK_AGGREGATE_H_
