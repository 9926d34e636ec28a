#include "gpu/packed_column.h"

#include <cstring>

#include "common/bitutil.h"
#include "common/macros.h"

namespace crystal::gpu {

namespace {
// Unpack arithmetic per element: shift, mask, and the occasional two-word
// merge (charged uniformly).
constexpr int kUnpackOpsPerElement = 3;
}  // namespace

PackedColumn::PackedColumn(sim::Device& device, const int32_t* values,
                           int64_t n, int bits, int32_t reference)
    : n_(n),
      bits_(bits),
      reference_(reference),
      words_(device, (n * bits + 31) / 32 + 1, 0) {
  CRYSTAL_CHECK(bits >= 1 && bits <= 32);
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t v = static_cast<uint32_t>(
        static_cast<int64_t>(values[i]) - reference);
    CRYSTAL_CHECK_MSG(bits == 32 || (v >> bits) == 0,
                      "value does not fit in the declared bit width");
    const int64_t bit_pos = i * bits;
    const int64_t word = bit_pos / 32;
    const int shift = static_cast<int>(bit_pos % 32);
    words_[word] |= v << shift;
    if (shift + bits > 32) {
      words_[word + 1] |= v >> (32 - shift);
    }
  }
}

PackedColumn::PackedColumn(sim::Device& device,
                           const storage::ColumnView& view)
    : n_(view.rows()),
      bits_(view.bits()),
      reference_(view.reference()),
      words_(device, storage::PackedWords(view.rows(), view.bits()), 0) {
  CRYSTAL_CHECK_MSG(view.packed(),
                    "device upload of a plain view: use DeviceBuffer");
  std::memcpy(words_.data(), view.words(),
              static_cast<size_t>(words_.size()) * sizeof(uint32_t));
}

int32_t PackedColumn::Get(int64_t i) const {
  return DecodePacked(words_.data(), bits_, reference_, i);
}

void BlockLoadPacked(sim::ThreadBlock& tb, const PackedColumn& column,
                     int64_t offset, int tile_size, RegTile<int32_t>& items) {
  for (int k = 0; k < tile_size; ++k) {
    items.logical(k) = column.Get(offset + k);
  }
  const int64_t packed_bytes =
      (static_cast<int64_t>(tile_size) * column.bits() + 7) / 8;
  tb.device().RecordSeqRead(packed_bytes);
  tb.device().RecordArithmetic(static_cast<int64_t>(tile_size) *
                               kUnpackOpsPerElement);
  tb.SyncThreads();
}

void BlockLoadPackedSel(sim::ThreadBlock& tb, const PackedColumn& column,
                        int64_t offset, int tile_size,
                        const RegTile<int>& bitmap, RegTile<int32_t>& items) {
  const int line = tb.device().profile().dram_access_bytes;
  const uint64_t base_addr = column.words().addr(0);
  int64_t lines = 0;
  int64_t last_line = -1;
  int64_t flagged = 0;
  for (int k = 0; k < tile_size; ++k) {
    if (!bitmap.logical(k)) continue;
    items.logical(k) = column.Get(offset + k);
    ++flagged;
    // The element's first packed byte locates its DRAM line; at b bits per
    // value one line covers 8*line/b elements, so consecutive survivors
    // coalesce far more often than in the 4-byte BlockLoadSel.
    const uint64_t byte =
        base_addr + static_cast<uint64_t>((offset + k) * column.bits() / 8);
    const int64_t this_line =
        static_cast<int64_t>(byte / static_cast<uint64_t>(line));
    if (this_line != last_line) {
      ++lines;
      last_line = this_line;
    }
  }
  tb.device().RecordSeqRead(lines * line);
  tb.device().RecordArithmetic(flagged * kUnpackOpsPerElement);
  tb.SyncThreads();
}

int64_t SelectCountPacked(sim::Device& device, const PackedColumn& column,
                          int32_t lo, int32_t hi,
                          const sim::LaunchConfig& config) {
  sim::DeviceBuffer<int64_t> count(device, 1, 0);
  sim::LaunchTiles(
      device, "select_count_packed", config, column.size(),
      [&](sim::ThreadBlock& tb, int64_t offset, int tile) {
        RegTile<int32_t> items(tb);
        RegTile<int> bitmap(tb);
        BlockLoadPacked(tb, column, offset, tile, items);
        BlockPred(tb, items, tile,
                  [lo, hi](int32_t v) { return v >= lo && v <= hi; }, bitmap);
        const int64_t c = BlockCount(tb, bitmap, tile);
        if (c != 0) tb.AtomicAdd(count.data(), c);
      });
  return count[0];
}

int64_t SelectCountPlain(sim::Device& device,
                         const sim::DeviceBuffer<int32_t>& column, int32_t lo,
                         int32_t hi, const sim::LaunchConfig& config) {
  sim::DeviceBuffer<int64_t> count(device, 1, 0);
  sim::LaunchTiles(
      device, "select_count_plain", config, column.size(),
      [&](sim::ThreadBlock& tb, int64_t offset, int tile) {
        RegTile<int32_t> items(tb);
        RegTile<int> bitmap(tb);
        BlockLoad(tb, column.data() + offset, tile, items);
        BlockPred(tb, items, tile,
                  [lo, hi](int32_t v) { return v >= lo && v <= hi; }, bitmap);
        const int64_t c = BlockCount(tb, bitmap, tile);
        if (c != 0) tb.AtomicAdd(count.data(), c);
      });
  return count[0];
}

}  // namespace crystal::gpu
