#include "ssb/crystal_engine.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "crystal/crystal.h"
#include "query/agg_program.h"
#include "query/pipeline.h"

namespace crystal::ssb {

gpu::DeviceHashTable BuildDomainHashTable(sim::Device& device,
                                          const query::BoundJoin& join,
                                          int64_t scanned_columns,
                                          const sim::LaunchConfig& config) {
  // Host-side filter used only to assemble the build inputs; the modeled
  // dimension scan is its own build-phase kernel below.
  std::vector<int32_t> k;
  std::vector<int32_t> v;
  const Column& keys = *join.keys;
  const Column& payloads = *join.payload;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (join.RowPasses(i)) {
      k.push_back(keys[i]);
      v.push_back(payloads[i]);
    }
  }
  sim::DeviceBuffer<int32_t> dk(device, static_cast<int64_t>(k.size()));
  sim::DeviceBuffer<int32_t> dv(device, static_cast<int64_t>(v.size()));
  std::memcpy(dk.data(), k.data(), k.size() * sizeof(int32_t));
  std::memcpy(dv.data(), v.data(), v.size() * sizeof(int32_t));
  gpu::DeviceHashTable ht(device, std::max<int64_t>(join.dim_rows, 1),
                          /*max_fill=*/1.0);
  const int64_t tile = config.tile_items();
  sim::RunAsKernel(device, "ht_build_scan", config,
                   (join.dim_rows + tile - 1) / tile, [&] {
                     device.RecordSeqRead(join.dim_rows * 4 * scanned_columns);
                   });
  ht.Build(dk, dv, config);
  return ht;
}

void FinalizeRun(const sim::Device& device, const Database& db,
                 const query::QuerySpec& spec, EngineRun* run) {
  run->fact_rows = db.lo.rows;
  run->fact_bytes_shipped = query::ReferencedFactBytes(db, spec, db.lo.rows);
  for (const auto& rec : device.records()) {
    if (rec.name.rfind("ht_build", 0) == 0) {
      run->build_ms += rec.est_ms;
    } else {
      run->probe_ms += rec.est_ms;
    }
  }
  run->total_ms = run->build_ms + run->probe_ms;
}

CrystalEngine::CrystalEngine(sim::Device& device, const Database& db)
    : device_(device), db_(db) {
  for (int i = 0; i < query::kNumFactCols; ++i) {
    const storage::EncodedColumn& src =
        query::FactColumn(db, static_cast<query::FactCol>(i));
    FactDeviceColumn& dst = fact_[i];
    if (src.encoding() == storage::Encoding::kPacked) {
      dst.packed = std::make_unique<gpu::PackedColumn>(device, src.view());
    } else {
      dst.plain = sim::DeviceBuffer<int32_t>(device, db.lo.rows);
      std::memcpy(dst.plain.data(), src.data(),
                  static_cast<size_t>(src.size()) * sizeof(int32_t));
    }
  }
}

StatusOr<EngineRun> CrystalEngine::Run(const query::QuerySpec& spec,
                                       const sim::LaunchConfig& config) {
  device_.ResetStats();
  const query::QueryPipeline pipe = query::LowerToPipeline(spec, db_);
  const query::GroupLayout& layout = pipe.layout;
  const query::AggStage& stage = pipe.agg;
  const query::AggPlan& aggs = stage.plan;

  // Build phase: one domain-sized hash table per probe stage; the scan
  // reads each build-side filter column plus the key.
  std::vector<gpu::DeviceHashTable> tables;
  tables.reserve(pipe.probes.size());
  for (const query::ProbeStage& probe : pipe.probes) {
    const query::BoundJoin& join =
        pipe.bound[static_cast<size_t>(probe.join_index)];
    tables.push_back(BuildDomainHashTable(
        device_, join, 1 + static_cast<int64_t>(join.filters.size()),
        config));
  }

  // Aggregation plan: one accumulator slot per expanded aggregate.
  const int slots = aggs.num_slots();

  EngineRun run;
  const bool scalar = pipe.scalar();
  sim::DeviceBuffer<int64_t> total(device_, slots, 0);
  sim::DeviceBuffer<int64_t> grid(device_,
                                  (scalar ? 1 : layout.cells) * slots, 0);
  query::FillIdentity(aggs, total.data(), 1);
  if (!scalar) query::FillIdentity(aggs, grid.data(), layout.cells);
  // The aggregate program's scratch vectors and one tile's survivors (a
  // tile may hold more than kVectorRows items).
  std::vector<int64_t> vecs(static_cast<size_t>(stage.num_vectors) *
                            query::kVectorRows);
  std::vector<int> survivors(static_cast<size_t>(config.tile_items()));
  int64_t grid_rows = 0;  // rows folded into `grid` so far
  bool overflow = false;

  // Probe phase: one fused kernel over the fact table — predicate chain,
  // join cascade in pipeline order, then the aggregate, with one atomic per
  // surviving row (grouped) or per tile (scalar).
  sim::LaunchTiles(
      device_, "spec_probe", config, db_.lo.rows,
      [&](sim::ThreadBlock& tb, int64_t off, int tile) {
        if (overflow) return;  // the query has failed
        std::vector<RegTile<int32_t>> group;
        group.reserve(static_cast<size_t>(layout.num_keys));
        for (int g = 0; g < layout.num_keys; ++g) group.emplace_back(tb);
        RegTile<int32_t> ignored(tb);
        RegTile<int> bm(tb);
        bool bm_valid = false;

        // One register tile per referenced fact column, loaded on first
        // use — a full BlockLoad for the leading column, bitmap-selective
        // loads after that — so a column used by both a predicate and the
        // aggregate (q1.x discount) is loaded once, as the hand-fused
        // kernels did.
        std::optional<RegTile<int32_t>> cols[query::kNumFactCols];
        auto load = [&](query::FactCol col) -> RegTile<int32_t>& {
          std::optional<RegTile<int32_t>>& dst = cols[static_cast<int>(col)];
          if (dst.has_value()) return *dst;
          dst.emplace(tb);
          const FactDeviceColumn& fc = fact_[static_cast<int>(col)];
          if (fc.packed != nullptr) {
            if (bm_valid) {
              gpu::BlockLoadPackedSel(tb, *fc.packed, off, tile, bm, *dst);
            } else {
              gpu::BlockLoadPacked(tb, *fc.packed, off, tile, *dst);
            }
          } else if (bm_valid) {
            BlockLoadSel(tb, fc.plain.data() + off, fc.plain.addr(off), tile,
                         bm, *dst);
          } else {
            BlockLoad(tb, fc.plain.data() + off, tile, *dst);
          }
          return *dst;
        };
        auto init_bitmap = [&] {
          if (bm_valid) return;
          bm.Fill(1);
          for (int k = tile; k < bm.size(); ++k) bm.logical(k) = 0;
          bm_valid = true;
        };

        for (const query::FilterStage& f : pipe.filters) {
          RegTile<int32_t>& vals = load(f.col);
          const auto pred = [&f](int32_t v) { return v >= f.lo && v <= f.hi; };
          if (!bm_valid) {
            BlockPred(tb, vals, tile, pred, bm);
            bm_valid = true;
          } else {
            BlockPredAnd(tb, vals, tile, pred, bm);
          }
        }
        for (size_t p = 0; p < pipe.probes.size(); ++p) {
          const query::ProbeStage& probe = pipe.probes[p];
          RegTile<int32_t>& keys = load(probe.fact_key);
          init_bitmap();
          // Matching payloads land in the join's group-key tile; filter-only
          // joins write a scratch tile (only the bitmap effect matters).
          RegTile<int32_t>& payload =
              probe.group_slot >= 0
                  ? group[static_cast<size_t>(probe.group_slot)]
                  : ignored;
          BlockLookup(tb, tables[p].view(), keys, bm, payload, tile);
        }
        init_bitmap();  // pure scan: every row survives
        for (query::FactCol col : stage.cols) load(col);
        int n = 0;
        for (int k = 0; k < tile; ++k) {
          if (bm.logical(k)) survivors[static_cast<size_t>(n++)] = k;
        }
        // Arithmetic charge: every surviving element evaluates each slot's
        // expression once (compute overlaps memory in the timing model, so
        // this only surfaces for genuinely compute-heavy expressions).
        if (stage.arith_per_row > 0) {
          tb.device().RecordArithmetic(n * stage.arith_per_row);
        }
        // The shared evaluator over the survivors, kVectorRows at a time:
        // grouped rows fold straight into the grid (one atomic per row and
        // slot), a scalar tile into its own accumulator row.
        int64_t local[query::kMaxAggSlots];
        query::FillIdentity(aggs, local, 1);
        int64_t cells[query::kVectorRows];
        for (int base = 0; !overflow && base < n; base += query::kVectorRows) {
          const int m = std::min(query::kVectorRows, n - base);
          const int* rows = survivors.data() + base;
          for (int i = 0; !scalar && i < m; ++i) {
            int32_t keys[3];
            for (int g = 0; g < layout.num_keys; ++g) {
              keys[g] = group[static_cast<size_t>(g)].logical(rows[i]);
            }
            cells[i] = layout.CellFor(keys) * slots;
            for (int sl = 0; sl < slots; ++sl) {
              tb.device().RecordRandomRead(grid.addr(cells[i] + sl), 8);
              tb.device().RecordAtomic();
            }
          }
          const auto widen = [&](int c, int count, int64_t* dst) {
            const RegTile<int32_t>& col =
                load(stage.cols[static_cast<size_t>(c)]);
            for (int i = 0; i < count; ++i) dst[i] = col.logical(rows[i]);
          };
          overflow = !query::RunProgram(stage, vecs.data(), m, widen) ||
                     !query::FoldSlots(stage, vecs.data(), m,
                                       scalar ? local : grid.data(),
                                       scalar ? nullptr : cells,
                                       scalar ? base : grid_rows);
          if (!scalar) grid_rows += m;
        }
        if (overflow || !scalar) return;
        // Scalar: each slot's tile value is block-reduced (SUM/COUNT) and
        // combined into the total with one atomic — skipped for a zero sum
        // or a MIN/MAX that saw no row.
        for (int sl = 0; sl < slots; ++sl) {
          const query::AggFunc func = aggs.slots[static_cast<size_t>(sl)].func;
          if (func == query::AggFunc::kSum || func == query::AggFunc::kCount) {
            ChargeBlockReduce(tb, sizeof(int64_t));
            if (local[sl] == 0) continue;
          } else if (n == 0) {
            continue;
          }
          tb.device().RecordAtomic();
          if (!query::AggMerge(func, &total[sl], local[sl])) overflow = true;
        }
      });
  if (overflow) return OutOfRangeError(query::kOverflowMsg);

  if (scalar) {
    EmitScalars(aggs, total.data(), &run.result);
  } else {
    EmitDenseGroups(layout, aggs, grid.data(), &run.result);
  }
  FinalizeRun(device_, db_, spec, &run);
  return run;
}

}  // namespace crystal::ssb
