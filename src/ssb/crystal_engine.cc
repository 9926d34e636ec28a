#include "ssb/crystal_engine.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "crystal/crystal.h"
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

EngineRun CrystalEngine::Run(const query::QuerySpec& spec,
                             const sim::LaunchConfig& config) {
  device_.ResetStats();
  const query::QueryPipeline pipe = query::LowerToPipeline(spec, db_);
  const query::GroupLayout& layout = pipe.layout;
  const query::AggPlan& aggs = pipe.agg.plan;

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

  // Aggregation plan: one accumulator slot per expanded aggregate; the
  // per-element arithmetic charge is the total +,-,* count across slots.
  const int slots = aggs.num_slots();
  int64_t arith_per_row = 0;
  for (const query::AggSlot& slot : aggs.slots) {
    arith_per_row += query::ExprArithOps(slot.expr);
  }

  EngineRun run;
  const bool scalar = pipe.scalar();
  sim::DeviceBuffer<int64_t> total(device_, slots, 0);
  sim::DeviceBuffer<int64_t> grid(device_,
                                  (scalar ? 1 : layout.cells) * slots, 0);
  query::FillIdentity(aggs, total.data(), 1);
  if (!scalar) query::FillIdentity(aggs, grid.data(), layout.cells);

  // Probe phase: one fused kernel over the fact table — predicate chain,
  // join cascade in pipeline order, then the aggregate, with one atomic per
  // surviving row (grouped) or per tile (scalar).
  sim::LaunchTiles(
      device_, "spec_probe", config, db_.lo.rows,
      [&](sim::ThreadBlock& tb, int64_t off, int tile) {
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
        for (query::FactCol col : pipe.agg.cols) load(col);
        const auto value_at = [&](const query::AggSlot& slot, int k) {
          int64_t v = 1;  // counts add 1 per surviving row
          if (slot.func != query::AggFunc::kCount) {
            CRYSTAL_CHECK_MSG(
                query::EvalExpr(
                    slot.expr,
                    [&](query::FactCol col) {
                      return cols[static_cast<int>(col)]->logical(k);
                    },
                    &v),
                "crystal engine: aggregate expression overflow");
          }
          return v;
        };
        // Arithmetic charge: every surviving element evaluates each slot's
        // expression once (compute overlaps memory in the timing model, so
        // this only surfaces for genuinely compute-heavy expressions).
        if (arith_per_row > 0) {
          int64_t survivors = 0;
          for (int k = 0; k < tile; ++k) survivors += bm.logical(k) ? 1 : 0;
          tb.device().RecordArithmetic(survivors * arith_per_row);
        }
        if (scalar) {
          for (int sl = 0; sl < slots; ++sl) {
            const query::AggSlot& slot = aggs.slots[static_cast<size_t>(sl)];
            if (slot.func == query::AggFunc::kMin ||
                slot.func == query::AggFunc::kMax) {
              // Per-tile fold, then one atomic combine into the total.
              int64_t local = query::AggIdentity(slot.func);
              bool any = false;
              for (int k = 0; k < tile; ++k) {
                if (!bm.logical(k)) continue;
                query::AggAccumulate(slot.func, &local, value_at(slot, k));
                any = true;
              }
              if (any) {
                tb.device().RecordAtomic();
                query::AggMerge(slot.func, &total[sl], local);
              }
              continue;
            }
            RegTile<int64_t> partial(tb);
            partial.Fill(0);
            for (int k = 0; k < tile; ++k) {
              if (bm.logical(k)) partial.logical(k) = value_at(slot, k);
            }
            const int64_t s = BlockSum(tb, partial, tile);
            if (s != 0) tb.AtomicAdd(&total[sl], s);
          }
        } else {
          for (int k = 0; k < tile; ++k) {
            if (!bm.logical(k)) continue;
            int64_t cell = 0;
            for (int g = 0; g < layout.num_keys; ++g) {
              cell = cell * layout.span[g] +
                     (group[static_cast<size_t>(g)].logical(k) -
                      layout.lo[g]);
            }
            for (int sl = 0; sl < slots; ++sl) {
              const query::AggSlot& slot =
                  aggs.slots[static_cast<size_t>(sl)];
              const int64_t idx = cell * slots + sl;
              tb.device().RecordRandomRead(grid.addr(idx), 8);
              if (slot.func == query::AggFunc::kMin ||
                  slot.func == query::AggFunc::kMax) {
                tb.device().RecordAtomic();
                query::AggMerge(slot.func, &grid[idx], value_at(slot, k));
              } else {
                tb.AtomicAdd(&grid[idx], value_at(slot, k));
              }
            }
          }
        }
      });

  if (scalar) {
    EmitScalars(aggs, total.data(), &run.result);
  } else {
    EmitDenseGroups(layout, aggs, grid.data(), &run.result);
  }
  FinalizeRun(device_, db_, spec, &run);
  return run;
}

}  // namespace crystal::ssb
