#include "ssb/materializing_engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include "query/agg_program.h"
#include "query/pipeline.h"

namespace crystal::ssb {

namespace {

// Per-operator fixed kernel structure in the independent-threads model:
// count pass + prefix-sum + scatter pass (Fig. 4a) — the input is read
// twice and every output value is written scattered (per-thread regions).
constexpr int kKernelsPerOperator = 3;

// MonetDB materializes candidate lists as 8-byte oid BATs; every operator
// re-reads and re-writes them (operator-at-a-time, Section 2.2).
constexpr int64_t kOidBytes = 8;

// Lines touched by gathering `count` ascending row ids from a b-bit column
// (b == 32 for plain 4-byte columns). At b bits per value one DRAM line
// covers 8*line_bytes/b elements, so packed gathers coalesce more often.
int64_t GatherLines(const sim::DeviceBuffer<int32_t>& oids, int64_t count,
                    int line_bytes, int bits) {
  int64_t lines = 0;
  int64_t prev = -1;
  const int64_t per_line = static_cast<int64_t>(line_bytes) * 8 / bits;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t line = oids[i] / per_line;
    if (line != prev) {
      ++lines;
      prev = line;
    }
  }
  return lines;
}

// Unpack arithmetic per decoded element of a packed column (shift, mask,
// occasional two-word merge) — mirrors gpu::BlockLoadPacked's charge.
constexpr int kUnpackOpsPerElement = 3;

// Arithmetic charge for decoding `count` elements of `col` (zero if plain).
void ChargeUnpack(sim::Device& device, const storage::ColumnView& col,
                  int64_t count) {
  if (col.packed()) device.RecordArithmetic(count * kUnpackOpsPerElement);
}

// Bytes moved to read `count` 4-byte elements. On the GPU the independent-
// threads model assigns each thread its own contiguous chunk, so the lanes
// of a warp touch different sectors: every element costs a full store
// sector ("does not realize benefits of blocked loading", Section 5.2). On
// the CPU, per-thread streams are cache-friendly and cost 4 bytes each.
int64_t ElementReadBytes(const sim::Device& device, int64_t count) {
  if (device.profile().is_gpu) {
    return count * device.profile().store_sector_bytes;
  }
  return count * 4;
}

}  // namespace

MaterializingEngine::MaterializingEngine(sim::Device& device,
                                         const Database& db)
    : device_(device), db_(db) {}

template <typename Pred>
MaterializingEngine::Oids MaterializingEngine::ScanSelect(
    const storage::ColumnView& col, const char* name, Pred pred) {
  Oids out;
  out.rows = sim::DeviceBuffer<int32_t>(device_, col.rows());
  sim::RunAsKernel(device_, name, {}, 1, [&] {
    // Count pass + scatter pass both read the column; the scattered
    // per-thread id writes are uncoalesced on a GPU. On the CPU a packed
    // column moves its encoded bytes; the GPU independent-threads model
    // stays per-element-sector regardless of width.
    device_.stats().kernel_launches += kKernelsPerOperator - 1;
    device_.RecordSeqRead(
        2 * (device_.profile().is_gpu
                 ? ElementReadBytes(device_, col.rows())
                 : static_cast<int64_t>(col.encoded_bytes())));
    ChargeUnpack(device_, col, 2 * col.rows());
    int64_t m = 0;
    for (int64_t i = 0; i < col.rows(); ++i) {
      if (pred(col.Get(i))) out.rows[m++] = static_cast<int32_t>(i);
    }
    out.count = m;
    if (device_.profile().is_gpu) {
      device_.RecordRandomWrite(m);
    } else {
      device_.RecordSeqWrite(m * kOidBytes);
    }
  });
  return out;
}

template <typename Pred>
MaterializingEngine::Oids MaterializingEngine::Refine(
    const storage::ColumnView& col, const Oids& in, const char* name,
    Pred pred) {
  Oids out;
  out.rows = sim::DeviceBuffer<int32_t>(device_, std::max<int64_t>(in.count, 1));
  sim::RunAsKernel(device_, name, {}, 1, [&] {
    device_.stats().kernel_launches += kKernelsPerOperator - 1;
    // Both passes gather the column at the candidate rows and read the
    // candidate list itself.
    int64_t pass_bytes;
    if (device_.profile().is_gpu) {
      pass_bytes = ElementReadBytes(device_, in.count) * 2;  // value + oid
    } else {
      const int64_t lines = GatherLines(
          in.rows, in.count, device_.profile().dram_access_bytes, col.bits());
      pass_bytes =
          lines * device_.profile().dram_access_bytes + in.count * kOidBytes;
    }
    device_.RecordSeqRead(2 * pass_bytes);
    ChargeUnpack(device_, col, 2 * in.count);
    int64_t m = 0;
    for (int64_t i = 0; i < in.count; ++i) {
      if (pred(col.Get(in.rows[i]))) {
        out.rows[m++] = in.rows[i];
      }
    }
    out.count = m;
    if (device_.profile().is_gpu) {
      device_.RecordRandomWrite(m);
    } else {
      device_.RecordSeqWrite(m * kOidBytes);
    }
  });
  return out;
}

sim::DeviceBuffer<int32_t> MaterializingEngine::Fetch(
    const storage::ColumnView& col, const Oids& in, const char* name) {
  sim::DeviceBuffer<int32_t> out(device_, std::max<int64_t>(in.count, 1));
  sim::RunAsKernel(device_, name, {}, 1, [&] {
    if (device_.profile().is_gpu) {
      device_.RecordSeqRead(ElementReadBytes(device_, in.count) * 2);
    } else {
      const int64_t lines = GatherLines(
          in.rows, in.count, device_.profile().dram_access_bytes, col.bits());
      device_.RecordSeqRead(lines * device_.profile().dram_access_bytes +
                            in.count * kOidBytes);
    }
    ChargeUnpack(device_, col, in.count);
    for (int64_t i = 0; i < in.count; ++i) {
      out[i] = col.Get(in.rows[i]);
    }
    device_.RecordSeqWrite(in.count * 4);
  });
  return out;
}

MaterializingEngine::Oids MaterializingEngine::ProbeJoin(
    const gpu::DeviceHashTable& ht, const sim::DeviceBuffer<int32_t>& keys,
    const Oids& in, const char* name,
    sim::DeviceBuffer<int32_t>* payloads) {
  Oids out;
  out.rows = sim::DeviceBuffer<int32_t>(device_, std::max<int64_t>(in.count, 1));
  *payloads =
      sim::DeviceBuffer<int32_t>(device_, std::max<int64_t>(in.count, 1));
  const crystal::HashTableView view = ht.view();
  sim::RunAsKernel(device_, name, {}, 1, [&] {
    device_.stats().kernel_launches += kKernelsPerOperator - 1;
    // Reads the materialized key and oid columns; probes are data-dependent.
    device_.RecordSeqRead(ElementReadBytes(device_, in.count) +
                          (device_.profile().is_gpu
                               ? ElementReadBytes(device_, in.count)
                               : in.count * kOidBytes));
    int64_t m = 0;
    for (int64_t i = 0; i < in.count; ++i) {
      const int32_t key = keys[i];
      uint64_t slot = HashMurmur32(static_cast<uint32_t>(key)) & view.mask;
      for (;;) {
        device_.RecordRandomRead(view.base_addr + slot * 8, 8);
        if (!device_.profile().is_gpu) {
          // MonetDB's hash structure is chained (bucket array + link array
          // + BAT values), so a probe touches a second cache line in a
          // structure with twice the packed footprint. Modeled as one more
          // data-dependent read into the far half of the table's range.
          const uint64_t chain_slot =
              (slot + static_cast<uint64_t>(view.num_slots) / 2) & view.mask;
          device_.RecordRandomRead(view.base_addr + chain_slot * 8, 8);
        }
        const uint64_t s = view.slots[slot];
        if (crystal::HashTableView::SlotEmpty(s)) break;
        if (crystal::HashTableView::SlotKey(s) == key) {
          out.rows[m] = in.rows[i];
          (*payloads)[m] = crystal::HashTableView::SlotValue(s);
          ++m;
          break;
        }
        slot = (slot + 1) & view.mask;
      }
    }
    out.count = m;
    if (device_.profile().is_gpu) {
      device_.RecordRandomWrite(2 * m);  // oid + payload, scattered
    } else {
      device_.RecordSeqWrite(m * (kOidBytes + 4));  // oid BAT + payload BAT
    }
  });
  return out;
}

StatusOr<EngineRun> MaterializingEngine::Run(const query::QuerySpec& spec) {
  device_.ResetStats();
  const query::QueryPipeline pipe = query::LowerToPipeline(spec, db_);
  const query::GroupLayout& layout = pipe.layout;
  const query::AggStage& stage = pipe.agg;
  const query::AggPlan& aggs = stage.plan;
  EngineRun run;

  // Build phase: one domain-sized filtered hash table per probe stage; the
  // scan reads the key and payload columns.
  std::vector<gpu::DeviceHashTable> tables;
  tables.reserve(pipe.probes.size());
  for (const query::ProbeStage& probe : pipe.probes) {
    tables.push_back(BuildDomainHashTable(
        device_, pipe.bound[static_cast<size_t>(probe.join_index)],
        /*scanned_columns=*/2, {}));
  }

  // Candidate list: select + refine over the fact filters, or the identity
  // list when the query has none (join-only plans read the raw column).
  Oids sel;
  if (!pipe.filters.empty()) {
    for (size_t i = 0; i < pipe.filters.size(); ++i) {
      const query::FilterStage& f = pipe.filters[i];
      const std::string name =
          std::string(i == 0 ? "mat_select_" : "mat_refine_") +
          std::string(query::FactColName(f.col));
      const auto pred = [&f](int32_t v) { return v >= f.lo && v <= f.hi; };
      sel = i == 0 ? ScanSelect(f.view, name.c_str(), pred)
                   : Refine(f.view, sel, name.c_str(), pred);
    }
  } else {
    sel.rows = sim::DeviceBuffer<int32_t>(device_, db_.lo.rows);
    sim::RunAsKernel(device_, "mat_identity", {}, 1, [&] {
      for (int64_t i = 0; i < db_.lo.rows; ++i) {
        sel.rows[i] = static_cast<int32_t>(i);
      }
    });
    sel.count = db_.lo.rows;
  }

  // Join cascade: fetch the key column at the surviving rows, probe, then
  // realign every group payload materialized by earlier joins with the
  // survivors (candidate lists are ascending, so one merge walk each).
  std::vector<sim::DeviceBuffer<int32_t>> group_vals(
      static_cast<size_t>(layout.num_keys));
  std::vector<bool> group_filled(group_vals.size(), false);
  for (size_t p = 0; p < pipe.probes.size(); ++p) {
    const query::ProbeStage& probe = pipe.probes[p];
    const std::string fetch_name =
        "mat_fetch_" + std::string(query::FactColName(probe.fact_key));
    const sim::DeviceBuffer<int32_t> keys =
        Fetch(probe.fact_keys, sel, fetch_name.c_str());
    const std::string join_name =
        "mat_join_" +
        std::string(query::DimTableName(
            spec.joins[static_cast<size_t>(probe.join_index)].table));
    sim::DeviceBuffer<int32_t> payload;
    Oids next = ProbeJoin(tables[p], keys, sel, join_name.c_str(), &payload);
    for (size_t g = 0; g < group_vals.size(); ++g) {
      if (!group_filled[g]) continue;
      sim::DeviceBuffer<int32_t> aligned(device_,
                                         std::max<int64_t>(next.count, 1));
      int64_t w = 0;
      for (int64_t i = 0; i < sel.count && w < next.count; ++i) {
        if (sel.rows[i] == next.rows[w]) aligned[w++] = group_vals[g][i];
      }
      group_vals[g] = std::move(aligned);
    }
    if (probe.group_slot >= 0) {
      const size_t slot = static_cast<size_t>(probe.group_slot);
      group_vals[slot] = std::move(payload);
      group_filled[slot] = true;
    }
    sel = std::move(next);
  }

  // Fetch every distinct aggregate input at the surviving rows, then run
  // the final aggregation operator over the expanded slot plan.
  const int slots = aggs.num_slots();
  std::vector<sim::DeviceBuffer<int32_t>> agg_vals;  // parallel to stage.cols
  for (size_t c = 0; c < stage.cols.size(); ++c) {
    const std::string fetch_name =
        "mat_fetch_" + std::string(query::FactColName(stage.cols[c]));
    agg_vals.push_back(Fetch(stage.views[c], sel, fetch_name.c_str()));
  }
  // The final aggregation operator: the shared evaluator over the fetched
  // survivor columns, kVectorRows at a time, folding into one accumulator
  // row (scalar) or the grid at each row's cell (grouped).
  const bool grouped = !layout.scalar();
  const int64_t input_cols =
      layout.num_keys + static_cast<int64_t>(stage.cols.size());
  std::vector<int64_t> acc(static_cast<size_t>(layout.cells * slots));
  query::FillIdentity(aggs, acc.data(), layout.cells);
  std::vector<int64_t> vecs(static_cast<size_t>(stage.num_vectors) *
                            query::kVectorRows);
  bool ok = true;
  sim::RunAsKernel(
      device_, grouped ? "mat_groupby" : "mat_aggregate", {}, 1, [&] {
        device_.RecordSeqRead(input_cols * sel.count * 4);
        if (stage.arith_per_row > 0) {
          device_.RecordArithmetic(sel.count * stage.arith_per_row);
        }
        if (grouped) device_.RecordAtomic(sel.count * slots);  // (row, slot)
        int64_t off[query::kVectorRows];
        for (int64_t base = 0; ok && base < sel.count;
             base += query::kVectorRows) {
          const int m = static_cast<int>(
              std::min<int64_t>(query::kVectorRows, sel.count - base));
          for (int i = 0; grouped && i < m; ++i) {
            int32_t keys[3];
            for (int k = 0; k < layout.num_keys; ++k) {
              keys[k] = group_vals[static_cast<size_t>(k)][base + i];
            }
            off[i] = layout.CellFor(keys) * slots;
          }
          const auto widen = [&](int c, int count, int64_t* dst) {
            const sim::DeviceBuffer<int32_t>& col =
                agg_vals[static_cast<size_t>(c)];
            for (int i = 0; i < count; ++i) dst[i] = col[base + i];
          };
          ok = query::RunProgram(stage, vecs.data(), m, widen) &&
               query::FoldSlots(stage, vecs.data(), m, acc.data(),
                                grouped ? off : nullptr, base);
        }
      });
  if (!ok) return OutOfRangeError(query::kOverflowMsg);
  if (grouped) {
    EmitDenseGroups(layout, aggs, acc.data(), &run.result);
  } else {
    EmitScalars(aggs, acc.data(), &run.result);
  }
  FinalizeRun(device_, db_, spec, &run);
  return run;
}

}  // namespace crystal::ssb
