#ifndef CRYSTAL_SSB_CRYSTAL_ENGINE_H_
#define CRYSTAL_SSB_CRYSTAL_ENGINE_H_

#include <memory>

#include "common/status.h"
#include "gpu/hash_table.h"
#include "gpu/packed_column.h"
#include "sim/device.h"
#include "sim/exec.h"
#include "ssb/queries.h"

namespace crystal::ssb {

/// Per-query execution report of a simulated engine run.
struct EngineRun {
  QueryResult result;
  double build_ms = 0;       // dimension hash-table builds
  double probe_ms = 0;       // fused probe/aggregate kernels (fact-linear)
  double total_ms = 0;       // build + probe
  int64_t fact_rows = 0;     // fact rows processed in this (sub-sampled) run
  int64_t fact_bytes_shipped = 0;  // referenced fact bytes (coprocessor)

  /// Scales the fact-proportional part to the database's full scale factor
  /// (see Database::fact_divisor) and returns total milliseconds.
  double ScaledTotalMs(int fact_divisor) const {
    return build_ms + probe_ms * fact_divisor;
  }
};

/// Splits the device's kernel records since its last ResetStats into build
/// (every `ht_build*` kernel) and probe time, and fills the traffic fields
/// from the spec's referenced columns at their encoded widths
/// (query::ReferencedFactBytes). Shared by both simulated engines.
void FinalizeRun(const sim::Device& device, const Database& db,
                 const query::QuerySpec& spec, EngineRun* run);

/// Build phase of both simulated engines: a hash table over the dimension
/// rows passing every build-side filter of `join`, mapping key -> payload.
/// Following the paper (Section 5.3: "the size of the part hash table
/// (with perfect hashing) is 2 x 4 x 1M = 8MB"), the table is sized by the
/// dimension's KEY DOMAIN, not by the filtered entry count — this is what
/// makes the part table exceed the GPU L2 at SF 20. The dimension scan —
/// `scanned_columns` 4-byte columns of every dimension row — runs as its
/// own `ht_build_scan` kernel ahead of the insert kernel, so build_ms
/// counts it; `config` is both kernels' geometry.
gpu::DeviceHashTable BuildDomainHashTable(sim::Device& device,
                                          const query::BoundJoin& join,
                                          int64_t scanned_columns,
                                          const sim::LaunchConfig& config);

/// The paper's standalone engine: one fused tile-based kernel per query
/// built from Crystal block-wide functions (Section 5.2), preceded by the
/// dimension hash-table builds. The kernel is assembled generically from
/// the QuerySpec — BlockPred chains for the fact filters, one BlockLookup
/// per dimension join, and a dense-grid (or block-reduced scalar) aggregate
/// computed by the shared evaluator (query/agg_program.h) over each tile's
/// survivors; each referenced fact column is loaded into registers exactly
/// once. The engine is device-profile agnostic: on the V100 profile it is
/// the "Standalone GPU" system; executed on the Skylake profile it models
/// the equivalent vectorized "Standalone CPU" implementation (Section 3.2),
/// with CPU memory stalls applied by the timing model.
class CrystalEngine {
 public:
  CrystalEngine(sim::Device& device, const Database& db);

  /// Runs a spec; resets device stats first so the report covers exactly
  /// this query. An aggregate overflow fails the run with kOutOfRange
  /// (query::kOverflowMsg).
  StatusOr<EngineRun> Run(const query::QuerySpec& spec,
                          const sim::LaunchConfig& config = {});
  StatusOr<EngineRun> Run(QueryId id, const sim::LaunchConfig& config = {}) {
    return Run(query::SsbSpec(id), config);
  }

  sim::Device& device() { return device_; }

 private:
  /// One fact column resident in device memory, in whichever encoding the
  /// database carries it: plain columns upload into a 4-byte DeviceBuffer
  /// (the pre-storage-layer path, byte-for-byte unchanged), packed columns
  /// upload their word stream into a gpu::PackedColumn and are consumed by
  /// the fused kernel through BlockLoadPacked / BlockLoadPackedSel — no
  /// decompress-first pass, and modeled scan traffic is ceil(rows*bits/8)
  /// instead of 4*rows.
  struct FactDeviceColumn {
    sim::DeviceBuffer<int32_t> plain;
    std::unique_ptr<gpu::PackedColumn> packed;
  };

  sim::Device& device_;
  const Database& db_;

  // Fact columns resident in device memory, indexed by query::FactCol.
  FactDeviceColumn fact_[query::kNumFactCols];
};

}  // namespace crystal::ssb

#endif  // CRYSTAL_SSB_CRYSTAL_ENGINE_H_
