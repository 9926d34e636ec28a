#ifndef CRYSTAL_QUERY_PIPELINE_H_
#define CRYSTAL_QUERY_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query_spec.h"
#include "ssb/schema.h"

namespace crystal::query {

/// Lowering of a validated QuerySpec into the flat, fully bound pipeline
/// every fused interpreter executes: an ordered list of fact-filter stages,
/// an ordered list of join-probe stages (each pointing at its build-side
/// descriptor and the group slot its payload feeds), and the aggregate
/// inputs — all resolved once, before the scan, so the per-morsel inner
/// loop touches no spec machinery. Fact columns are carried as
/// storage::ColumnView, so the lowering stays engine-agnostic across
/// storage encodings: a plain view is a raw pointer plus length (the
/// pre-storage-layer fast path, unchanged), a packed view carries the
/// (words, bits, reference) metadata the unpack kernels need. The
/// vectorized CPU engine drives this with SIMD selection-vector kernels,
/// but any engine that walks filters → probes → aggregate can consume the
/// same lowering instead of re-deriving the wiring from the spec.

/// One fact-predicate stage: lo <= col.Get(row) <= hi.
struct FilterStage {
  storage::ColumnView col;
  int32_t lo = 0;
  int32_t hi = 0;
};

/// One join-probe stage. `join_index` points into QueryPipeline::bound
/// (the build-side key/payload/filter descriptor); `group_slot` is the
/// group-key buffer this probe's payload feeds, or -1 for a filter-only
/// join whose payload is never read.
struct ProbeStage {
  storage::ColumnView fact_keys;
  int join_index = 0;
  int group_slot = -1;
  /// Canonical identity of this probe's build side (BuildSideKey): equal
  /// keys => identical build-side table content for one database
  /// generation, which is what makes cross-query build caching sound.
  std::string cache_key;
};

/// The aggregate stage: the expanded slot plan (PlanAggs) plus the distinct
/// fact columns its expressions read, resolved to views once. Engines
/// evaluate each slot's expression per surviving row via EvalExpr with a
/// getter over `views`; `col_index` maps a FactCol to its view slot.
///
/// A lone SUM of col, col*col or col-col (the canonical SSB shapes) is
/// additionally classified as `simple`, with `a`/`b` naming its inputs'
/// view slots, so the vectorized engine can fold it without the
/// expression interpreter; every other plan takes the general EvalExpr
/// fold over the same views.
struct AggStage {
  AggPlan plan;
  std::vector<FactCol> cols;               // distinct expression inputs
  std::vector<storage::ColumnView> views;  // parallel to cols
  int col_index[kNumFactCols] = {};        // FactCol -> index in cols, or -1

  enum class Simple { kNone, kColumn, kProduct, kDifference };
  Simple simple = Simple::kNone;
  int a = -1;  // simple != kNone: view slot of the first input
  int b = -1;  // kProduct / kDifference: view slot of the second input
};

/// A QuerySpec lowered against one database. Holds pointers into both (and
/// into the spec via `bound`); spec and database must outlive the pipeline.
struct QueryPipeline {
  std::vector<FilterStage> filters;
  std::vector<ProbeStage> probes;
  AggStage agg;
  GroupLayout layout;
  PayloadPlan plan;
  /// Build-side descriptors, parallel to `probes` (probes[i].join_index
  /// == i today; kept explicit so probe reordering stays representable).
  std::vector<BoundJoin> bound;

  bool scalar() const { return layout.scalar(); }
};

/// Lowers a spec (must satisfy Validate) against `db`.
QueryPipeline LowerToPipeline(const QuerySpec& spec, const ssb::Database& db);

/// Canonical string identity of one join's build side: dimension table,
/// carried payload column ("key" for filter-only joins), and every
/// build-side filter with its bounds / IN-set / LIKE pattern. Two joins
/// with equal keys build byte-identical tables from the same database
/// generation — the contract the cross-query build cache relies on. The
/// fact-side key column deliberately does not participate (it only drives
/// the probe).
std::string BuildSideKey(const QuerySpec& spec, size_t join_index,
                         const PayloadPlan& plan);

/// Database-generation tag for build-cache invalidation: dimension content
/// is a pure function of (seed, scale_factor) — see ssb::Generate — so the
/// tag changes exactly when cached build sides would go stale.
std::string GenerationKey(const ssb::Database& db);

}  // namespace crystal::query

#endif  // CRYSTAL_QUERY_PIPELINE_H_
