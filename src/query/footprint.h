#ifndef CRYSTAL_QUERY_FOOTPRINT_H_
#define CRYSTAL_QUERY_FOOTPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/pipeline.h"

namespace crystal::query {

/// Largest group-cell count the fused engines aggregate into dense
/// per-thread grids; larger layouts take the sparse per-thread tables.
/// Lives here (not in the engine) because the footprint estimator and the
/// engine must agree on which aggregation shape a layout gets.
inline constexpr int64_t kDenseGridMaxCells = int64_t{1} << 18;

/// Per-probe build-side prediction: the BuildSideKey identity (so callers
/// can subtract sides already resident in the cpu::BuildCache) and the
/// modeled table size.
struct BuildFootprint {
  std::string cache_key;
  int64_t bytes = 0;
};

/// Predicted memory footprint of one lowered pipeline, derived from the
/// same geometry the execution layer uses: GroupLayout cells x AggPlan
/// slots plus the aggregate program's scratch for the aggregation state,
/// and cpu::PlanJoinLayout — the rule cpu::BuildJoinTable builds by — for
/// each build side, so a build side's prediction is its exact size
/// (bitmap, narrowed payload array, or two-level). The aggregation
/// estimate is deliberately conservative — sparse-table occupancy is
/// bounded, not sampled — because admission control treats it as a
/// claim, and an over-claim degrades throughput while an under-claim
/// degrades the process (docs/ROBUSTNESS.md, "Memory governance").
struct FootprintEstimate {
  /// Aggregation bytes of each rung. Every rung also includes the
  /// aggregate program's scratch vectors (AggStage::num_vectors x
  /// kVectorRows x 8 bytes per thread); a scalar layout's rungs are its
  /// per-thread one-cell grids plus that scratch.
  ///
  /// Dense per-thread grids across all threads (0 past
  /// kDenseGridMaxCells).
  int64_t dense_agg_bytes = 0;
  /// Per-thread sparse tables across all threads (bounded-occupancy model).
  int64_t sparse_agg_bytes = 0;
  /// One shared sparse table — the degradation ladder's floor.
  int64_t shared_agg_bytes = 0;
  /// Result emission buffers (FusedQuery::Finish).
  int64_t result_bytes = 0;
  /// Per-probe build sides, in probe order; `build_bytes` is their sum.
  std::vector<BuildFootprint> builds;
  int64_t build_bytes = 0;
  /// True when the engine's preferred shape for this layout is the dense
  /// grid (grouped, cells <= kDenseGridMaxCells).
  bool dense_preferred = false;

  /// Aggregation bytes at the engine's preferred (undegraded) shape.
  int64_t preferred_agg_bytes() const {
    return dense_preferred ? dense_agg_bytes : sparse_agg_bytes;
  }
  /// Full footprint at the preferred shape.
  int64_t preferred_bytes() const {
    return build_bytes + preferred_agg_bytes() + result_bytes;
  }
  /// Full footprint at the cheapest rung of the degradation ladder; a
  /// query whose minimum cannot fit inside the budget can never run.
  int64_t minimum_bytes() const {
    int64_t agg = shared_agg_bytes;
    if (dense_agg_bytes > 0 && dense_agg_bytes < agg) agg = dense_agg_bytes;
    if (sparse_agg_bytes > 0 && sparse_agg_bytes < agg) {
      agg = sparse_agg_bytes;
    }
    return build_bytes + agg + result_bytes;
  }
};

/// Estimates the footprint of `pipe` executed by `threads` workers. Build
/// sides are planned from the key and payload ranges lowering bound
/// (BoundJoin, from ssb::Database::dim_ranges), so no dimension column is
/// scanned: O(joins), independent of the scale factor.
FootprintEstimate EstimateFootprint(const QueryPipeline& pipe, int threads);

/// EstimateFootprint without the build sides (`builds` empty,
/// `build_bytes` 0): the aggregation and result rungs, which are all query
/// setup claims.
FootprintEstimate EstimateAggFootprint(const QueryPipeline& pipe,
                                       int threads);

}  // namespace crystal::query

#endif  // CRYSTAL_QUERY_FOOTPRINT_H_
