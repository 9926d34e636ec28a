#include "query/footprint.h"

#include <algorithm>

#include "cpu/build_cache.h"

namespace crystal::query {

namespace {

/// Occupancy bound for the sparse-table model: real workloads touch a few
/// hundred to a few thousand cells, so the model claims at most this many
/// live groups per table. The table itself is open-addressing at <= 50%
/// fill with 16-byte slots plus a num_slots-stride value pool (see
/// SparseGrid in ssb/fused_query.cc).
constexpr int64_t kSparseModelGroups = int64_t{1} << 14;

int64_t NextPow2(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// One sparse table's modeled bytes for a layout with `cells` cells and
/// `slots` accumulator slots per group.
int64_t SparseTableBytes(int64_t cells, int64_t slots) {
  const int64_t groups = std::min<int64_t>(cells, kSparseModelGroups);
  const int64_t capacity = std::max<int64_t>(1024, NextPow2(2 * groups));
  return capacity * 16 + groups * slots * 8;
}

}  // namespace

FootprintEstimate EstimateAggFootprint(const QueryPipeline& pipe,
                                       int threads) {
  FootprintEstimate est;
  const int64_t t = std::max(threads, 1);
  const int64_t slots = pipe.agg.plan.num_slots();
  const int64_t cells = pipe.layout.cells;
  // Every rung runs the aggregate program in per-thread scratch vectors.
  const int64_t program = t * pipe.agg.num_vectors * kVectorRows * 8;

  if (pipe.scalar()) {
    // One one-cell accumulator row per scan thread (the scalar layout's
    // per-thread grid), plus the program's scratch vectors.
    const int64_t partials = t * slots * 8 + program;
    est.dense_agg_bytes = partials;
    est.sparse_agg_bytes = partials;
    est.shared_agg_bytes = partials;
    est.result_bytes = 256;
    est.dense_preferred = true;
  } else {
    est.dense_preferred = cells <= kDenseGridMaxCells;
    est.dense_agg_bytes =
        est.dense_preferred ? t * cells * slots * 8 + program : 0;
    est.sparse_agg_bytes = t * SparseTableBytes(cells, slots) + program;
    est.shared_agg_bytes = SparseTableBytes(cells, slots) + program;
    // Emission: keys triple + emitted accumulators per live group, with
    // live groups bounded by the same occupancy model.
    est.result_bytes =
        std::min<int64_t>(cells, kSparseModelGroups * 4) * (12 + slots * 8);
  }
  return est;
}

FootprintEstimate EstimateFootprint(const QueryPipeline& pipe, int threads) {
  FootprintEstimate est = EstimateAggFootprint(pipe, threads);
  est.builds.reserve(pipe.probes.size());
  for (const ProbeStage& probe : pipe.probes) {
    const BoundJoin& join = pipe.bound[static_cast<size_t>(probe.join_index)];
    const int64_t bytes =
        join.keys == nullptr
            ? 0
            : cpu::PlanJoinLayout(
                  {join.dim_rows, join.key_range, join.payload_range},
                  probe.group_slot >= 0)
                  .bytes();
    est.builds.push_back({probe.cache_key, bytes});
    est.build_bytes += bytes;
  }
  return est;
}

}  // namespace crystal::query
