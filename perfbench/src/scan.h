#ifndef PERFBENCH_SCAN_H_
#define PERFBENCH_SCAN_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "query/query_spec.h"
#include "ssb/queries.h"
#include "ssb/schema.h"
#include "trace.h"

namespace perfbench {

/// Morsel size the vectorized-cpu engine runs with (its default, or the
/// CRYSTAL_MORSEL_ROWS override it reads at construction).
int64_t EngineMorselRows();

/// Counters summed over the requests of a traced window.
struct LayerTotals {
  double fact_bytes = 0;      // query::ReferencedFactBytes per request
  double fact_rows = 0;
  double scan_thread_ms = 0;  // threads x scan wall
  std::vector<double> build_ms;
  int64_t cache_hits = 0;
  int64_t cache_builds = 0;
  int64_t degraded = 0;
  std::vector<double> latency_ms;
};

/// Runs one query the way the vectorized-cpu engine does — FusedQuery::
/// Create, one ThreadPool::ParallelForMorsels pass over RunMorsel, Finish —
/// with a span around each call and each morsel. Lowering and footprint
/// estimation are timed first, outside the request: Create repeats them
/// internally, so timing them inside would count them twice. Returns false
/// when the query failed; the request's latency (Create through Finish) is
/// appended to totals->latency_ms on success.
bool TracedExecute(const crystal::query::QuerySpec& spec,
                   const crystal::ssb::Database& db, crystal::ThreadPool& pool,
                   std::vector<std::vector<int64_t>>* grid_scratch,
                   Tracer& tracer, LayerTotals* totals,
                   crystal::ssb::QueryResult* result);

/// Reports the scan-layer metrics (ssb.*, storage.*, cpu.build_ms, cache
/// and planning metrics) of the spans TracedExecute recorded.
void ReportScanLayers(const std::vector<Span>& spans,
                      const LayerTotals& totals, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SCAN_H_
