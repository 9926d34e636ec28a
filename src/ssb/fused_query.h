#ifndef CRYSTAL_SSB_FUSED_QUERY_H_
#define CRYSTAL_SSB_FUSED_QUERY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "query/query_spec.h"
#include "ssb/queries.h"

namespace crystal::ssb {

/// One query's fused-scan execution state, factored out of the vectorized
/// CPU engine so a scan can carry any number of queries: construction
/// lowers the spec (query::LowerToPipeline), fetches every build side from
/// the process-wide cpu::BuildCache, and sizes per-thread aggregation
/// state; RunMorsel then evaluates the whole plan — SIMD range predicates,
/// the ordered join-probe cascade, aggregation — over one morsel on one
/// thread, vector-at-a-time; Finish merges the per-thread state into the
/// result. Aggregation is column-at-a-time too: the lowered aggregate
/// program (query::AggStage, run by the shared evaluator in
/// query/agg_program.h) computes every slot's input over the
/// vector's survivors in per-thread scratch vectors, a sink pass resolves
/// each survivor's accumulator-row offset once (the thread's dense grid
/// cell, its sparse table's pool offset, or — scalar queries — the
/// thread's one-cell grid), and then each slot folds its input in its own
/// loop.
///
/// The single-query engine drives one instance per ParallelForMorsels
/// pass. The query server's shared scan drives N instances inside *one*
/// pass — per morsel each member query runs back-to-back while the fact
/// columns are L2-hot, so N co-running queries cost ~1 scan of memory
/// traffic instead of N.
///
/// Threading contract: RunMorsel(t, ...) may run concurrently for
/// distinct thread indices t < threads (as ParallelForMorsels provides);
/// all aggregation state is per-thread. Finish must be called after the
/// scan's pool joined.
class FusedQuery {
 public:
  /// Build-phase record: build sides served from / added to the
  /// cpu::BuildCache during construction.
  struct BuildStats {
    double build_ms = 0;
    int64_t cache_hits = 0;
    int64_t cache_builds = 0;
  };

  /// Aggregation shape the query actually runs with. kDense and kSparse
  /// are the engine's normal choices (layout-driven); kSharedSparse is the
  /// degradation ladder's floor — one mutex-guarded table shared by every
  /// scan thread, minimal memory at the cost of contention.
  enum class AggMode { kScalar, kDense, kSparse, kSharedSparse };

  /// Lowers `spec` against `db` and fetches/builds the dimension build
  /// sides on `build_pool`. Fails with kInvalidArgument when the spec
  /// doesn't validate, propagates build-side failures from the
  /// cpu::BuildCache (kResourceExhausted / kInternal / kFaultInjected),
  /// and checks the "fused.build" fault point — never aborts on
  /// recoverable input. `grid_scratch` optionally donates caller-owned
  /// dense-grid scratch reused across runs (the engine's warm-pages
  /// optimization); pass nullptr for private scratch. `threads` is the
  /// scan pool's thread count (sizes the per-thread state).
  ///
  /// Memory governance: the per-thread aggregation scratch predicted by
  /// query::EstimateFootprint is claimed against the process MemoryBudget
  /// up front (released when the query is destroyed). When the preferred
  /// shape's claim is rejected the query *degrades* instead of failing —
  /// dense grids fall back to the sparse per-thread tables, then to one
  /// shared table — and between rungs the cpu::BuildCache is asked to
  /// shed idle entries. Only when even the shared-table floor cannot be
  /// claimed does Create return kResourceExhausted. Degraded execution is
  /// bit-identical to the preferred shape (same accumulation plan, same
  /// Normalize ordering); `degraded()` reports that it happened.
  static StatusOr<std::unique_ptr<FusedQuery>> Create(
      const query::QuerySpec& spec, const Database& db, int threads,
      ThreadPool& build_pool,
      std::vector<std::vector<int64_t>>* grid_scratch = nullptr,
      BuildStats* stats = nullptr);

  ~FusedQuery();

  FusedQuery(const FusedQuery&) = delete;
  FusedQuery& operator=(const FusedQuery&) = delete;

  /// Runs the full plan over fact rows [begin, end) as thread `t`.
  /// Checks the "fused.morsel" fault point (one relaxed load when no
  /// faults are installed) and converts allocation failure into Status.
  /// The first non-OK morsel latches the query as failed: subsequent
  /// calls return that first error immediately without touching data, so
  /// a shared scan stops spending cycles on a doomed member while its
  /// batch-mates keep running.
  Status RunMorsel(int t, int64_t begin, int64_t end);

  /// Merges per-thread aggregation state (grid merge runs on `pool`) and
  /// returns the final result — or the first morsel error, if any morsel
  /// failed (partial aggregates must never masquerade as results). Call
  /// once, after the scan completed.
  StatusOr<QueryResult> Finish(ThreadPool& pool);

  /// True once any RunMorsel latched a failure (relaxed load; exact
  /// synchronization comes from the scan pool's join).
  bool failed() const;

  /// The aggregation shape this instance runs with.
  AggMode agg_mode() const;

  /// True when budget pressure forced a rung below the preferred shape.
  bool degraded() const;

 private:
  FusedQuery();

  StatusOr<QueryResult> FinishImpl(ThreadPool& pool);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace crystal::ssb

#endif  // CRYSTAL_SSB_FUSED_QUERY_H_
