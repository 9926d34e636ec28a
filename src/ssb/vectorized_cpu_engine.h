#ifndef CRYSTAL_SSB_VECTORIZED_CPU_ENGINE_H_
#define CRYSTAL_SSB_VECTORIZED_CPU_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "cpu/build_cache.h"
#include "ssb/queries.h"

namespace crystal::ssb {

/// The paper's "Standalone CPU" implementation, run as a morsel-driven
/// fused pipeline (Leis et al.): the fact table is cut into cache-sized
/// morsels claimed work-stealing style from a shared cursor, and within a
/// morsel the whole lowered plan — SIMD range predicates, the ordered
/// join-probe cascade, grouped aggregation into per-thread grids — runs in
/// one pass over 1024-row vectors whose selection vector and carried group
/// keys stay register/L1-resident. Each fact byte is touched exactly once;
/// there is no inter-operator column traffic.
///
/// The per-morsel plan evaluation itself lives in ssb::FusedQuery
/// (lowering, build-side fetch, per-thread aggregation state) so the query
/// server's shared scans run the identical kernels; this class is the
/// single-query driver around it.
///
/// Build sides come from the process-wide cpu::BuildCache: dimension
/// tables (direct-address bitmaps or payload arrays over the key domain,
/// sized by cpu::PlanJoinLayout) are built
/// once per database generation and shared read-only across queries,
/// repeats, and engines, so back-to-back Execute() calls pay
/// probe+aggregate cost only.
///
/// Wall-clock numbers from this engine are honest local measurements;
/// paper-scale CPU predictions come from the Skylake-profile simulation.
class VectorizedCpuEngine {
 public:
  /// Default morsel size: 64K rows x 4B = 256 KB per referenced fact
  /// column slice — big enough to amortize the claim, small enough that a
  /// morsel's selection vectors and vector-at-a-time state stay L1/L2-hot.
  static constexpr int64_t kDefaultMorselRows = 64 * 1024;

  VectorizedCpuEngine(const Database& db, ThreadPool& pool);

  /// Per-run execution record (all measured on the host, no model).
  struct RunInfo {
    double build_ms = 0;   // dimension build-side fetch/build phase
    double probe_ms = 0;   // fused morsel scan: filters+probes+aggregate
    int64_t cache_hits = 0;    // build sides served from the BuildCache
    int64_t cache_builds = 0;  // build sides actually built this run
  };

  QueryResult Run(const query::QuerySpec& spec, RunInfo* info = nullptr);
  QueryResult Run(QueryId id, RunInfo* info = nullptr) {
    return Run(query::SsbSpec(id), info);
  }

  /// Morsel size override (tests, ablations); also settable via the
  /// CRYSTAL_MORSEL_ROWS environment variable at construction.
  void set_morsel_rows(int64_t rows);
  int64_t morsel_rows() const { return morsel_rows_; }

 private:
  const Database& db_;
  ThreadPool& pool_;
  int64_t morsel_rows_ = kDefaultMorselRows;
  /// Per-thread dense aggregation grids (layouts up to 2^18 cells; larger
  /// ones aggregate sparsely), reused across runs so repeated executions
  /// pay a memset on warm pages instead of a fresh allocation per query.
  std::vector<std::vector<int64_t>> grid_scratch_;
};

}  // namespace crystal::ssb

#endif  // CRYSTAL_SSB_VECTORIZED_CPU_ENGINE_H_
