#include "scan.h"

#include <cstdlib>
#include <utility>

#include "cpu/build_cache.h"
#include "query/footprint.h"
#include "query/pipeline.h"
#include "ssb/fused_query.h"
#include "ssb/vectorized_cpu_engine.h"

namespace perfbench {

namespace query = crystal::query;
namespace ssb = crystal::ssb;

int64_t EngineMorselRows() {
  int64_t rows = ssb::VectorizedCpuEngine::kDefaultMorselRows;
  if (const char* env = std::getenv("CRYSTAL_MORSEL_ROWS")) {
    const long long v = std::atoll(env);
    if (v > 0) rows = v;
  }
  return rows;
}

bool TracedExecute(const query::QuerySpec& spec, const ssb::Database& db,
                   crystal::ThreadPool& pool,
                   std::vector<std::vector<int64_t>>* grid_scratch,
                   Tracer& tracer, LayerTotals* totals,
                   ssb::QueryResult* result) {
  const int64_t request = tracer.NewId();
  {
    ScopedSpan plan(tracer, "bench.plan", request);
    const int64_t t0 = tracer.Now();
    const query::QueryPipeline pipe = query::LowerToPipeline(spec, db);
    const int64_t t1 = tracer.Now();
    tracer.Add("query.LowerToPipeline", request, plan.id(), t0, t1);
    query::EstimateFootprint(pipe, pool.num_threads());
    tracer.Add("query.EstimateFootprint", request, plan.id(), t1,
               tracer.Now());
  }

  const int64_t root = tracer.NewId();
  const Clock::time_point begin = Clock::now();
  ssb::FusedQuery::BuildStats build;
  auto fused = ssb::FusedQuery::Create(spec, db, pool.num_threads(), pool,
                                       grid_scratch, &build);
  const int64_t created = tracer.Now();
  tracer.Add("ssb.FusedQuery.Create", request, root, tracer.ToNs(begin),
             created);
  if (!fused.ok()) {
    tracer.Add("bench.request", request, 0, tracer.ToNs(begin), created,
               root);
    return false;
  }
  ssb::FusedQuery& q = **fused;
  const int64_t scan = tracer.NewId();
  pool.ParallelForMorsels(
      db.lo.rows, EngineMorselRows(), [&](int t, int64_t b, int64_t e) {
        const int64_t m0 = tracer.Now();
        q.RunMorsel(t, b, e);  // a failed morsel latches; Finish reports it
        tracer.AddFromWorker(t, "ssb.FusedQuery.RunMorsel", request, scan,
                             m0, tracer.Now());
      });
  const int64_t scanned = tracer.Now();
  tracer.Add("ssb.scan", request, root, created, scanned, scan);
  auto finished = q.Finish(pool);
  const Clock::time_point end = Clock::now();
  tracer.Add("ssb.FusedQuery.Finish", request, root, scanned,
             tracer.ToNs(end));
  tracer.Add("bench.request", request, 0, tracer.ToNs(begin),
             tracer.ToNs(end), root);

  totals->fact_bytes += static_cast<double>(
      query::ReferencedFactBytes(db, spec, db.lo.rows));
  totals->fact_rows += static_cast<double>(db.lo.rows);
  totals->scan_thread_ms +=
      pool.num_threads() * static_cast<double>(scanned - created) / 1e6;
  totals->build_ms.push_back(build.build_ms);
  totals->cache_hits += build.cache_hits;
  totals->cache_builds += build.cache_builds;
  totals->degraded += q.degraded() ? 1 : 0;
  if (!finished.ok()) return false;
  *result = std::move(finished).value();
  totals->latency_ms.push_back(MsBetween(begin, end));
  return true;
}

void ReportScanLayers(const std::vector<Span>& spans,
                      const LayerTotals& totals, Report* report) {
  const std::vector<double> create = DurationsMs(spans, "ssb.FusedQuery.Create");
  const std::vector<double> scan = DurationsMs(spans, "ssb.scan");
  const std::vector<double> finish = DurationsMs(spans, "ssb.FusedQuery.Finish");
  std::vector<double> morsel_us =
      DurationsMs(spans, "ssb.FusedQuery.RunMorsel");
  double morsel_ms = 0;
  for (double& v : morsel_us) {
    morsel_ms += v;
    v *= 1000.0;
  }
  double scan_ms = 0;
  for (double v : scan) scan_ms += v;
  const int64_t requests = static_cast<int64_t>(scan.size());

  report->Set("ssb.create_ms", Median(create), "ms", create.size());
  report->Set("ssb.scan_ms", Median(scan), "ms", scan.size());
  report->Set("ssb.finish_ms", Median(finish), "ms", finish.size());
  report->Set("ssb.morsel_us.p50", Percentile(morsel_us, 0.50), "us",
              morsel_us.size());
  report->Set("ssb.morsel_us.p99", Percentile(morsel_us, 0.99), "us",
              morsel_us.size());
  // Bytes the referenced fact columns occupy over scan wall time: the
  // scan's place against the §3.1 bandwidth model.
  report->Set("ssb.scan_gbps",
              scan_ms > 0 ? totals.fact_bytes / (scan_ms * 1e6) : 0, "GB/s",
              requests);
  report->Set("ssb.scan_busy_frac",
              totals.scan_thread_ms > 0 ? morsel_ms / totals.scan_thread_ms
                                        : 0,
              "frac", requests);
  report->Set("storage.fact_bytes_per_row",
              totals.fact_rows > 0 ? totals.fact_bytes / totals.fact_rows : 0,
              "B/row", requests);
  report->Set("cpu.build_ms", Mean(totals.build_ms), "ms",
              totals.build_ms.size());
  const int64_t lookups = totals.cache_hits + totals.cache_builds;
  report->Set("cpu.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(totals.cache_hits) /
                                static_cast<double>(lookups)
                          : 0,
              "frac", lookups);
  report->Set("cpu.cache_bytes",
              static_cast<double>(crystal::cpu::BuildCache::Process().bytes()),
              "B", 1);

  std::vector<double> lower = DurationsMs(spans, "query.LowerToPipeline");
  std::vector<double> footprint = DurationsMs(spans, "query.EstimateFootprint");
  for (double& v : lower) v *= 1000.0;
  for (double& v : footprint) v *= 1000.0;
  report->Set("query.lower_us", Median(lower), "us", lower.size());
  report->Set("query.footprint_us", Median(footprint), "us",
              footprint.size());

  report->notes.push_back(
      "accounting: traced medians create " + std::to_string(Median(create)) +
      " + scan " + std::to_string(Median(scan)) + " + finish " +
      std::to_string(Median(finish)) + " ms; traced request p50 " +
      std::to_string(Percentile(totals.latency_ms, 0.50)) + " ms");
}

}  // namespace perfbench
