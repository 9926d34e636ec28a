// Query-server concurrency harness: drives mixed SSB traffic (the 13
// canonical specs, rotated so concurrent clients are usually on different
// queries) against server::QueryServer at a sweep of concurrency levels,
// plus a sequential-replay baseline (same workload, one query at a time,
// batching disabled). Writes BENCH_server.json with queries/sec,
// p50/p95/p99 latency, and the shared-scan accounting (batches formed,
// scans saved, dedup hits) per level; tools/perf_diff compares two such
// files (docs/SERVER.md).
//
// Each level runs N closed-loop clients (every client submits its next
// query as soon as its previous one completed). That approximates
// open-loop arrivals at the service's natural saturation rate: the
// admission queue always holds co-pending work, which is exactly the
// regime shared scans are for.
//
// The traffic mix defaults to the 13 canonical SSB specs; --mix=generated:SEED
// (or CRYSTAL_SERVER_MIX) swaps in a seeded workload-generator suite
// (src/workload) so the concurrency sweep exercises multi-aggregate,
// expression, and LIKE-filter queries too. Generated mixes are verified
// against the reference engine before any level is timed.
//
// Knobs (environment; --mix=... on argv wins over CRYSTAL_SERVER_MIX):
//   CRYSTAL_SSB_SF=N             scale factor           (default 1)
//   CRYSTAL_SSB_FACT_DIVISOR=N   fact subsampling       (default 1)
//   CRYSTAL_THREADS=N            scan pool threads, 0=hw (default 0)
//   CRYSTAL_STORAGE=NAME         fact storage encoding  (plain)
//   CRYSTAL_SERVER_LEVELS=LIST   concurrency sweep      (1,4,16,64)
//   CRYSTAL_SERVER_QUERIES=N     queries per level      (208 = 16x13)
//   CRYSTAL_SERVER_BATCH=N       max shared-scan batch  (16)
//   CRYSTAL_SERVER_COHORT=N      clients per rotation cohort (4; 1=distinct)
//   CRYSTAL_SERVER_MORSEL=N      shared-scan morsel rows, 0=engine default
//   CRYSTAL_SERVER_MIX=SPEC      "ssb13" | "generated:SEED[:COUNT]"
//   CRYSTAL_BENCH_OUT=FILE       output JSON            (BENCH_server.json)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "common/memory.h"
#include "common/table_printer.h"
#include "cpu/build_cache.h"
#include "common/timer.h"
#include "cpu/vector_ops.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "query/ssb_specs.h"
#include "server/query_server.h"
#include "ssb/datagen.h"
#include "storage/encoded_column.h"
#include "workload/workload.h"

namespace {

namespace bench = crystal::bench;
namespace server = crystal::server;
namespace ssb = crystal::ssb;

using crystal::TablePrinter;
using crystal::WallTimer;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      std::max(0.0, p * static_cast<double>(v.size()) - 1e-9));
  return v[std::min(idx, v.size() - 1)];
}

/// The rotation pool: the 13 canonical specs, or a seeded generated suite
/// when --mix=generated:SEED is active. Shared by every level.
std::vector<crystal::query::QuerySpec> g_mix;

/// The mixed-traffic stream: client c's i-th query rotates through the mix
/// pool from a per-cohort offset. Clients in the same cohort (groups of
/// `cohort`, the CRYSTAL_SERVER_COHORT knob) follow the same rotation, so
/// co-pending duplicates — the dashboard-fleet regime shared scans and
/// dedup exist for — grow with concurrency, while distinct cohorts keep
/// the in-flight set genuinely mixed and the full rotation covers every
/// query in the pool. cohort=1 is the all-distinct worst case (every
/// client on its own offset; sharing is limited to scan locality).
const crystal::query::QuerySpec& StreamQuery(int client, int i, int cohort) {
  const int queries = static_cast<int>(g_mix.size());
  const int idx = (client / std::max(1, cohort) + i) % queries;
  return g_mix[static_cast<size_t>(idx)];
}

struct LevelResult {
  int concurrency = 0;
  int queries = 0;
  double wall_ms = 0;
  double qps = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  int64_t batches = 0;
  int64_t scans_saved = 0;
  int64_t dedup_hits = 0;
  double avg_batch = 0;
  // Failure accounting, echoed into the JSON so a run taken under
  // CRYSTAL_FAULT is self-describing (all zero in a clean run).
  int64_t errors = 0;
  int64_t timeouts = 0;
  int64_t rejected = 0;
  // Memory-governor accounting per level: governed high-water mark,
  // pressure evictions, admission rejections and degraded executions
  // (the last three are zero on unbudgeted runs).
  int64_t peak_bytes = 0;
  int64_t evictions = 0;
  int64_t mem_rejected = 0;
  int64_t degraded = 0;
};

/// Runs `total` queries at `concurrency` closed-loop clients against a
/// fresh server (max_batch = 1 disables sharing: the sequential-replay
/// baseline). Per-query latencies are client-observed (submit -> result).
LevelResult RunLevel(const ssb::Database& db, int concurrency, int total,
                     int max_batch, int threads, int cohort) {
  server::ServerOptions options;
  options.max_batch = max_batch;
  options.max_queue = std::max(256, 4 * concurrency);
  options.threads = threads;
  options.morsel_rows = bench::EnvInt("CRYSTAL_SERVER_MORSEL", 0);
  // Per-level governor accounting: re-seed the peak from current usage
  // and diff the eviction counter so each level reports its own pressure.
  crystal::MemoryBudget& budget = crystal::MemoryBudget::Process();
  budget.ResetPeak();
  const int64_t evictions_before =
      crystal::cpu::BuildCache::Process().entry_evictions();
  server::QueryServer qserver(options);
  qserver.AddDatabase("db", &db);

  const int per_client = std::max(1, total / concurrency);
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(concurrency));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(concurrency));
  WallTimer timer;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&qserver, &latencies, c, per_client, cohort] {
      auto& mine = latencies[static_cast<size_t>(c)];
      mine.reserve(static_cast<size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const server::QueryOutcome outcome =
            qserver.ExecuteSync(StreamQuery(c, i, cohort));
        if (outcome.status == server::QueryOutcome::Status::kOk) {
          mine.push_back(outcome.wall_ms);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  LevelResult r;
  r.wall_ms = timer.ElapsedMs();
  // Outcomes are delivered before a batch's counters are bumped, so the
  // last client can return while its batch is still booking stats.
  qserver.Drain();
  r.concurrency = concurrency;
  std::vector<double> all;
  for (const auto& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  r.queries = static_cast<int>(all.size());
  r.qps = r.wall_ms > 0 ? 1000.0 * r.queries / r.wall_ms : 0;
  r.p50 = Percentile(all, 0.50);
  r.p95 = Percentile(all, 0.95);
  r.p99 = Percentile(all, 0.99);
  const server::ServerStats stats = qserver.stats();
  r.batches = stats.batches;
  r.scans_saved = stats.scans_saved;
  r.dedup_hits = stats.dedup_hits;
  r.errors = stats.errors;
  r.timeouts = stats.timeouts;  // includes queue-shed expirations
  r.rejected = stats.rejected;
  r.peak_bytes = budget.peak();
  r.evictions = crystal::cpu::BuildCache::Process().entry_evictions() -
                evictions_before;
  r.mem_rejected = stats.mem_rejected;
  r.degraded = stats.degraded;
  r.avg_batch = stats.batches > 0
                    ? static_cast<double>(stats.completed) /
                          static_cast<double>(stats.batches)
                    : 0;
  return r;
}

std::vector<int> ParseLevels(const std::string& spec) {
  std::vector<int> levels;
  std::string token;
  for (size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ',') {
      if (!token.empty() && std::atoi(token.c_str()) > 0) {
        levels.push_back(std::atoi(token.c_str()));
      }
      token.clear();
    } else if (spec[i] != ' ') {
      token.push_back(spec[i]);
    }
  }
  return levels;
}

void WriteLevelJson(std::FILE* f, const LevelResult& r, const char* indent,
                    double sequential_qps) {
  std::fprintf(
      f,
      "%s{\"concurrency\": %d, \"queries\": %d, \"wall_ms\": %.2f, "
      "\"qps\": %.2f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
      "\"p99_ms\": %.3f, \"batches\": %lld, \"avg_batch\": %.2f, "
      "\"scans_saved\": %lld, \"dedup_hits\": %lld, "
      "\"errors\": %lld, \"timeouts\": %lld, \"rejected\": %lld, "
      "\"peak_bytes\": %lld, \"evictions\": %lld, "
      "\"mem_rejected\": %lld, \"degraded\": %lld, "
      "\"speedup_vs_sequential\": %.3f}",
      indent, r.concurrency, r.queries, r.wall_ms, r.qps, r.p50, r.p95,
      r.p99, static_cast<long long>(r.batches), r.avg_batch,
      static_cast<long long>(r.scans_saved),
      static_cast<long long>(r.dedup_hits),
      static_cast<long long>(r.errors),
      static_cast<long long>(r.timeouts),
      static_cast<long long>(r.rejected),
      static_cast<long long>(r.peak_bytes),
      static_cast<long long>(r.evictions),
      static_cast<long long>(r.mem_rejected),
      static_cast<long long>(r.degraded),
      sequential_qps > 0 ? r.qps / sequential_qps : 0);
}

/// Order-independent content digest (the driver JSON rule): sum of every
/// emitted aggregate value over all groups.
int64_t Checksum(const ssb::QueryResult& result) {
  if (!result.group_values.empty()) {
    int64_t sum = 0;
    for (int64_t v : result.group_values) sum += v;
    return sum;
  }
  if (!result.scalar_values.empty()) {
    int64_t sum = 0;
    for (int64_t v : result.scalar_values) sum += v;
    return sum;
  }
  return result.scalar;
}

/// Parses "ssb13" or "generated:SEED[:COUNT]" into the rotation pool.
/// Returns false (with a message on stderr) on a malformed spec.
bool BuildMix(const std::string& spec, std::string* mix_name,
              uint64_t* workload_seed, int* workload_count) {
  g_mix.clear();
  if (spec.empty() || spec == "ssb13") {
    for (ssb::QueryId id : ssb::kAllQueries) {
      g_mix.push_back(crystal::query::SsbSpec(id));
    }
    *mix_name = "ssb13";
    *workload_seed = 0;
    *workload_count = static_cast<int>(g_mix.size());
    return true;
  }
  const char kPrefix[] = "generated:";
  if (spec.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) {
    std::fprintf(stderr,
                 "server_throughput: bad mix '%s' (want ssb13 or "
                 "generated:SEED[:COUNT])\n",
                 spec.c_str());
    return false;
  }
  crystal::workload::GenOptions gen;
  char* end = nullptr;
  const char* tail = spec.c_str() + sizeof(kPrefix) - 1;
  gen.seed = std::strtoull(tail, &end, 10);
  if (end == tail || (*end != '\0' && *end != ':')) {
    std::fprintf(stderr, "server_throughput: bad mix seed in '%s'\n",
                 spec.c_str());
    return false;
  }
  if (*end == ':') {
    gen.count = std::atoi(end + 1);
    if (gen.count < 1) {
      std::fprintf(stderr, "server_throughput: bad mix count in '%s'\n",
                   spec.c_str());
      return false;
    }
  }
  for (const crystal::workload::GeneratedQuery& q :
       crystal::workload::GenerateWorkload(gen)) {
    g_mix.push_back(q.spec);
  }
  *mix_name = "generated";
  *workload_seed = gen.seed;
  *workload_count = gen.count;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const int sf = static_cast<int>(bench::EnvInt("CRYSTAL_SSB_SF", 1));
  const int fact_divisor =
      static_cast<int>(bench::EnvInt("CRYSTAL_SSB_FACT_DIVISOR", 1));
  const int threads =
      static_cast<int>(bench::EnvInt("CRYSTAL_THREADS", 0));
  const int total =
      static_cast<int>(bench::EnvInt("CRYSTAL_SERVER_QUERIES", 208));
  const int max_batch =
      static_cast<int>(bench::EnvInt("CRYSTAL_SERVER_BATCH", 16));
  const int cohort =
      static_cast<int>(bench::EnvInt("CRYSTAL_SERVER_COHORT", 4));
  const std::string storage = bench::EnvStr("CRYSTAL_STORAGE", "plain");
  const std::string levels_spec =
      bench::EnvStr("CRYSTAL_SERVER_LEVELS", "1,4,16,64");
  const std::string out_path =
      bench::EnvStr("CRYSTAL_BENCH_OUT", "BENCH_server.json");

  std::string mix_spec = bench::EnvStr("CRYSTAL_SERVER_MIX", "ssb13");
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mix=", 6) == 0) {
      mix_spec = argv[i] + 6;
    } else {
      std::fprintf(stderr, "server_throughput: unknown flag '%s'\n",
                   argv[i]);
      return 1;
    }
  }
  std::string mix_name;
  uint64_t workload_seed = 0;
  int workload_count = 0;
  if (!BuildMix(mix_spec, &mix_name, &workload_seed, &workload_count)) {
    return 1;
  }

  const std::vector<int> levels = ParseLevels(levels_spec);
  if (levels.empty()) {
    std::fprintf(stderr,
                 "server_throughput: CRYSTAL_SERVER_LEVELS is empty\n");
    return 1;
  }

  ssb::DatagenOptions gen;
  gen.scale_factor = sf;
  gen.fact_divisor = fact_divisor;
  if (!crystal::storage::EncodingFromName(storage, &gen.storage.encoding)) {
    std::fprintf(stderr, "server_throughput: unknown storage '%s'\n",
                 storage.c_str());
    return 1;
  }
  const ssb::Database db = ssb::Generate(gen);

  bench::PrintHeader(
      "Server throughput: shared-scan batching at concurrency {" +
          levels_spec + "}, SSB SF" + std::to_string(sf),
      "Concurrent-analytics throughput (cf. PAPERS.md shared-scan "
      "discussion); methodology in docs/SERVER.md",
      "SIMD: " +
          std::string(crystal::cpu::SimdEnabled() ? "enabled" : "disabled") +
          ", storage=" + storage + ", mix=" + mix_spec + " (" +
          std::to_string(g_mix.size()) + " specs), max_batch=" +
          std::to_string(max_batch) + ", cohort=" + std::to_string(cohort) +
          ", queries/level=" + std::to_string(total));

  // Warm pass: populate the process-wide BuildCache (and fault in the
  // fact columns) so every measured level starts from the same warm
  // steady state a long-running server lives in. Generated mixes are also
  // verified against the reference engine here — a sweep over wrong
  // answers is worthless, so a mismatch aborts before any level is timed.
  {
    server::ServerOptions options;
    options.threads = threads;
    server::QueryServer warm(options);
    warm.AddDatabase("db", &db);
    std::unique_ptr<crystal::engine::QueryEngine> reference;
    if (mix_name != "ssb13") {
      crystal::engine::EngineContext ctx;
      ctx.db = &db;
      reference =
          crystal::engine::EngineRegistry::Global().Create("reference", ctx);
    }
    for (const crystal::query::QuerySpec& spec : g_mix) {
      const server::QueryOutcome outcome = warm.ExecuteSync(spec);
      if (outcome.status != server::QueryOutcome::Status::kOk) {
        std::fprintf(stderr, "server_throughput: warmup '%s' failed: %s\n",
                     spec.name.c_str(), outcome.error.c_str());
        return 2;
      }
      if (reference == nullptr) continue;
      const ssb::QueryResult ref = reference->Execute(spec).result;
      if (Checksum(ref) != Checksum(outcome.result) ||
          ref.group_keys.size() != outcome.result.group_keys.size()) {
        std::fprintf(stderr,
                     "server_throughput: '%s' disagrees with the reference "
                     "engine (checksum %lld vs %lld)\n",
                     spec.name.c_str(),
                     static_cast<long long>(Checksum(outcome.result)),
                     static_cast<long long>(Checksum(ref)));
        return 2;
      }
    }
    if (reference != nullptr) {
      std::printf("generated mix verified: %zu specs match the reference "
                  "engine\n", g_mix.size());
    }
  }

  // Sequential replay: the same mixed stream, one query at a time, batch
  // formation disabled — what the pre-server engine could do for this
  // workload. The acceptance bar for sharing is qps@16 >= 2x this.
  const LevelResult sequential = RunLevel(db, 1, total, /*max_batch=*/1,
                                          threads, cohort);
  std::printf("sequential replay: %d queries, %.1f qps, p50 %.2f ms\n",
              sequential.queries, sequential.qps, sequential.p50);

  std::vector<LevelResult> results;
  TablePrinter t({"clients", "queries", "qps", "speedup", "p50 ms",
                  "p95 ms", "p99 ms", "avg batch", "scans saved", "dedup"});
  for (const int level : levels) {
    results.push_back(RunLevel(db, level, total, max_batch, threads, cohort));
    const LevelResult& r = results.back();
    t.AddRow({std::to_string(r.concurrency), std::to_string(r.queries),
              TablePrinter::Fmt(r.qps, 1),
              bench::Ratio(r.qps, sequential.qps),
              TablePrinter::Fmt(r.p50, 2), TablePrinter::Fmt(r.p95, 2),
              TablePrinter::Fmt(r.p99, 2),
              TablePrinter::Fmt(r.avg_batch, 1),
              std::to_string(r.scans_saved),
              std::to_string(r.dedup_hits)});
  }
  t.Print();

  // A run taken under fault injection measures failure behavior, not
  // performance: skip the shape gates (the JSON still records the run,
  // self-described by its "fault" key, and perf_diff refuses to gate on
  // it — docs/ROBUSTNESS.md).
  const std::string fault_spec = crystal::fault::ActiveSpec();
  if (!fault_spec.empty()) {
    std::printf(
        "\nNOTE: CRYSTAL_FAULT active (%s); shape checks skipped, run is "
        "not a perf baseline\n",
        fault_spec.c_str());
  }
  for (const LevelResult& r : results) {
    if (!fault_spec.empty()) break;
    if (r.concurrency >= 4) {
      bench::ShapeCheck(
          "concurrency " + std::to_string(r.concurrency) +
              " forms shared scans (scans_saved > 0)",
          r.scans_saved > 0);
      bench::ShapeCheck(
          "concurrency " + std::to_string(r.concurrency) +
              " throughput beats sequential replay",
          r.qps > sequential.qps);
    }
    if (r.concurrency == 16) {
      bench::ShapeCheck(
          "concurrency 16 qps >= 2x sequential replay (acceptance bar)",
          r.qps >= 2 * sequential.qps);
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "server_throughput: cannot open '%s'\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"server_throughput\",\n");
  std::fprintf(f, "  \"engine\": \"shared-scan-server\",\n");
  std::fprintf(f, "  \"scale_factor\": %d,\n", db.scale_factor);
  std::fprintf(f, "  \"fact_divisor\": %d,\n", db.fact_divisor);
  std::fprintf(f, "  \"fact_rows\": %lld,\n",
               static_cast<long long>(db.lo.rows));
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(db.seed));
  std::fprintf(f, "  \"threads\": %d,\n",
               threads > 0 ? threads : crystal::ThreadPool::DefaultThreads());
  std::fprintf(f, "  \"simd\": %s,\n",
               crystal::cpu::SimdEnabled() ? "true" : "false");
  std::fprintf(f, "  \"storage\": \"%s\",\n", storage.c_str());
  std::fprintf(f, "  \"max_batch\": %d,\n", max_batch);
  std::fprintf(f, "  \"queries_per_level\": %d,\n", total);
  std::fprintf(f, "  \"mix\": \"%s-cohort%d\",\n", mix_name.c_str(), cohort);
  std::fprintf(f, "  \"cohort\": %d,\n", cohort);
  // Generated-mix provenance (0/size for the canonical ssb13 mix): two
  // server runs are only comparable when their traffic pools match, so
  // perf_diff folds these into its settings fingerprint.
  std::fprintf(f, "  \"workload_seed\": %llu,\n",
               static_cast<unsigned long long>(workload_seed));
  std::fprintf(f, "  \"workload_count\": %d,\n", workload_count);
  // Memory governor limit in force (0 = unenforced). Budgeted and
  // unbudgeted runs are not comparable — degradation and eviction churn
  // are the point, not noise — so perf_diff folds this into its settings
  // fingerprint alongside workload_seed.
  std::fprintf(f, "  \"mem_budget\": %lld,\n",
               static_cast<long long>(crystal::MemoryBudget::Process().limit()));
  // The active fault schedule, empty in a clean run. perf_diff treats any
  // non-empty value as "not a perf measurement" and refuses to gate on
  // this file in either position (docs/ROBUSTNESS.md).
  std::fprintf(f, "  \"fault\": \"%s\",\n", fault_spec.c_str());
  std::fprintf(f, "  \"sequential\": ");
  WriteLevelJson(f, sequential, "", 0);
  std::fprintf(f, ",\n  \"levels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    WriteLevelJson(f, results[i], "    ", sequential.qps);
    std::fprintf(f, "%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "server_throughput: error writing '%s'\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("\nBench JSON written to %s\n", out_path.c_str());
  return 0;
}
