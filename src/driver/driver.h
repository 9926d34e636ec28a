#ifndef CRYSTAL_DRIVER_DRIVER_H_
#define CRYSTAL_DRIVER_DRIVER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "query/query_spec.h"
#include "ssb/queries.h"
#include "ssb/schema.h"

namespace crystal::driver {

/// Engines are addressed by their registry names (engine/registry.h); the
/// driver holds no engine list of its own. `crystaldb --list-engines`
/// prints the live set. Canonical built-ins: materializing,
/// vectorized-cpu, crystal-gpu-sim, reference, coprocessor.

/// Parses a comma-separated engine list, or "all" (every registered
/// engine). Tokens are registry names or aliases ("mat", "cpu", "gpu",
/// ...); output holds canonical names. Returns false (and fills *error) on
/// unknown tokens or an empty spec. Duplicates are collapsed (also when
/// two aliases name one engine), order preserved.
bool ParseEngineList(std::string_view spec, std::vector<std::string>* out,
                     std::string* error);

/// Parses a comma-separated query list, or "all". Tokens may name a single
/// query ("q2.1", "2.1", "q21") or a whole flight ("q2", "flight2").
/// Returns false (and fills *error) on unknown tokens.
bool ParseQueryList(std::string_view spec, std::vector<ssb::QueryId>* out,
                    std::string* error);

/// One driver invocation: which queries on which engines at which scale.
struct Options {
  /// Canonical registry engine names; empty = every registered engine.
  std::vector<std::string> engines;
  std::vector<ssb::QueryId> queries{ssb::kAllQueries.begin(),
                                    ssb::kAllQueries.end()};
  /// Ad-hoc declarative queries run after the canonical ones (parsed from
  /// `crystaldb --adhoc=...` via query::ParseQuerySpec). Specs must be
  /// valid; unnamed specs are labeled adhoc1, adhoc2, ... in the report.
  std::vector<query::QuerySpec> adhoc;
  int scale_factor = 1;
  /// Fact subsampling divisor (see Database::fact_divisor); 1 = full scale.
  int fact_divisor = 1;
  /// Fact-column storage encoding: "plain" (4-byte arrays) or "packed"
  /// (bit-packed, storage::EncodedColumn). Every engine consumes packed
  /// columns natively; results are identical across modes.
  std::string storage = "plain";
  uint64_t seed = 20200302;
  /// Host threads for data generation (Run(options) only) and for
  /// host-threaded engines; 0 = hardware concurrency.
  int threads = 0;
  /// Timed executions per engine x query; wall_ms is the median and
  /// wall_min_ms the minimum across them (perf-measurement mode).
  int repeat = 1;
  /// Untimed executions per engine x query before the timed ones (warms
  /// caches, the thread pool, and lazily built structures).
  int warmup = 0;
  /// Device profile for simulated engines: "" keeps the context default
  /// (V100); "v100" and "skylake" select the two Table 2 profiles.
  std::string profile;
  /// Tile-geometry overrides for simulated kernels; 0 keeps the paper
  /// default (128 threads x 4 items).
  int block_threads = 0;
  int items_per_thread = 0;
  /// Cross-check every engine result against the tuple-at-a-time reference
  /// engine in addition to the engine-vs-engine comparison.
  bool check_against_reference = true;
};

/// Resolves a device-profile name ("v100", "skylake", plus natural
/// synonyms) for Options::profile. Returns false (and fills *error) on
/// unknown names. An empty name is valid and selects the default profile.
bool ParseProfileName(std::string_view name, std::string* error);

/// Resolves a storage-encoding name for Options::storage ("plain",
/// "packed"). Returns false (and fills *error) on unknown names.
bool ParseStorageName(std::string_view name, std::string* error);

/// Per-engine execution record for one query (RunStats plus identity and
/// the result digest; see engine/query_engine.h for field semantics).
struct EngineRunReport {
  std::string engine;  // canonical registry name
  /// Honest host wall-clock of the engine call, milliseconds: the median
  /// across Options::repeat timed runs (the run itself when repeat == 1).
  double wall_ms = 0;
  /// Minimum wall-clock across the timed runs (== wall_ms when repeat == 1).
  double wall_min_ms = 0;
  /// Predicted kernel milliseconds from the sim timing model, scaled to the
  /// full fact-table size (simulated engines only; < 0 means not modeled).
  double predicted_total_ms = -1;
  double predicted_build_ms = -1;  // dimension hash-table builds
  double predicted_probe_ms = -1;  // fact-linear probe/aggregate kernels
  /// Coprocessor costing split (< 0 when the engine models no transfer).
  double transfer_ms = -1;
  double kernel_ms = -1;
  /// Full-scale referenced fact bytes shipped over PCIe (coprocessor only).
  int64_t fact_bytes_shipped = 0;
  /// Host-measured phase split (host engines that report it; < 0
  /// otherwise): medians across the timed runs of build-side fetch/build
  /// wall vs fused probe+aggregate wall.
  double host_build_ms = -1;
  double host_probe_ms = -1;
  /// Build-side cache counters summed over the timed runs (-1 = engine has
  /// no cache). With warmup > 0 a healthy cache shows hits == repeat *
  /// joins and builds == 0: every build side was built before timing began.
  int64_t build_cache_hits = -1;
  int64_t build_cache_builds = -1;
  /// Result digest: the scalar aggregate (flight 1) or the sum over group
  /// values, plus the group count. Full results are compared in-process.
  int64_t checksum = 0;
  int64_t groups = 0;
};

/// One query across all requested engines.
struct QueryReport {
  /// The executed declarative spec; spec.name is the report label ("q2.1"
  /// for canonical queries, "adhocN" or the caller-given name otherwise).
  query::QuerySpec spec;
  /// SSB flight 1..4 for canonical queries, 0 for ad-hoc specs.
  int flight = 0;
  bool adhoc = false;
  std::vector<EngineRunReport> runs;
  /// All engines (and the reference, when enabled) agree on the result.
  bool results_match = true;
  /// Human-readable mismatch descriptions (empty when results_match).
  std::vector<std::string> mismatches;
};

/// Full driver report; serialized to JSON by ToJson.
struct Report {
  Options options;
  /// Resolved per-engine context knobs actually used (profile defaults to
  /// V100, launch to the paper's 128x4 tile) — echoed for reproducibility.
  std::string profile_name;
  /// Storage encoding the executed database actually carries ("plain" /
  /// "packed") — echoed from the database, not the options, so reports
  /// against a caller-provided database stay truthful.
  std::string storage = "plain";
  int block_threads = 0;
  int items_per_thread = 0;
  int64_t fact_rows = 0;             // rows actually executed
  int64_t full_scale_fact_rows = 0;  // rows this run stands in for
  std::vector<QueryReport> queries;
  bool all_results_match = true;
  double total_wall_ms = 0;  // wall time of all engine runs (excl. datagen)
  double datagen_wall_ms = 0;
};

/// Generates the database per `options`, runs every requested query on every
/// requested engine, cross-checks results, and fills a Report. Aborts via
/// CRYSTAL_CHECK on engine names that are not in the registry — validate
/// user input with ParseEngineList first.
Report Run(const Options& options);

/// As above but against a caller-provided database: `options.scale_factor`,
/// `fact_divisor`, and `seed` are ignored and the database's own recorded
/// values are reported, so reports are reproducible by construction. Used
/// by tests to share one generated instance.
Report Run(const Options& options, const ssb::Database& db);

/// Serializes a Report as pretty-printed JSON (stable key order).
std::string ToJson(const Report& report);

}  // namespace crystal::driver

#endif  // CRYSTAL_DRIVER_DRIVER_H_
