// crystaldb: unified SSB driver. Runs any subset of the 13 Star Schema
// Benchmark queries on any subset of the registered engines (see
// --list-engines), cross-checks that every engine returns identical
// results, and prints a JSON report with per-query wall times and the
// timing model's predicted kernel times.
//
// With --serve it instead becomes a long-running query service: line-
// delimited QuerySpec text on stdin, JSON results on stdout, concurrent
// in-flight queries fused into shared scans (docs/SERVER.md).
//
//   crystaldb --engines=all --queries=all --sf=1
//   crystaldb --engines=vectorized-cpu,coprocessor --queries=q2.1,q4
//             --sf=20 --fact-divisor=20 --out=report.json
//   crystaldb --serve --sf=1,10 --serve-check
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/thread_pool.h"
#include "driver/driver.h"
#include "engine/registry.h"
#include "query/parser.h"
#include "query/ssb_specs.h"
#include "server/serve.h"
#include "ssb/datagen.h"
#include "storage/encoded_column.h"
#include "workload/workload.h"

namespace {

constexpr const char kUsage[] = R"(crystaldb - unified SSB multi-engine driver

Usage: crystaldb [flags]

Flags:
  --engines=LIST     Comma-separated engine names or aliases, or "all"
                     (default). `--list-engines` prints the registry.
  --queries=LIST     Comma-separated queries, or "all" (default). A token
                     selects one query (q2.1) or a whole flight (q2).
  --adhoc=SPEC       Ad-hoc declarative query in the QuerySpec grammar (see
                     docs/QUERIES.md), e.g. --adhoc="sum revenue join
                     supplier on suppkey filter s_region = 2". Repeatable;
                     runs after --queries (alone when --queries is absent)
                     and is cross-checked like any canonical query. Parse
                     errors print a caret diagnostic on stderr.
  --adhoc-file=FILE  Load ad-hoc queries from a workload suite file: one
                     `name: spec` line per query, '#' comments ignored —
                     the format tools/workload_gen emits (docs/WORKLOADS.md).
                     Repeatable; combines with --adhoc.
  --sf=N             SSB scale factor (default 1). With --serve a comma
                     list (--sf=1,10) loads several resident databases,
                     addressable per request as @sf1, @sf10.
  --fact-divisor=N   Fact-table subsampling divisor: the fact table holds
                     6M*SF/N rows while dimensions keep full SF cardinality;
                     predicted times are scaled back exactly (default 1).
  --seed=N           Datagen seed (default 20200302). The seed actually used
                     is recorded in the database and echoed in the report.
  --storage=NAME     Fact-column storage encoding: plain (4-byte arrays,
                     default) or packed (bit-packed with per-column widths;
                     see docs/STORAGE.md). Results are identical either way;
                     modeled traffic and PCIe volume shrink with packed.
  --threads=N        Host threads for data generation and host-threaded
                     engines (default 0 = hardware concurrency).
  --repeat=N         Timed executions per engine x query (default 1).
                     wall_ms in the report is the median across them and
                     wall_min_ms the minimum — the perf-measurement mode
                     documented in docs/PERF.md.
  --warmup=K         Untimed executions before the timed ones (default 0).
  --profile=NAME     Device profile for simulated engines: v100 (default)
                     or skylake (Table 2 numbers).
  --block-threads=N  Tile geometry override for simulated kernels:
                     threads per block (default 128).
  --items-per-thread=N
                     Tile geometry override: items per thread (default 4).
  --no-check         Skip the cross-check against the reference engine.
  --out=FILE         Write the JSON report to FILE instead of stdout
                     (--output=FILE is accepted as a synonym).
  --list-engines     Print registered engines (name, aliases, description)
                     and exit.
  --list-queries     Print the 13 canonical queries and the TPC-H analogs
                     (name, referenced fact columns, full spec in the
                     ad-hoc grammar) and exit.
  --help             Show this message.

Server mode (docs/SERVER.md):
  --serve            Run as a long-running query service on stdin/stdout:
                     one request per line — a canonical query name (q2.1)
                     or an ad-hoc spec, optionally prefixed with @DATABASE
                     and/or timeout=MS — one JSON response per line, in
                     completion order. Concurrent in-flight queries over
                     one database fuse into shared scans. Honors --sf,
                     --fact-divisor, --seed, --storage, --threads.
  --serve-batch=N    Max queries fused into one shared scan (default 16).
  --serve-queue=N    Admission queue bound; beyond it requests are
                     rejected, not queued (default 256).
  --serve-timeout=MS Default per-query deadline in ms; 0 = none (default).
  --serve-rows=N     Max group rows inlined per response (default 1000).
  --serve-check      Cross-check every result against the reference
                     interpreter; any mismatch exits 2.
  --serve-watchdog=MS  Flag batches whose morsel heartbeat stalls for MS
                     ms (stderr + server_stats; default 5000, 0 = off).
  --mem-budget=SPEC  Memory governor limit: bytes with an optional k/m/g
                     binary suffix ("256m", "2g"); 0 = account but never
                     enforce. Default: inherit CRYSTAL_MEM_BUDGET, else
                     unenforced. See docs/ROBUSTNESS.md, "Memory
                     governance".

  SIGINT/SIGTERM shut the service down gracefully: input stops, in-flight
  queries drain (each still gets its response line), the final
  server_stats line is emitted, exit status 0. Failure modes, the
  retryable contract, and the CRYSTAL_FAULT injection grammar are in
  docs/ROBUSTNESS.md.

Exit status: 0 on success with matching results, 1 on flag errors or
invalid --adhoc specs, 2 when engine results disagree (any engine differing
from any other, or from the tuple-at-a-time reference unless --no-check; in
server mode: any --serve-check mismatch) — so the driver doubles as an
integration check in scripts and CI.
)";

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  return false;
}

int FlagError(const std::string& message) {
  std::fprintf(stderr, "crystaldb: %s\n", message.c_str());
  std::fprintf(stderr, "Try 'crystaldb --help'.\n");
  return 1;
}

void PrintQuerySpecLine(const crystal::query::QuerySpec& spec) {
  std::printf("  %-7s [%d fact columns]\n", spec.name.c_str(),
              crystal::query::FactColumnsReferenced(spec));
  std::printf("          %s\n",
              crystal::query::FormatQuerySpec(spec).c_str());
}

int ListQueries() {
  std::printf(
      "Canonical SSB queries (crystaldb --queries=...), as specs runnable "
      "via --adhoc:\n\n");
  for (crystal::ssb::QueryId id : crystal::ssb::kAllQueries) {
    PrintQuerySpecLine(crystal::query::SsbSpec(id));
  }
  std::printf(
      "\nTPC-H analogs on the SSB schema (docs/QUERIES.md), runnable via "
      "--adhoc with the\nspec text below; seeded suites of the same shapes "
      "come from tools/workload_gen:\n\n");
  PrintQuerySpecLine(crystal::query::TpchQ1Analog());
  PrintQuerySpecLine(crystal::query::TpchQ6Analog());
  return 0;
}

int ListEngines() {
  const auto& registry = crystal::engine::EngineRegistry::Global();
  std::printf("Registered engines (crystaldb --engines=...):\n\n");
  for (const crystal::engine::EngineRegistration* e : registry.All()) {
    std::string aliases;
    for (const std::string& alias : e->aliases) {
      aliases += aliases.empty() ? "" : ", ";
      aliases += alias;
    }
    std::printf("  %-16s %s\n", e->name.c_str(),
                aliases.empty() ? "" : ("aliases: " + aliases).c_str());
    std::printf("                   %s\n", e->description.c_str());
  }
  return 0;
}

}  // namespace

namespace {

/// Parses a whole flag value as a number >= `min` that fits T: "5x",
/// "abc", "", " 5" and out-of-range values fail instead of being read as
/// a prefix or as 0.
template <typename T>
bool ParseNumber(const char* value, T min, T* out) {
  if (value == nullptr || *value == '\0' ||
      std::isspace(static_cast<unsigned char>(*value))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_integral_v<T>) {
    const long long v = std::strtoll(value, &end, 10);
    if (*end != '\0' || errno == ERANGE || v < min ||
        v > std::numeric_limits<T>::max()) {
      return false;
    }
    *out = static_cast<T>(v);
  } else {
    const double v = std::strtod(value, &end);
    if (*end != '\0' || errno == ERANGE || !(v >= min) || !std::isfinite(v)) {
      return false;
    }
    *out = v;
  }
  return true;
}

/// Parses "1" or "1,10" into positive scale factors.
bool ParseSfList(const char* value, std::vector<int>* out) {
  out->clear();
  std::string token;
  for (const char* p = value;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (token.empty()) return false;
      int sf = 0;
      if (!ParseNumber(token.c_str(), 1, &sf)) return false;
      out->push_back(sf);
      token.clear();
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return !out->empty();
}

/// Server-style error JSON for one invalid --adhoc spec, matching the
/// shape Serve() emits for a malformed request line (docs/SERVER.md).
void PrintAdhocErrorJson(int index, const std::string& input,
                         const std::string& error) {
  std::string json = "{\"query\": \"adhoc" + std::to_string(index) +
                     "\", \"status\": \"error\", \"error\": ";
  crystal::server::AppendJsonString(&json, error);
  json += ", \"input\": ";
  crystal::server::AppendJsonString(&json, input);
  json += "}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  crystal::driver::Options options;
  std::string output_path;
  bool queries_given = false;
  bool serve = false;
  crystal::server::ServeConfig serve_config;
  // Service default: a stalled shared scan should be visible within a few
  // seconds (--serve-watchdog overrides; embedded QueryServer uses leave
  // the watchdog opt-in).
  serve_config.server.watchdog_ms = 5000;
  std::vector<int> scale_factors{1};
  int adhoc_count = 0;
  int adhoc_invalid = 0;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    std::string error;
    if (ParseFlag(arg, "--help", &value) ||
        std::strcmp(arg, "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (ParseFlag(arg, "--list-engines", &value)) {
      return ListEngines();
    }
    if (ParseFlag(arg, "--list-queries", &value)) {
      return ListQueries();
    }
    if (ParseFlag(arg, "--engines", &value)) {
      if (value == nullptr) return FlagError("--engines needs a value");
      if (!crystal::driver::ParseEngineList(value, &options.engines, &error))
        return FlagError(error);
    } else if (ParseFlag(arg, "--queries", &value)) {
      if (value == nullptr) return FlagError("--queries needs a value");
      if (!crystal::driver::ParseQueryList(value, &options.queries, &error))
        return FlagError(error);
      queries_given = true;
    } else if (ParseFlag(arg, "--adhoc-file", &value)) {
      if (value == nullptr) return FlagError("--adhoc-file needs a path");
      std::FILE* f = std::fopen(value, "rb");
      if (f == nullptr)
        return FlagError(std::string("cannot open '") + value + "'");
      std::string text;
      char buf[4096];
      for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
        text.append(buf, n);
      std::fclose(f);
      std::vector<crystal::workload::GeneratedQuery> suite;
      if (!crystal::workload::ParseSuite(text, &suite, &error))
        return FlagError(std::string(value) + ": " + error);
      for (crystal::workload::GeneratedQuery& q : suite)
        options.adhoc.push_back(std::move(q.spec));
    } else if (ParseFlag(arg, "--adhoc", &value)) {
      if (value == nullptr) return FlagError("--adhoc needs a spec");
      // Batch semantics: every spec is validated and every failure
      // diagnosed (server-style error JSON + a caret diagnostic on
      // stderr), then exit 1 below — a bad spec in a list is never
      // silently skipped.
      ++adhoc_count;
      crystal::query::QuerySpec spec;
      crystal::query::ParseDiagnostic diag;
      if (!crystal::query::ParseQuerySpec(value, &spec, &diag)) {
        ++adhoc_invalid;
        error = diag.message;
        if (diag.position != crystal::query::ParseDiagnostic::kNoPosition)
          error += " (at offset " + std::to_string(diag.position) + ")";
        PrintAdhocErrorJson(adhoc_count, value, error);
        std::fprintf(stderr, "crystaldb: --adhoc spec %d is invalid\n%s\n",
                     adhoc_count,
                     crystal::query::CaretDiagnostic(value, diag).c_str());
        continue;
      }
      options.adhoc.push_back(std::move(spec));
    } else if (ParseFlag(arg, "--sf", &value)) {
      if (value == nullptr || !ParseSfList(value, &scale_factors))
        return FlagError("--sf needs a positive integer (or a comma list "
                         "with --serve)");
      options.scale_factor = scale_factors.front();
    } else if (ParseFlag(arg, "--serve", &value)) {
      serve = true;
    } else if (ParseFlag(arg, "--serve-batch", &value)) {
      if (!ParseNumber(value, 1, &serve_config.server.max_batch))
        return FlagError("--serve-batch needs a positive integer");
    } else if (ParseFlag(arg, "--serve-queue", &value)) {
      if (!ParseNumber(value, 1, &serve_config.server.max_queue))
        return FlagError("--serve-queue needs a positive integer");
    } else if (ParseFlag(arg, "--serve-timeout", &value)) {
      if (!ParseNumber(value, 0.0, &serve_config.server.default_timeout_ms))
        return FlagError("--serve-timeout needs a non-negative number");
    } else if (ParseFlag(arg, "--serve-rows", &value)) {
      if (!ParseNumber(value, 0, &serve_config.max_result_rows))
        return FlagError("--serve-rows needs a non-negative integer");
    } else if (ParseFlag(arg, "--serve-check", &value)) {
      serve_config.check = true;
    } else if (ParseFlag(arg, "--serve-watchdog", &value)) {
      if (!ParseNumber(value, 0.0, &serve_config.server.watchdog_ms))
        return FlagError("--serve-watchdog needs a non-negative number");
    } else if (ParseFlag(arg, "--mem-budget", &value)) {
      int64_t budget_bytes = 0;
      if (value == nullptr ||
          !crystal::ParseMemBytes(value, &budget_bytes)) {
        return FlagError(
            "--mem-budget needs bytes with an optional k/m/g suffix");
      }
      // Install on the process budget directly so standalone driver runs
      // are governed too, not just --serve (the server ctor re-installs
      // the same limit via ServerOptions).
      crystal::MemoryBudget::Process().set_limit(budget_bytes);
      serve_config.server.memory_budget_bytes = budget_bytes;
    } else if (ParseFlag(arg, "--fact-divisor", &value)) {
      if (!ParseNumber(value, 1, &options.fact_divisor))
        return FlagError("--fact-divisor needs a positive integer");
    } else if (ParseFlag(arg, "--seed", &value)) {
      if (value == nullptr) return FlagError("--seed needs a value");
      char* end = nullptr;
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0')
        return FlagError("--seed needs an unsigned integer");
    } else if (ParseFlag(arg, "--storage", &value)) {
      if (value == nullptr) return FlagError("--storage needs a value");
      if (!crystal::driver::ParseStorageName(value, &error))
        return FlagError(error);
      options.storage = value;
    } else if (ParseFlag(arg, "--threads", &value)) {
      if (!ParseNumber(value, 0, &options.threads))
        return FlagError("--threads needs a non-negative integer");
    } else if (ParseFlag(arg, "--repeat", &value)) {
      if (!ParseNumber(value, 1, &options.repeat))
        return FlagError("--repeat needs a positive integer");
    } else if (ParseFlag(arg, "--warmup", &value)) {
      if (!ParseNumber(value, 0, &options.warmup))
        return FlagError("--warmup needs a non-negative integer");
    } else if (ParseFlag(arg, "--profile", &value)) {
      if (value == nullptr) return FlagError("--profile needs a value");
      if (!crystal::driver::ParseProfileName(value, &error))
        return FlagError(error);
      options.profile = value;
    } else if (ParseFlag(arg, "--block-threads", &value)) {
      if (!ParseNumber(value, 1, &options.block_threads))
        return FlagError("--block-threads needs a positive integer");
    } else if (ParseFlag(arg, "--items-per-thread", &value)) {
      if (!ParseNumber(value, 1, &options.items_per_thread))
        return FlagError("--items-per-thread needs a positive integer");
    } else if (ParseFlag(arg, "--no-check", &value)) {
      options.check_against_reference = false;
    } else if (ParseFlag(arg, "--output", &value) ||
               ParseFlag(arg, "--out", &value)) {
      if (value == nullptr) return FlagError("--out needs a path");
      output_path = value;
    } else {
      return FlagError(std::string("unknown flag '") + arg + "'");
    }
  }

  if (adhoc_invalid > 0) {
    std::fprintf(stderr, "crystaldb: %d of %d --adhoc spec(s) invalid\n",
                 adhoc_invalid, adhoc_count);
    return 1;
  }
  if (!serve && scale_factors.size() > 1) {
    return FlagError("--sf accepts a comma list only with --serve");
  }

  if (serve) {
    // Generate every resident database up front (named sf<N>), then hand
    // stdin/stdout to the protocol loop. --threads feeds generation and the
    // server's scan pool; 0 defers to CRYSTAL_THREADS / the hardware.
    serve_config.server.threads = options.threads;
    for (size_t a = 0; a < scale_factors.size(); ++a) {
      for (size_t b = a + 1; b < scale_factors.size(); ++b) {
        if (scale_factors[a] == scale_factors[b])
          return FlagError("--sf lists the same scale factor twice");
      }
    }
    crystal::storage::StorageOptions storage_options;
    {
      std::string error;
      if (!crystal::driver::ParseStorageName(options.storage, &error))
        return FlagError(error);
      crystal::storage::EncodingFromName(options.storage,
                                         &storage_options.encoding);
    }
    std::vector<crystal::ssb::Database> databases;
    databases.reserve(scale_factors.size());
    std::vector<std::pair<std::string, const crystal::ssb::Database*>> dbs;
    {
      crystal::ThreadPool gen_pool(options.threads);
      for (const int sf : scale_factors) {
        crystal::ssb::DatagenOptions gen;
        gen.scale_factor = sf;
        gen.fact_divisor = options.fact_divisor;
        gen.seed = options.seed;
        gen.storage = storage_options;
        databases.push_back(crystal::ssb::Generate(gen, gen_pool));
      }
    }
    for (size_t d = 0; d < databases.size(); ++d) {
      dbs.emplace_back("sf" + std::to_string(scale_factors[d]),
                       &databases[d]);
    }
    std::fprintf(stderr,
                 "crystaldb: serving %zu database(s) on stdin/stdout "
                 "(one request per line; docs/SERVER.md)\n",
                 dbs.size());
    // Graceful SIGINT/SIGTERM: stop reading, drain in-flight queries,
    // emit the final server_stats line, exit 0 (docs/ROBUSTNESS.md).
    crystal::server::InstallSignalHandlers();
    return crystal::server::Serve(std::cin, std::cout, dbs, serve_config);
  }

  // `--adhoc` without `--queries` runs only the ad-hoc specs; the default
  // all-13 list applies when neither flag is present.
  if (!options.adhoc.empty() && !queries_given) options.queries.clear();

  const crystal::driver::Report report = crystal::driver::Run(options);
  const std::string json = crystal::driver::ToJson(report);

  if (output_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(output_path.c_str(), "w");
    if (f == nullptr) return FlagError("cannot open '" + output_path + "'");
    const bool write_ok = std::fputs(json.c_str(), f) >= 0;
    if (std::fclose(f) != 0 || !write_ok)
      return FlagError("error writing '" + output_path + "'");
    std::fprintf(stderr, "crystaldb: report written to %s\n",
                 output_path.c_str());
  }

  if (!report.all_results_match) {
    std::fprintf(stderr, "crystaldb: ENGINE RESULTS DISAGREE (see report)\n");
    return 2;
  }
  return 0;
}
