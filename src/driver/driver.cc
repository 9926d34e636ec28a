#include "driver/driver.h"

#include <algorithm>
#include <cctype>
#include <numeric>
#include <sstream>

#include <memory>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "query/parser.h"
#include "query/ssb_specs.h"
#include "ssb/datagen.h"

namespace crystal::driver {

namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::vector<std::string> SplitCommas(std::string_view spec) {
  std::vector<std::string> tokens;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view tok = spec.substr(start, comma - start);
    while (!tok.empty() && tok.front() == ' ') tok.remove_prefix(1);
    while (!tok.empty() && tok.back() == ' ') tok.remove_suffix(1);
    if (!tok.empty()) tokens.emplace_back(tok);
    start = comma + 1;
  }
  return tokens;
}

/// Maps a user profile name to the Table 2 device profile. Returns false on
/// unknown names; empty input keeps `*out` untouched (context default).
bool ResolveProfile(std::string_view name, sim::DeviceProfile* out,
                    std::string* error) {
  const std::string lower = Lower(name);
  if (lower.empty()) return true;
  if (lower == "v100" || lower == "gpu") {
    *out = sim::DeviceProfile::V100();
    return true;
  }
  if (lower == "skylake" || lower == "skylake-i7" || lower == "cpu") {
    *out = sim::DeviceProfile::SkylakeI7();
    return true;
  }
  if (error != nullptr) {
    *error = "unknown profile '" + std::string(name) +
             "' (expected v100 or skylake)";
  }
  return false;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int64_t Checksum(const ssb::QueryResult& result) {
  if (result.group_values.empty()) {
    if (result.scalar_values.empty()) return result.scalar;
    return std::accumulate(result.scalar_values.begin(),
                           result.scalar_values.end(), int64_t{0});
  }
  return std::accumulate(result.group_values.begin(),
                         result.group_values.end(), int64_t{0});
}

/// "q2.1" for kQ21 etc.; shared canonical spelling with ssb::QueryName.
ssb::QueryId QueryForName(std::string_view name, bool* ok) {
  for (ssb::QueryId id : ssb::kAllQueries) {
    if (ssb::QueryName(id) == name) {
      *ok = true;
      return id;
    }
  }
  *ok = false;
  return ssb::QueryId::kQ11;
}

void AppendUnique(std::vector<ssb::QueryId>* out, ssb::QueryId id) {
  if (std::find(out->begin(), out->end(), id) == out->end())
    out->push_back(id);
}

// JSON helpers: the report schema is small and flat enough that a
// hand-rolled emitter with stable key order beats a dependency.
class JsonWriter {
 public:
  void BeginObject() { OpenContainer('{'); }
  void BeginObject(std::string_view key) {
    Key(key);
    OpenRaw('{');
  }
  void EndObject() { Close('}'); }
  void BeginArray() { OpenContainer('['); }
  void BeginArray(std::string_view key) {
    Key(key);
    OpenRaw('[');
  }
  void EndArray() { Close(']'); }
  /// Opens an object as an array element.
  void BeginArrayObject() { OpenContainer('{'); }

  void Field(std::string_view key, std::string_view value) {
    Key(key);
    String(value);
    need_comma_ = true;
  }
  void Field(std::string_view key, const char* value) {
    Field(key, std::string_view(value));
  }
  void Field(std::string_view key, bool value) {
    Key(key);
    out_ << (value ? "true" : "false");
    need_comma_ = true;
  }
  void Field(std::string_view key, int64_t value) {
    Key(key);
    out_ << value;
    need_comma_ = true;
  }
  void Field(std::string_view key, uint64_t value) {
    Key(key);
    out_ << value;
    need_comma_ = true;
  }
  void Field(std::string_view key, int value) {
    Field(key, static_cast<int64_t>(value));
  }
  void Field(std::string_view key, double value) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out_ << buf;
    need_comma_ = true;
  }
  /// Milliseconds field that may be unavailable (emitted as null).
  void MsField(std::string_view key, double ms) {
    if (ms < 0) {
      Key(key);
      out_ << "null";
      need_comma_ = true;
    } else {
      Field(key, ms);
    }
  }
  void ArrayString(std::string_view value) {
    Separator();
    String(value);
    need_comma_ = true;
  }

  std::string Take() {
    out_ << '\n';
    return out_.str();
  }

 private:
  void OpenContainer(char c) {
    Separator();
    OpenRaw(c);
  }
  void OpenRaw(char c) {
    out_ << c;
    need_comma_ = false;
    ++depth_;
  }
  void Close(char c) {
    --depth_;
    out_ << '\n';
    Indent();
    out_ << c;
    need_comma_ = true;
  }
  void Key(std::string_view key) {
    Separator();
    String(key);
    out_ << ": ";
    need_comma_ = false;
  }
  /// Comma after the previous sibling (when any), then newline + indent.
  void Separator() {
    if (need_comma_) out_ << ',';
    if (depth_ > 0) {
      out_ << '\n';
      Indent();
    }
  }
  void Indent() {
    for (int i = 0; i < depth_ * 2; ++i) out_ << ' ';
  }
  void String(std::string_view s) {
    out_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << c;
    }
    out_ << '"';
  }

  std::ostringstream out_;
  int depth_ = 0;
  bool need_comma_ = false;
};

}  // namespace

bool ParseProfileName(std::string_view name, std::string* error) {
  sim::DeviceProfile ignored;
  return ResolveProfile(name, &ignored, error);
}

bool ParseStorageName(std::string_view name, std::string* error) {
  storage::Encoding ignored;
  if (storage::EncodingFromName(Lower(name), &ignored)) return true;
  if (error != nullptr) {
    *error = "unknown storage encoding '" + std::string(name) +
             "' (expected plain or packed)";
  }
  return false;
}

bool ParseEngineList(std::string_view spec, std::vector<std::string>* out,
                     std::string* error) {
  const engine::EngineRegistry& registry = engine::EngineRegistry::Global();
  out->clear();
  auto append = [&](const std::string& name) {
    if (std::find(out->begin(), out->end(), name) == out->end())
      out->push_back(name);
  };
  for (const std::string& tok : SplitCommas(spec)) {
    if (Lower(tok) == "all") {
      for (const std::string& name : registry.Names()) append(name);
      continue;
    }
    const engine::EngineRegistration* entry = registry.Find(tok);
    if (entry == nullptr) {
      if (error != nullptr) {
        std::string known;
        for (const std::string& name : registry.Names()) {
          if (!known.empty()) known += ", ";
          known += name;
        }
        *error = "unknown engine '" + tok + "' (expected all, " + known + ")";
      }
      return false;
    }
    append(entry->name);
  }
  if (out->empty()) {
    if (error != nullptr) *error = "empty engine list";
    return false;
  }
  return true;
}

bool ParseQueryList(std::string_view spec, std::vector<ssb::QueryId>* out,
                    std::string* error) {
  out->clear();
  for (const std::string& raw : SplitCommas(spec)) {
    std::string tok = Lower(raw);
    if (tok == "all") {
      for (ssb::QueryId id : ssb::kAllQueries) AppendUnique(out, id);
      continue;
    }
    if (tok.rfind("flight", 0) == 0) tok = "q" + tok.substr(6);
    if (tok[0] != 'q') tok = "q" + tok;
    // "qF" selects a whole flight.
    if (tok.size() == 2 && tok[1] >= '1' && tok[1] <= '4') {
      const int flight = tok[1] - '0';
      for (ssb::QueryId id : ssb::kAllQueries) {
        if (ssb::QueryFlight(id) == flight) AppendUnique(out, id);
      }
      continue;
    }
    // "qF.V" (canonical) or "qFV" shorthand.
    if (tok.size() == 3 && tok[1] != '.') tok.insert(2, ".");
    bool ok = false;
    const ssb::QueryId id = QueryForName(tok, &ok);
    if (!ok) {
      if (error != nullptr) {
        *error = "unknown query '" + raw +
                 "' (expected all, qF, or qF.V, e.g. q2.1)";
      }
      return false;
    }
    AppendUnique(out, id);
  }
  if (out->empty()) {
    if (error != nullptr) *error = "empty query list";
    return false;
  }
  return true;
}

Report Run(const Options& options) {
  WallTimer datagen_timer;
  ssb::DatagenOptions gen;
  gen.scale_factor = options.scale_factor;
  gen.fact_divisor = options.fact_divisor;
  gen.seed = options.seed;
  CRYSTAL_CHECK_MSG(
      storage::EncodingFromName(options.storage, &gen.storage.encoding),
      "unknown storage encoding (ParseStorageName first)");
  // Generate at the width the queries run at, so datagen_wall_ms is
  // comparable with them.
  ssb::Database db;
  {
    ThreadPool pool(options.threads);
    db = ssb::Generate(gen, pool);
  }
  const double datagen_ms = datagen_timer.ElapsedMs();
  Report report = Run(options, db);
  report.datagen_wall_ms = datagen_ms;
  return report;
}

Report Run(const Options& options, const ssb::Database& db) {
  Report report;
  report.options = options;
  report.options.scale_factor = db.scale_factor;
  report.options.fact_divisor = db.fact_divisor;
  report.options.seed = db.seed;
  report.options.repeat = std::max(options.repeat, 1);
  report.options.warmup = std::max(options.warmup, 0);
  // Echo what the executed database actually carries, not what the options
  // asked for — Run(options, db) may get a caller-generated database.
  report.storage = std::string(storage::EncodingName(db.storage));
  report.options.storage = report.storage;
  report.fact_rows = db.lo.rows;
  report.full_scale_fact_rows = db.full_scale_fact_rows();

  // Resolve the requested names (possibly aliases) to canonical registry
  // names, collapsing duplicates; empty means every registered engine.
  const engine::EngineRegistry& registry = engine::EngineRegistry::Global();
  std::vector<std::string> names;
  if (options.engines.empty()) {
    names = registry.Names();
  } else {
    for (const std::string& requested : options.engines) {
      const engine::EngineRegistration* entry = registry.Find(requested);
      CRYSTAL_CHECK_MSG(entry != nullptr, "unknown engine name");
      if (std::find(names.begin(), names.end(), entry->name) == names.end())
        names.push_back(entry->name);
    }
  }
  report.options.engines = names;

  // Engines are constructed once (simulated engines copy fact columns into
  // device buffers) and reused across queries; each Execute resets its
  // device statistics so per-query predictions stay isolated.
  engine::EngineContext context;
  context.db = &db;
  context.threads = options.threads;
  // Per-engine context overrides from the options: device profile for
  // simulated engines and tile geometry for simulated kernels. Unknown
  // profile names are a programming error here — CLI input goes through
  // ParseProfileName first.
  std::string profile_error;
  CRYSTAL_CHECK_MSG(
      ResolveProfile(options.profile, &context.profile, &profile_error),
      profile_error.c_str());
  if (options.block_threads > 0)
    context.launch.block_threads = options.block_threads;
  if (options.items_per_thread > 0)
    context.launch.items_per_thread = options.items_per_thread;
  report.profile_name = context.profile.name;
  report.block_threads = context.launch.block_threads;
  report.items_per_thread = context.launch.items_per_thread;
  std::vector<std::unique_ptr<engine::QueryEngine>> engines;
  for (const std::string& name : names) {
    engines.push_back(registry.Create(name, context));
    CRYSTAL_CHECK(engines.back() != nullptr);
  }

  // The run list: canonical specs for the requested benchmark queries,
  // then the ad-hoc specs. Everything downstream sees only QuerySpecs.
  std::vector<QueryReport> pending;
  for (ssb::QueryId id : options.queries) {
    QueryReport qr;
    qr.spec = query::SsbSpec(id);
    qr.flight = ssb::QueryFlight(id);
    pending.push_back(std::move(qr));
  }
  int adhoc_counter = 0;
  for (const query::QuerySpec& spec : options.adhoc) {
    QueryReport qr;
    qr.spec = spec;
    qr.adhoc = true;
    ++adhoc_counter;
    if (qr.spec.name.empty()) {
      qr.spec.name = "adhoc" + std::to_string(adhoc_counter);
    }
    std::string spec_error;
    CRYSTAL_CHECK_MSG(query::Validate(qr.spec, &spec_error),
                      spec_error.c_str());
    pending.push_back(std::move(qr));
  }

  WallTimer total_timer;
  for (QueryReport& qr : pending) {
    const query::QuerySpec& spec = qr.spec;

    // Results in engine order, for the cross-check below.
    std::vector<ssb::QueryResult> results;
    for (size_t i = 0; i < engines.size(); ++i) {
      for (int w = 0; w < report.options.warmup; ++w) {
        engines[i]->Execute(spec);
      }
      // Timed runs: keep the last run's result/predictions (identical
      // across runs), aggregate the wall-clocks to median + min.
      std::vector<double> walls;
      walls.reserve(static_cast<size_t>(report.options.repeat));
      std::vector<double> builds, probes;
      int64_t cache_hits = -1;
      int64_t cache_builds = -1;
      engine::RunStats stats;
      for (int rep = 0; rep < report.options.repeat; ++rep) {
        stats = engines[i]->Execute(spec);
        walls.push_back(stats.wall_ms);
        if (stats.host_build_ms >= 0) builds.push_back(stats.host_build_ms);
        if (stats.host_probe_ms >= 0) probes.push_back(stats.host_probe_ms);
        if (stats.build_cache_hits >= 0) {
          cache_hits = std::max<int64_t>(cache_hits, 0) +
                       stats.build_cache_hits;
        }
        if (stats.build_cache_builds >= 0) {
          cache_builds = std::max<int64_t>(cache_builds, 0) +
                         stats.build_cache_builds;
        }
      }
      EngineRunReport run;
      run.engine = names[i];
      run.wall_ms = Median(walls);
      run.wall_min_ms = *std::min_element(walls.begin(), walls.end());
      if (!builds.empty()) run.host_build_ms = Median(builds);
      if (!probes.empty()) run.host_probe_ms = Median(probes);
      run.build_cache_hits = cache_hits;
      run.build_cache_builds = cache_builds;
      run.predicted_total_ms = stats.predicted_total_ms;
      run.predicted_build_ms = stats.predicted_build_ms;
      run.predicted_probe_ms = stats.predicted_probe_ms;
      run.transfer_ms = stats.transfer_ms;
      run.kernel_ms = stats.kernel_ms;
      run.fact_bytes_shipped = stats.fact_bytes_shipped;
      run.checksum = Checksum(stats.result);
      run.groups = static_cast<int64_t>(stats.result.group_keys.size());
      qr.runs.push_back(std::move(run));
      results.push_back(std::move(stats.result));
    }

    // Cross-check: every engine must agree; optionally all must also match
    // the tuple-at-a-time reference engine. When the reference engine is in
    // the run set its result is reused — it would be bit-identical, and a
    // second tuple-at-a-time pass is the costliest part of a default run.
    if (options.check_against_reference) {
      const auto ref_it = std::find(names.begin(), names.end(), "reference");
      const ssb::QueryResult want =
          ref_it != names.end()
              ? results[static_cast<size_t>(ref_it - names.begin())]
              : RunReference(db, spec);
      for (size_t i = 0; i < results.size(); ++i) {
        if (!(results[i] == want)) {
          qr.results_match = false;
          qr.mismatches.push_back(
              names[i] + " disagrees with reference: got " +
              results[i].ToString() + " want " + want.ToString());
        }
      }
    }
    for (size_t i = 1; i < results.size(); ++i) {
      if (!(results[i] == results[0])) {
        qr.results_match = false;
        qr.mismatches.push_back(names[i] + " disagrees with " + names[0]);
      }
    }
    report.all_results_match = report.all_results_match && qr.results_match;
  }
  report.queries = std::move(pending);
  report.total_wall_ms = total_timer.ElapsedMs();
  return report;
}

std::string ToJson(const Report& report) {
  JsonWriter w;
  w.BeginObject();
  w.Field("benchmark", "ssb");
  w.Field("scale_factor", report.options.scale_factor);
  w.Field("fact_divisor", report.options.fact_divisor);
  w.Field("fact_rows", report.fact_rows);
  w.Field("full_scale_fact_rows", report.full_scale_fact_rows);
  w.Field("seed", report.options.seed);
  w.Field("storage", report.storage);
  w.Field("repeat", report.options.repeat);
  w.Field("warmup", report.options.warmup);
  w.Field("profile", report.profile_name);
  w.BeginObject("launch");
  w.Field("block_threads", report.block_threads);
  w.Field("items_per_thread", report.items_per_thread);
  w.EndObject();
  w.Field("checked_against_reference",
          report.options.check_against_reference);
  w.BeginArray("engines");
  for (const std::string& e : report.options.engines) w.ArrayString(e);
  w.EndArray();
  w.Field("all_results_match", report.all_results_match);
  w.Field("datagen_wall_ms", report.datagen_wall_ms);
  w.Field("total_wall_ms", report.total_wall_ms);
  w.BeginArray("queries");
  for (const QueryReport& qr : report.queries) {
    w.BeginArrayObject();
    w.Field("query", qr.spec.name);
    if (!qr.adhoc) w.Field("flight", qr.flight);
    w.Field("adhoc", qr.adhoc);
    // The executed spec in the ad-hoc grammar: the report is reproducible
    // via `crystaldb --adhoc=...` regardless of where the query came from.
    w.Field("spec", query::FormatQuerySpec(qr.spec));
    w.Field("fact_columns", query::FactColumnsReferenced(qr.spec));
    w.Field("results_match", qr.results_match);
    if (!qr.mismatches.empty()) {
      w.BeginArray("mismatches");
      for (const std::string& m : qr.mismatches) w.ArrayString(m);
      w.EndArray();
    }
    w.BeginArray("runs");
    for (const EngineRunReport& run : qr.runs) {
      w.BeginArrayObject();
      w.Field("engine", run.engine);
      w.Field("wall_ms", run.wall_ms);  // median across the timed repeats
      w.Field("wall_min_ms", run.wall_min_ms);
      w.MsField("predicted_total_ms", run.predicted_total_ms);
      w.MsField("predicted_build_ms", run.predicted_build_ms);
      w.MsField("predicted_probe_ms", run.predicted_probe_ms);
      // Transfer-modeling engines (coprocessor) get the PCIe split.
      if (run.transfer_ms >= 0 || run.kernel_ms >= 0) {
        w.MsField("transfer_ms", run.transfer_ms);
        w.MsField("kernel_ms", run.kernel_ms);
        w.Field("fact_bytes_shipped", run.fact_bytes_shipped);
      }
      // Host engines with a measured phase split / build cache.
      if (run.host_build_ms >= 0 && run.host_probe_ms >= 0) {
        w.MsField("build_ms", run.host_build_ms);
        w.MsField("probe_ms", run.host_probe_ms);
      }
      if (run.build_cache_hits >= 0 || run.build_cache_builds >= 0) {
        w.Field("cache_hits", std::max<int64_t>(run.build_cache_hits, 0));
        w.Field("cache_builds", std::max<int64_t>(run.build_cache_builds, 0));
      }
      w.Field("checksum", run.checksum);
      w.Field("groups", run.groups);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace crystal::driver
