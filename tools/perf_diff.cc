// perf_diff: compares two benchmark result files and prints per-metric
// ratios, oriented so > 1 always means NEW improved on BASELINE:
//
//   perf_diff BASELINE.json NEW.json [--max-regression=R]
//
// Two schemas are understood, keyed on the file's shape:
//   - perfbench results (top-level "settings" and "metrics" objects), the
//     files `python3 perfbench/run.py` writes to .bench_build/results/.
//     Each metric's direction, and each end-to-end metric's regression
//     bound, come from the repository's BENCHMARK.json (its path is
//     compiled in); metrics it does not list are ignored. The
//     comparability fingerprint is every "settings" key except per-run
//     provenance (workload_seed, git_commit, timestamp_utc and the two
//     loadavg readings). When the fingerprints match, exit status 2 means
//     an end-to-end metric got worse than its bound, a metric the
//     baseline had is missing or null in NEW, or NEW failed a larger
//     share of its requests. Per-layer ratios are printed and never gate;
//     a run marked "valid": false on either side prints a warning and
//     never gates. --max-regression is a usage error here: the benchmark
//     fixes the bounds.
//   - server_throughput ("levels" array, BENCH_server.json): per
//     concurrency level, qps (higher is better) and p99_ms (lower is
//     better), plus the sequential-replay qps. With --max-regression=R
//     (e.g. 1.10 = "no metric more than 10% worse"), exit status 2 means
//     some metric moved beyond R x its baseline in the bad direction or
//     vanished — but only when both files were measured under comparable
//     settings (same scale factor, fact divisor, thread count, SIMD state,
//     storage and traffic mix) and without fault injection; otherwise a
//     warning is printed and nothing gates.
//
// Exit status 1 means a usage or input error. See docs/PERF.md.
//
// The parser below covers the JSON subset our benches emit (objects,
// arrays, strings without escapes beyond \" and \\, numbers, booleans,
// null) — a dependency-free tool beats a JSON library for two flat schemas.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/table_printer.h"

namespace {

using crystal::TablePrinter;

/// strtod with a full-consumption check: returns false on anything but a
/// complete numeric token ("1.1x", "", "."), instead of the uncaught
/// std::invalid_argument a bare std::stod would throw.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

// ------------------------------------------------------------- tiny JSON

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  double NumberOr(const std::string& key, double fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
  }
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->kind == Kind::kString ? v->str : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    const bool ok = Value(out) && (SkipSpace(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = "parse error at byte " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Value(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
      for (;;) {
        SkipSpace();
        std::string key;
        if (!String(&key)) return false;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        if (!Value(&out->object[key])) return false;
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return text_[pos_++] == '}';
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
      for (;;) {
        out->array.emplace_back();
        if (!Value(&out->array.back())) return false;
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return text_[pos_++] == ']';
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') return Literal("null");
    // Number.
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    return ParseDouble(text_.substr(start, pos_ - start), &out->number);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------- the tool

/// Named metric with a direction. `higher_better` flips the ratio
/// orientation (qps) relative to times (latency, p99). `floor` is the
/// lowest oriented ratio that passes the gate; 0 never gates.
struct Metric {
  std::string name;
  double value = 0;
  bool has_value = true;  // false: null in a perfbench result
  bool higher_better = false;
  double floor = 0;
};

struct BenchFile {
  std::string path;
  JsonValue root;
  bool server = false;  // server_throughput schema ("levels" array)
  std::vector<Metric> metrics;
  std::string settings;  // comparability fingerprint
};

bool ReadJson(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perf_diff: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string error;
  if (!JsonParser(text).Parse(out, &error)) {
    std::fprintf(stderr, "perf_diff: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

bool Is(const JsonValue* v, JsonValue::Kind kind) {
  return v != nullptr && v->kind == kind;
}

std::string ServerSettings(const JsonValue& root) {
  // Everything that changes the measured work must participate: seed
  // (different data, different selectivities) and the fact-storage
  // encoding (packed scans run different kernels over different bytes — a
  // packed-vs-plain diff is a diagnostic, never a pass/fail gate).
  const JsonValue* simd = root.Find("simd");
  std::string s =
      "engine=" + root.StringOr("engine", "?") +
      " storage=" + root.StringOr("storage", "plain") +
      " sf=" + std::to_string(
                   static_cast<int>(root.NumberOr("scale_factor", -1))) +
      " fact_divisor=" +
      std::to_string(static_cast<int>(root.NumberOr("fact_divisor", -1))) +
      " seed=" +
      std::to_string(static_cast<long long>(root.NumberOr("seed", -1))) +
      " threads=" +
      std::to_string(static_cast<int>(root.NumberOr("threads", -1))) +
      " simd=" +
      (Is(simd, JsonValue::Kind::kBool) ? (simd->boolean ? "true" : "false")
                                        : "?");
  // The server workload is defined by its batching bound and traffic
  // mix; a run with a different mix measures different sharing.
  s += " max_batch=" +
       std::to_string(static_cast<int>(root.NumberOr("max_batch", -1))) +
       " queries_per_level=" +
       std::to_string(
           static_cast<int>(root.NumberOr("queries_per_level", -1))) +
       " mix=" + root.StringOr("mix", "?");
  // Generated-workload provenance (--mix=generated:SEED): equal
  // seeds/counts mean byte-identical query suites, anything else is a
  // different workload. workload_seed == 0 marks the canonical ssb13 mix —
  // same pool as files from before the generator existed, so it stays out
  // of the fingerprint and old baselines remain comparable.
  const long long wl_seed =
      static_cast<long long>(root.NumberOr("workload_seed", 0));
  if (wl_seed != 0) {
    s += " workload_seed=" + std::to_string(wl_seed) + " workload_count=" +
         std::to_string(static_cast<int>(root.NumberOr("workload_count", 0)));
  }
  // Memory-governor budget: a budgeted run pays admission rejections,
  // cache evictions and degraded (sparse/shared) aggregation on purpose,
  // so its timings answer a different question than an unbudgeted run's.
  // mem_budget == 0 means unenforced — the same regime as files from
  // before the governor existed, so it stays out of the fingerprint and
  // old baselines remain comparable.
  const long long mem_budget =
      static_cast<long long>(root.NumberOr("mem_budget", 0));
  if (mem_budget != 0) {
    s += " mem_budget=" + std::to_string(mem_budget);
  }
  return s;
}

bool LoadServer(BenchFile* f) {
  // Throughput and tail latency per concurrency level.
  f->server = true;
  f->settings = ServerSettings(f->root);
  const JsonValue* sequential = f->root.Find("sequential");
  if (Is(sequential, JsonValue::Kind::kObject)) {
    const double qps = sequential->NumberOr("qps", -1);
    if (qps > 0) f->metrics.push_back({"qps@sequential", qps, true, true});
  }
  for (const JsonValue& level : f->root.Find("levels")->array) {
    const int c = static_cast<int>(level.NumberOr("concurrency", -1));
    const double qps = level.NumberOr("qps", -1);
    const double p99 = level.NumberOr("p99_ms", -1);
    if (c <= 0 || qps <= 0 || p99 <= 0) {
      std::fprintf(stderr, "perf_diff: %s: malformed level entry\n",
                   f->path.c_str());
      return false;
    }
    const std::string at = "@" + std::to_string(c);
    f->metrics.push_back({"qps" + at, qps, true, true});
    f->metrics.push_back({"p99_ms" + at, p99, true, false});
  }
  return true;
}

/// Reads a perfbench result's metrics in BENCHMARK.json order (end-to-end
/// first), each with the direction BENCHMARK.json gives it and, for
/// end-to-end metrics, the floor its bound implies: a relative worsening
/// beyond `bound` fails.
bool LoadPerfbench(BenchFile* f) {
  JsonValue spec;
  if (!ReadJson(CRYSTAL_BENCHMARK_JSON, &spec)) return false;
  const JsonValue& metrics = *f->root.Find("metrics");
  for (const char* group : {"end_to_end", "per_layer"}) {
    const JsonValue* list = spec.Find(group);
    if (!Is(list, JsonValue::Kind::kArray)) {
      std::fprintf(stderr, "perf_diff: %s: no \"%s\" array\n",
                   CRYSTAL_BENCHMARK_JSON, group);
      return false;
    }
    for (const JsonValue& def : list->array) {
      const std::string name = def.StringOr("name", "");
      const JsonValue* entry = metrics.Find(name);
      if (!Is(entry, JsonValue::Kind::kObject)) continue;
      const JsonValue* value = entry->Find("value");
      Metric m{name, 0, Is(value, JsonValue::Kind::kNumber),
               def.StringOr("better", "") == "higher"};
      if (m.has_value) m.value = value->number;
      const double bound = def.NumberOr("bound", -1);
      if (bound >= 0) m.floor = m.higher_better ? 1 - bound : 1 / (1 + bound);
      f->metrics.push_back(m);
    }
  }
  // Every setting except per-run provenance: when and from which commit
  // a run was taken, and the workload seed — perfbench keeps runs on
  // different seeds comparable by design. Values compare by their printed
  // form, since `nproc` is a JSON number while the others are strings.
  static const std::set<std::string> kProvenance = {
      "workload_seed", "git_commit", "timestamp_utc", "loadavg_before",
      "loadavg_after"};
  for (const auto& [key, value] : f->root.Find("settings")->object) {
    if (kProvenance.count(key) != 0) continue;
    std::string printed = value.str;
    if (value.kind == JsonValue::Kind::kNumber) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.15g", value.number);
      printed = buf;
    }
    f->settings += (f->settings.empty() ? "" : " ") + key + "=" + printed;
  }
  return true;
}

bool LoadBench(const std::string& path, BenchFile* out) {
  if (!ReadJson(path, &out->root)) return false;
  out->path = path;
  bool ok;
  if (Is(out->root.Find("settings"), JsonValue::Kind::kObject) &&
      Is(out->root.Find("metrics"), JsonValue::Kind::kObject)) {
    ok = LoadPerfbench(out);
  } else if (Is(out->root.Find("levels"), JsonValue::Kind::kArray)) {
    ok = LoadServer(out);
  } else {
    std::fprintf(stderr,
                 "perf_diff: %s: neither a perfbench result (\"settings\" "
                 "and \"metrics\" objects) nor a \"levels\" array\n",
                 path.c_str());
    return false;
  }
  if (ok && out->metrics.empty()) {
    std::fprintf(stderr, "perf_diff: %s: no metrics\n", path.c_str());
    return false;
  }
  return ok;
}

/// Failed share of the attempted requests (perfbench; 0 for server files,
/// which carry neither count).
double FailedShare(const BenchFile& f) {
  return f.root.NumberOr("failed", 0) /
         std::max(1.0, f.root.NumberOr("attempted", 0));
}

}  // namespace

int main(int argc, char** argv) {
  double max_regression = 0;  // 0 = not given
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--max-regression=", 0) == 0) {
      if (!ParseDouble(arg.substr(std::strlen("--max-regression=")),
                       &max_regression) ||
          max_regression <= 0) {
        std::fprintf(stderr,
                     "perf_diff: --max-regression needs a number > 0 "
                     "(got '%s')\n",
                     arg.c_str());
        return 1;
      }
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: perf_diff BASELINE.json NEW.json "
                 "[--max-regression=R]\n");
    return 1;
  }

  BenchFile base, fresh;
  if (!LoadBench(paths[0], &base) || !LoadBench(paths[1], &fresh)) return 1;
  if (base.server != fresh.server) {
    std::fprintf(stderr,
                 "perf_diff: '%s' and '%s' are different result schemas\n",
                 base.path.c_str(), fresh.path.c_str());
    return 1;
  }
  const bool server = base.server;
  if (!server && max_regression > 0) {
    std::fprintf(stderr,
                 "perf_diff: --max-regression applies to server_throughput "
                 "files only; BENCHMARK.json fixes the bounds of perfbench "
                 "results\n");
    return 1;
  }
  // Server files gate only under --max-regression, on every metric.
  if (max_regression > 0) {
    for (Metric& m : base.metrics) m.floor = 1 / max_regression;
  }
  const char* gate = server ? "--max-regression" : "the BENCHMARK.json gate";

  std::printf("baseline: %s  (%s)\n", base.path.c_str(),
              base.settings.c_str());
  std::printf("new:      %s  (%s)\n\n", fresh.path.c_str(),
              fresh.settings.c_str());
  // A run taken under fault injection (server_throughput echoes its
  // CRYSTAL_FAULT schedule into the "fault" key) measured failure
  // behavior, not performance; a perfbench run whose load generator fell
  // behind is marked "valid": false. Never gate on either, whichever side
  // it is on.
  const std::string base_fault = base.root.StringOr("fault", "");
  const std::string fresh_fault = fresh.root.StringOr("fault", "");
  bool unusable = !base_fault.empty() || !fresh_fault.empty();
  if (unusable) {
    std::printf(
        "WARNING: fault injection was active (baseline '%s', new '%s'); "
        "these are not perf measurements and --max-regression is not "
        "enforced.\n\n",
        base_fault.c_str(), fresh_fault.c_str());
  }
  for (const BenchFile* f : {&base, &fresh}) {
    const JsonValue* valid = f->root.Find("valid");
    if (Is(valid, JsonValue::Kind::kBool) && !valid->boolean) {
      std::printf(
          "WARNING: %s is marked invalid (its load generator fell behind); "
          "%s is not enforced.\n\n",
          f->path.c_str(), gate);
      unusable = true;
    }
  }
  const bool comparable = base.settings == fresh.settings && !unusable;
  if (!comparable && !unusable) {
    std::printf(
        "WARNING: settings differ; ratios reflect workload differences as "
        "much as code, and %s is not enforced.\n\n",
        gate);
  }

  // Server values print as before; perfbench values span microseconds to
  // bytes, so they keep six significant digits.
  auto fmt = [server](double v) {
    if (server) return TablePrinter::Fmt(v, 2);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  std::map<std::string, Metric> fresh_by_name;
  for (const Metric& m : fresh.metrics) fresh_by_name[m.name] = m;
  std::vector<std::string> header{"metric", "base", "new", "ratio"};
  if (!server) header.push_back("floor");
  TablePrinter t(header);
  double log_sum = 0;
  int matched = 0;
  int missing = 0;
  int regressions = 0;
  double worst_ratio = 1e300;
  std::string worst_metric;
  for (const Metric& m : base.metrics) {
    const auto it = fresh_by_name.find(m.name);
    std::vector<std::string> row{m.name,
                                 m.has_value ? fmt(m.value) : "null"};
    if (it == fresh_by_name.end() || !it->second.has_value) {
      row.push_back(it == fresh_by_name.end() ? "-" : "null");
      // A metric vanishing from the new file is the worst regression of
      // all — a truncated or crashed bench run must not pass the gate.
      row.push_back(m.has_value ? "missing" : "-");
      if (m.has_value) ++missing;
    } else {
      row.push_back(fmt(it->second.value));
      // Oriented so > 1 always means NEW improved (faster query, higher
      // qps, lower tail latency); zeros (idle per-layer counters) have
      // no ratio unless unchanged.
      const double fresh_value = it->second.value;
      const double ratio =
          !m.has_value ? NAN
          : fresh_value == m.value ? 1
          : m.higher_better      ? fresh_value / m.value
                                 : m.value / fresh_value;
      if (std::isfinite(ratio) && ratio > 0) {
        row.push_back(TablePrinter::Fmt(ratio, 3) + "x");
        log_sum += std::log(ratio);
        ++matched;
        if (ratio < worst_ratio) {
          worst_ratio = ratio;
          worst_metric = m.name;
        }
        if (ratio < m.floor) ++regressions;
      } else {
        row.push_back("-");
      }
    }
    if (!server) {
      row.push_back(m.floor > 0 ? TablePrinter::Fmt(m.floor, 3) + "x" : "-");
    }
    t.AddRow(row);
  }
  if (matched == 0) {
    std::fprintf(stderr, "perf_diff: no common metrics\n");
    return 1;
  }
  const double geomean = std::exp(log_sum / matched);
  std::vector<std::string> geomean_row{"geomean", "", "",
                                       TablePrinter::Fmt(geomean, 3) + "x"};
  if (!server) geomean_row.push_back("");
  t.AddRow(geomean_row);
  t.Print();
  std::printf("\ngeomean ratio %.3fx over %d metrics; worst %s at %.3fx\n",
              geomean, matched, worst_metric.c_str(), worst_ratio);
  const bool more_failed = FailedShare(fresh) > FailedShare(base);
  if (!server) {
    std::printf("failed/attempted: base %.0f/%.0f, new %.0f/%.0f\n",
                base.root.NumberOr("failed", 0),
                base.root.NumberOr("attempted", 0),
                fresh.root.NumberOr("failed", 0),
                fresh.root.NumberOr("attempted", 0));
  }

  const bool gated = comparable && (!server || max_regression > 0);
  if (!gated || (regressions == 0 && missing == 0 && !more_failed)) return 0;
  if (missing > 0) {
    std::fprintf(stderr, "perf_diff: %d baseline metric%s missing from '%s'\n",
                 missing, missing == 1 ? " is" : "s are", fresh.path.c_str());
  }
  if (regressions > 0 && server) {
    std::fprintf(stderr,
                 "perf_diff: %d metric%s regressed beyond %.2fx the "
                 "baseline\n",
                 regressions, regressions == 1 ? "" : "s", max_regression);
  } else if (regressions > 0) {
    std::fprintf(stderr,
                 "perf_diff: %d end-to-end metric%s worse than the "
                 "BENCHMARK.json bound\n",
                 regressions, regressions == 1 ? " is" : "s are");
  }
  if (more_failed) {
    std::fprintf(stderr, "perf_diff: failed share rose from %.6g to %.6g\n",
                 FailedShare(base), FailedShare(fresh));
  }
  return 2;
}
