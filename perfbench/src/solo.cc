// Solo workloads: one caller issues queries back to back (a closed loop
// with one client) on the vectorized-cpu engine.
//
//   ssb13-sf10-solo  the 13 canonical SSB specs, SF=10, plain storage
//   gen-packed-solo  the generated suite of the data seed, parsed from
//                    suite text, SF=1, packed storage
//
// The untraced window times QueryEngine::Execute; the traced window runs
// the same kernels through TracedExecute (scan.h). gen-packed-solo's traced
// run ends with a serving phase (serve.h) for the server layers.
#include <cstdio>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "cpu/build_cache.h"
#include "engine/registry.h"
#include "query/parser.h"
#include "query/ssb_specs.h"
#include "scan.h"
#include "serve.h"
#include "ssb/datagen.h"
#include "trace.h"
#include "verify.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

namespace engine = crystal::engine;
namespace query = crystal::query;
namespace ssb = crystal::ssb;

/// Specs in the generated suite. The suite is generated from the data
/// seed, so every run measures the same specs (as ssb13 always runs the
/// same 13); the workload seed orders them.
constexpr int kSuiteCount = 48;

/// Formats the generated suite and parses it back one line at a time, as a
/// client loading a suite file would.
bool ParseGeneratedSuite(uint64_t seed, Tracer& tracer, int64_t parent,
                         std::vector<query::QuerySpec>* specs,
                         std::vector<double>* parse_us) {
  crystal::workload::GenOptions gen;
  gen.seed = seed;
  gen.count = kSuiteCount;
  std::string text;
  {
    ScopedSpan span(tracer, "workload.GenerateWorkload", 0, parent);
    text = crystal::workload::FormatSuite(
        gen, crystal::workload::GenerateWorkload(gen));
  }
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t colon = line.find(':');
    query::QuerySpec spec;
    std::string error;
    const Clock::time_point t0 = Clock::now();
    const bool ok = colon != std::string::npos &&
                    query::ParseQuerySpec(line.substr(colon + 1), &spec,
                                          &error);
    const Clock::time_point t1 = Clock::now();
    tracer.Add("query.ParseQuerySpec", 0, parent, tracer.ToNs(t0),
               tracer.ToNs(t1));
    if (!ok) {
      std::fprintf(stderr, "perfbench: suite line '%s' does not parse: %s\n",
                   line.c_str(), error.c_str());
      return false;
    }
    parse_us->push_back(1000.0 * MsBetween(t0, t1));
    spec.name = line.substr(0, colon);
    specs->push_back(std::move(spec));
  }
  return true;
}

/// Latencies of one timed window, by spec index.
struct Window {
  std::vector<std::vector<double>> by_spec;
  std::vector<double> all;
  double seconds = 0;
};

/// Closed loop: rounds over every spec in a fresh seeded order until
/// `seconds` have passed, finishing the round so each spec runs equally
/// often. `run(i, &ms)` executes spec i; false marks a failed request.
template <typename Run>
Window ClosedLoop(size_t specs, double seconds, SplitMix* rng, Run&& run) {
  Window w;
  w.by_spec.resize(specs);
  std::vector<size_t> order(specs);
  std::iota(order.begin(), order.end(), size_t{0});
  const Clock::time_point begin = Clock::now();
  do {
    rng->Shuffle(&order);
    for (size_t i : order) {
      double ms = 0;
      if (!run(i, &ms)) continue;
      w.by_spec[i].push_back(ms);
      w.all.push_back(ms);
    }
  } while (MsBetween(begin, Clock::now()) < 1000.0 * seconds);
  w.seconds = MsBetween(begin, Clock::now()) / 1000.0;
  return w;
}

}  // namespace

bool RunSolo(const Options& o, Tracer& tracer, Report* report) {
  const bool generated = o.workload == "gen-packed-solo";
  ssb::DatagenOptions gen;
  gen.scale_factor = o.sf > 0 ? o.sf : (generated ? 1 : 10);
  gen.fact_divisor = o.fact_divisor > 0 ? o.fact_divisor : 1;
  gen.seed = o.data_seed;
  gen.storage.encoding = generated ? crystal::storage::Encoding::kPacked
                                   : crystal::storage::Encoding::kPlain;
  const int setups = o.setups > 0 ? o.setups : (generated ? 5 : 3);
  crystal::ThreadPool pool(o.threads);

  report->settings["scale_factor"] = std::to_string(gen.scale_factor);
  report->settings["fact_divisor"] = std::to_string(gen.fact_divisor);
  report->settings["storage"] =
      crystal::storage::EncodingName(gen.storage.encoding);
  report->settings["setups"] = std::to_string(setups);
  report->settings["engine"] = "vectorized-cpu";
  report->settings["loop"] = "closed, 1 client";

  // Set-up, repeated: datagen, suite generation and parsing, and one cold
  // pass of every spec that fills the build cache. The last one stays.
  std::unique_ptr<ssb::Database> db;
  std::vector<query::QuerySpec> specs;
  std::unique_ptr<engine::QueryEngine> cpu;
  std::vector<double> setup_s, datagen_s, cold_build_ms, parse_us;
  for (int k = 0; k < setups; ++k) {
    const Clock::time_point begin = k == 0 ? o.process_start : Clock::now();
    const int64_t setup_span = tracer.NewId();
    cpu.reset();
    db.reset();
    specs.clear();
    crystal::cpu::BuildCache::Process().Clear();

    const Clock::time_point t0 = Clock::now();
    db = std::make_unique<ssb::Database>(ssb::Generate(gen));
    const Clock::time_point t1 = Clock::now();
    tracer.Add("ssb.Generate", 0, setup_span, tracer.ToNs(t0),
               tracer.ToNs(t1));
    datagen_s.push_back(MsBetween(t0, t1) / 1000.0);

    if (generated) {
      if (!ParseGeneratedSuite(o.data_seed, tracer, setup_span, &specs,
                               &parse_us)) {
        return false;
      }
    } else {
      for (ssb::QueryId id : ssb::kAllQueries) {
        specs.push_back(query::SsbSpec(id));
      }
    }

    engine::EngineContext ctx;
    ctx.db = db.get();
    ctx.pool = &pool;
    cpu = engine::EngineRegistry::Global().Create("vectorized-cpu", ctx);
    double cold = 0;
    for (const query::QuerySpec& spec : specs) {
      ScopedSpan span(tracer, "engine.QueryEngine.Execute", 0, setup_span);
      cold += cpu->Execute(spec).host_build_ms;
    }
    cold_build_ms.push_back(cold);
    const Clock::time_point end = Clock::now();
    tracer.Add("bench.setup", 0, 0, tracer.ToNs(begin), tracer.ToNs(end),
               setup_span);
    setup_s.push_back(MsBetween(begin, end) / 1000.0);
    std::fprintf(stderr, "perfbench: set-up %d/%d %.3f s (datagen %.3f s)\n",
                 k + 1, setups, setup_s.back(), datagen_s.back());
  }
  report->settings["fact_rows"] = std::to_string(db->lo.rows);
  report->settings["specs"] = std::to_string(specs.size());

  Verifier verifier(o.expected_path);
  std::vector<int> vindex;
  for (const query::QuerySpec& spec : specs) {
    vindex.push_back(verifier.Register(spec));
  }
  SplitMix rng{o.workload_seed};
  int64_t attempted = 0;

  // Untraced window: QueryEngine::Execute back to back.
  const Window plain = ClosedLoop(
      specs.size(), o.trace ? o.seconds / 2 : o.seconds, &rng,
      [&](size_t i, double* ms) {
        const Clock::time_point t0 = Clock::now();
        const engine::RunStats stats = cpu->Execute(specs[i]);
        *ms = MsBetween(t0, Clock::now());
        ++attempted;
        verifier.Observe(vindex[i], Digest(stats.result));
        return true;
      });

  std::vector<double> spec_medians;
  for (const std::vector<double>& v : plain.by_spec) {
    if (!v.empty()) spec_medians.push_back(Median(v));
  }
  const int64_t n = static_cast<int64_t>(plain.all.size());
  const double untraced_p50 = Percentile(plain.all, 0.50);
  report->Set("setup_s", Median(setup_s), "s", setups);
  report->Set("geomean_ms", Geomean(spec_medians), "ms",
              static_cast<int64_t>(spec_medians.size()));
  report->Set("latency_p50_ms", untraced_p50, "ms", n);
  report->Set("latency_p99_ms", Percentile(plain.all, 0.99), "ms", n);
  report->Set("qps", static_cast<double>(n) / plain.seconds, "1/s", n);

  if (o.trace) {
    std::vector<std::vector<int64_t>> grid_scratch;
    LayerTotals totals;
    // gen-packed-solo splits the traced half between the solo path and
    // the serving phase.
    const Window traced = ClosedLoop(
        specs.size(), generated ? o.seconds / 4 : o.seconds / 2, &rng,
        [&](size_t i, double* ms) {
          ssb::QueryResult result;
          ++attempted;
          if (!TracedExecute(specs[i], *db, pool, &grid_scratch, tracer,
                             &totals, &result)) {
            verifier.ObserveFailure(vindex[i]);
            return false;
          }
          *ms = totals.latency_ms.back();
          verifier.Observe(vindex[i], Digest(result));
          return true;
        });
    ReportScanLayers(tracer.Spans(), totals, report);
    report->Set("ssb.datagen_s", Median(datagen_s), "s", setups);
    report->Set("cpu.cold_build_ms", Median(cold_build_ms), "ms", setups);
    report->Set("ssb.degraded", static_cast<double>(totals.degraded),
                "count", static_cast<int64_t>(traced.all.size()));
    if (generated) {
      report->Set("query.parse_us", Median(parse_us), "us", parse_us.size());
    } else {
      report->Absent("query.parse_us", "us",
                     "canonical specs come from query::SsbSpec; nothing is "
                     "parsed");
    }
    const double traced_p50 = Percentile(traced.all, 0.50);
    report->Set("trace.overhead_frac",
                untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50
                                 : 0,
                "frac", static_cast<int64_t>(traced.all.size()));
    report->notes.push_back("untraced request p50 " +
                            std::to_string(untraced_p50) + " ms");

    if (generated) {
      attempted += ServeLayers(o, *db, specs, vindex, o.seconds / 4,
                               verifier, tracer, report);
    } else {
      static const char* const kServerOnly[][2] = {
          {"server.submit_us", "us"},      {"server.queue_ms.p50", "ms"},
          {"server.queue_ms.p99", "ms"},   {"server.exec_ms.p50", "ms"},
          {"server.build_ms.p50", "ms"},   {"server.avg_batch", "count"},
          {"server.scan_share", "frac"},   {"server.dedup_share", "frac"},
          {"server.rejected", "count"},    {"server.timeouts", "count"},
          {"server.gen_lag_ms.p99", "ms"}, {"server.backlog_max", "count"}};
      for (const auto& m : kServerOnly) {
        report->Absent(m[0], m[1],
                       "QueryEngine::Execute bypasses the query server; "
                       "gen-packed-solo's traced run measures it");
      }
    }
  }

  double reference_ms = 0;
  report->attempted = attempted;
  report->failed = verifier.Finish(*db, &report->mismatches, &reference_ms);
  report->notes.push_back("verified " + std::to_string(verifier.answers()) +
                          " answers; reference engine " +
                          std::to_string(reference_ms) + " ms");
  if (!o.record_expected_path.empty() &&
      !verifier.WriteExpected(o.record_expected_path, *db)) {
    std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                 o.record_expected_path.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
