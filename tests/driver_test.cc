#include "driver/driver.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/registry.h"
#include "query/parser.h"
#include "ssb/datagen.h"
#include "ssb/queries.h"

namespace crystal::driver {
namespace {

using ssb::QueryId;

// Tiny shared database: SF1 dimensions, 6k-row fact sample.
const ssb::Database& TestDb() {
  static const ssb::Database* db = new ssb::Database(ssb::Generate(1, 1000));
  return *db;
}

size_t RegisteredEngineCount() {
  return engine::EngineRegistry::Global().Names().size();
}

TEST(ParseEngineListTest, AllAndNames) {
  std::vector<std::string> engines;
  std::string error;
  ASSERT_TRUE(ParseEngineList("all", &engines, &error));
  EXPECT_EQ(engines.size(), RegisteredEngineCount());
  EXPECT_GE(engines.size(), 5u);

  ASSERT_TRUE(ParseEngineList("vectorized-cpu,crystal-gpu-sim", &engines,
                              &error));
  ASSERT_EQ(engines.size(), 2u);
  EXPECT_EQ(engines[0], "vectorized-cpu");
  EXPECT_EQ(engines[1], "crystal-gpu-sim");
}

TEST(ParseEngineListTest, AliasesResolveToCanonicalNames) {
  std::vector<std::string> engines;
  std::string error;
  ASSERT_TRUE(ParseEngineList("gpu,cpu,mat,copro,ref", &engines, &error));
  ASSERT_EQ(engines.size(), 5u);
  EXPECT_EQ(engines[0], "crystal-gpu-sim");
  EXPECT_EQ(engines[1], "vectorized-cpu");
  EXPECT_EQ(engines[2], "materializing");
  EXPECT_EQ(engines[3], "coprocessor");
  EXPECT_EQ(engines[4], "reference");
}

TEST(ParseEngineListTest, CollapsesDuplicatesAcrossAliases) {
  std::vector<std::string> engines;
  std::string error;
  // The same engine via canonical name, alias, and different case.
  ASSERT_TRUE(ParseEngineList("gpu,crystal,CRYSTAL-GPU-SIM,mat", &engines,
                              &error));
  ASSERT_EQ(engines.size(), 2u);
  EXPECT_EQ(engines[0], "crystal-gpu-sim");
  EXPECT_EQ(engines[1], "materializing");

  // "all" after an explicit engine keeps first-mention order.
  ASSERT_TRUE(ParseEngineList("copro,all", &engines, &error));
  EXPECT_EQ(engines.size(), RegisteredEngineCount());
  EXPECT_EQ(engines[0], "coprocessor");
}

TEST(ParseEngineListTest, ErrorPaths) {
  std::vector<std::string> engines;
  std::string error;

  EXPECT_FALSE(ParseEngineList("warp-speed", &engines, &error));
  EXPECT_NE(error.find("unknown engine 'warp-speed'"), std::string::npos);
  // The message enumerates the live registry so users can self-serve.
  EXPECT_NE(error.find("coprocessor"), std::string::npos);
  EXPECT_NE(error.find("materializing"), std::string::npos);

  EXPECT_FALSE(ParseEngineList("", &engines, &error));
  EXPECT_NE(error.find("empty engine list"), std::string::npos);
  EXPECT_FALSE(ParseEngineList(" , ,", &engines, &error));
  EXPECT_NE(error.find("empty engine list"), std::string::npos);

  // A bad token after good ones still fails (and reports the bad token).
  EXPECT_FALSE(ParseEngineList("cpu,nope", &engines, &error));
  EXPECT_NE(error.find("'nope'"), std::string::npos);
}

TEST(ParseQueryListTest, AllFlightsAndSingles) {
  std::vector<QueryId> queries;
  std::string error;
  ASSERT_TRUE(ParseQueryList("all", &queries, &error));
  EXPECT_EQ(queries.size(), 13u);

  ASSERT_TRUE(ParseQueryList("q2.1,q4.2", &queries, &error));
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0], QueryId::kQ21);
  EXPECT_EQ(queries[1], QueryId::kQ42);

  // Flight selection, shorthand spellings, duplicate collapsing.
  ASSERT_TRUE(ParseQueryList("q3", &queries, &error));
  EXPECT_EQ(queries.size(), 4u);
  ASSERT_TRUE(ParseQueryList("11,q1.1,flight1", &queries, &error));
  EXPECT_EQ(queries.size(), 3u);
  EXPECT_EQ(queries[0], QueryId::kQ11);
}

TEST(ParseQueryListTest, ErrorPaths) {
  std::vector<QueryId> queries;
  std::string error;

  EXPECT_FALSE(ParseQueryList("q5.1", &queries, &error));
  EXPECT_NE(error.find("unknown query 'q5.1'"), std::string::npos);
  EXPECT_FALSE(ParseQueryList("nope", &queries, &error));
  EXPECT_NE(error.find("'nope'"), std::string::npos);
  EXPECT_NE(error.find("q2.1"), std::string::npos);  // usage hint

  EXPECT_FALSE(ParseQueryList("", &queries, &error));
  EXPECT_NE(error.find("empty query list"), std::string::npos);
  EXPECT_FALSE(ParseQueryList(" , ", &queries, &error));

  // A bad token mid-list fails even with valid neighbours.
  EXPECT_FALSE(ParseQueryList("q1.1,q9.9,q2.1", &queries, &error));
  EXPECT_NE(error.find("'q9.9'"), std::string::npos);
}

TEST(DriverTest, AllEnginesAgreeOnFlagshipQueries) {
  Options options;
  options.queries = {QueryId::kQ11, QueryId::kQ21, QueryId::kQ31,
                     QueryId::kQ41};
  options.threads = 4;
  const Report report = driver::Run(options, TestDb());

  // Empty options.engines means every registered engine.
  EXPECT_EQ(report.options.engines.size(), RegisteredEngineCount());
  EXPECT_TRUE(report.all_results_match);
  ASSERT_EQ(report.queries.size(), 4u);
  for (const QueryReport& qr : report.queries) {
    EXPECT_TRUE(qr.results_match) << qr.spec.name;
    EXPECT_TRUE(qr.mismatches.empty());
    ASSERT_EQ(qr.runs.size(), RegisteredEngineCount());
    // Identical aggregates across all engines.
    for (const EngineRunReport& run : qr.runs) {
      EXPECT_EQ(run.checksum, qr.runs[0].checksum)
          << qr.spec.name << " " << run.engine;
      EXPECT_EQ(run.groups, qr.runs[0].groups);
      EXPECT_GE(run.wall_ms, 0.0);
    }
  }
}

TEST(DriverTest, SimulatedEnginesReportPredictedTimes) {
  Options options;
  options.queries = {QueryId::kQ21};
  const Report report = driver::Run(options, TestDb());

  ASSERT_EQ(report.queries.size(), 1u);
  const engine::EngineRegistry& registry = engine::EngineRegistry::Global();
  for (const EngineRunReport& run : report.queries[0].runs) {
    const engine::EngineRegistration* entry = registry.Find(run.engine);
    ASSERT_NE(entry, nullptr) << run.engine;
    if (entry->capabilities.simulated) {
      EXPECT_GT(run.predicted_total_ms, 0) << run.engine;
      EXPECT_GT(run.predicted_probe_ms, 0) << run.engine;
    } else {
      EXPECT_LT(run.predicted_total_ms, 0) << run.engine;  // no model
    }
    if (entry->capabilities.models_transfer) {
      EXPECT_GT(run.transfer_ms, 0) << run.engine;
      EXPECT_GT(run.kernel_ms, 0) << run.engine;
      EXPECT_GT(run.fact_bytes_shipped, 0) << run.engine;
    } else {
      EXPECT_EQ(run.fact_bytes_shipped, 0) << run.engine;
    }
  }
}

TEST(DriverTest, CoprocessorChargesReferencedFactColumns) {
  Options options;
  options.engines = {"coprocessor"};
  options.queries = {QueryId::kQ11, QueryId::kQ21, QueryId::kQ43};
  const Report report = driver::Run(options, TestDb());

  ASSERT_EQ(report.queries.size(), 3u);
  for (const QueryReport& qr : report.queries) {
    ASSERT_EQ(qr.runs.size(), 1u);
    const EngineRunReport& run = qr.runs[0];
    // Fig. 3 costing: every referenced fact column ships at full scale.
    const int64_t want_bytes =
        static_cast<int64_t>(query::FactColumnsReferenced(qr.spec)) *
        TestDb().full_scale_fact_rows() * 4;
    EXPECT_EQ(run.fact_bytes_shipped, want_bytes) << qr.spec.name;
    // Perfect overlap: total = max(transfer, kernel).
    EXPECT_DOUBLE_EQ(run.predicted_total_ms,
                     std::max(run.transfer_ms, run.kernel_ms));
    // SSB on a V100 is PCIe-bound (Section 3.1).
    EXPECT_GE(run.transfer_ms, run.kernel_ms) << qr.spec.name;
  }
}

TEST(DriverTest, RespectsEngineSubsetAndAliases) {
  Options options;
  options.engines = {"cpu"};  // alias for vectorized-cpu
  options.queries = {QueryId::kQ11};
  const Report report = driver::Run(options, TestDb());
  ASSERT_EQ(report.queries.size(), 1u);
  ASSERT_EQ(report.queries[0].runs.size(), 1u);
  EXPECT_EQ(report.queries[0].runs[0].engine, "vectorized-cpu");
  EXPECT_EQ(report.options.engines,
            std::vector<std::string>{"vectorized-cpu"});
  EXPECT_TRUE(report.all_results_match);
}

TEST(DriverTest, RepeatReportsMedianAndMin) {
  // The reference interpreter reports wall times only. vectorized-cpu also
  // reports the host build/probe split and its build-side cache, which the
  // warmup runs fill: every timed run of q2.1 then hits the cache once per
  // join (part, supplier, date) and builds nothing.
  for (const std::string engine : {"reference", "vectorized-cpu"}) {
    SCOPED_TRACE(engine);
    Options options;
    options.engines = {engine};
    options.queries = {engine == "reference" ? QueryId::kQ11 : QueryId::kQ21};
    options.repeat = 5;
    options.warmup = 2;
    const Report report = driver::Run(options, TestDb());

    ASSERT_EQ(report.queries.size(), 1u);
    ASSERT_EQ(report.queries[0].runs.size(), 1u);
    const EngineRunReport& run = report.queries[0].runs[0];
    EXPECT_GT(run.wall_ms, 0.0);
    EXPECT_GT(run.wall_min_ms, 0.0);
    EXPECT_LE(run.wall_min_ms, run.wall_ms);  // min <= median by construction
    EXPECT_EQ(report.options.repeat, 5);
    EXPECT_EQ(report.options.warmup, 2);
    if (engine == "vectorized-cpu") {
      EXPECT_GE(run.host_build_ms, 0.0);
      EXPECT_GE(run.host_probe_ms, 0.0);
      EXPECT_EQ(run.build_cache_builds, 0);
      ASSERT_EQ(report.queries[0].spec.joins.size(), 3u);
      EXPECT_EQ(run.build_cache_hits, 5 * 3);  // repeat x joins
    }

    const std::string json = ToJson(report);
    for (const char* key : {"\"repeat\"", "\"warmup\"", "\"wall_min_ms\""}) {
      EXPECT_NE(json.find(key), std::string::npos) << key;
    }
  }
}

TEST(DriverTest, SingleRunReportsIdenticalMinAndMedian) {
  Options options;
  options.engines = {"reference"};
  options.queries = {QueryId::kQ11};
  const Report report = driver::Run(options, TestDb());
  const EngineRunReport& run = report.queries[0].runs[0];
  EXPECT_DOUBLE_EQ(run.wall_ms, run.wall_min_ms);
}

TEST(DriverTest, AdhocSpecsRunOnEveryEngineAndCrossCheck) {
  Options options;
  options.queries = {QueryId::kQ11};
  query::QuerySpec spec;
  std::string error;
  ASSERT_TRUE(query::ParseQuerySpec(
      "sum revenue join supplier on suppkey filter s_region = 2 "
      "group by s_nation",
      &spec, &error))
      << error;
  options.adhoc.push_back(spec);
  const Report report = driver::Run(options, TestDb());

  ASSERT_EQ(report.queries.size(), 2u);
  EXPECT_TRUE(report.all_results_match);
  const QueryReport& canonical = report.queries[0];
  EXPECT_EQ(canonical.spec.name, "q1.1");
  EXPECT_EQ(canonical.flight, 1);
  EXPECT_FALSE(canonical.adhoc);
  const QueryReport& adhoc = report.queries[1];
  EXPECT_EQ(adhoc.spec.name, "adhoc1");  // auto-labeled
  EXPECT_TRUE(adhoc.adhoc);
  EXPECT_TRUE(adhoc.results_match);
  ASSERT_EQ(adhoc.runs.size(), RegisteredEngineCount());
  // Every engine agrees on the ad-hoc aggregate too.
  for (const EngineRunReport& run : adhoc.runs) {
    EXPECT_EQ(run.checksum, adhoc.runs[0].checksum) << run.engine;
    EXPECT_GT(run.groups, 0) << run.engine;  // grouped by s_nation
  }

  const std::string json = ToJson(report);
  for (const char* key :
       {"\"adhoc\"", "\"spec\"", "\"fact_columns\"", "\"adhoc1\"",
        "\"sum revenue join supplier on suppkey filter s_region = 2 "
        "group by s_nation\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(DriverTest, AdhocOnlyRunHasNoCanonicalQueries) {
  Options options;
  options.queries.clear();
  query::QuerySpec spec;
  std::string error;
  ASSERT_TRUE(
      query::ParseQuerySpec("sum quantity where discount = 0", &spec, &error))
      << error;
  spec.name = "zero-discount";  // caller-provided labels are preserved
  options.adhoc.push_back(spec);
  options.engines = {"reference", "vectorized-cpu"};
  const Report report = driver::Run(options, TestDb());
  ASSERT_EQ(report.queries.size(), 1u);
  EXPECT_EQ(report.queries[0].spec.name, "zero-discount");
  EXPECT_TRUE(report.all_results_match);
  EXPECT_EQ(report.queries[0].runs.size(), 2u);
}

TEST(ParseProfileNameTest, KnownAndUnknownNames) {
  std::string error;
  EXPECT_TRUE(ParseProfileName("", &error));
  EXPECT_TRUE(ParseProfileName("v100", &error));
  EXPECT_TRUE(ParseProfileName("V100", &error));
  EXPECT_TRUE(ParseProfileName("skylake", &error));
  EXPECT_FALSE(ParseProfileName("threadripper", &error));
  EXPECT_NE(error.find("unknown profile 'threadripper'"), std::string::npos);
  EXPECT_NE(error.find("skylake"), std::string::npos);  // usage hint
}

TEST(DriverTest, ProfileOverrideChangesSimulatedPredictions) {
  Options options;
  options.engines = {"crystal-gpu-sim"};
  options.queries = {QueryId::kQ21};
  const Report v100 = driver::Run(options, TestDb());
  options.profile = "skylake";
  const Report skylake = driver::Run(options, TestDb());

  EXPECT_NE(v100.profile_name, skylake.profile_name);
  EXPECT_NE(skylake.profile_name.find("i7"), std::string::npos);
  // Same query, same data: the CPU profile must predict slower kernels.
  EXPECT_GT(skylake.queries[0].runs[0].predicted_total_ms,
            v100.queries[0].runs[0].predicted_total_ms);
  // Results stay identical regardless of profile.
  EXPECT_TRUE(skylake.all_results_match);
}

TEST(DriverTest, LaunchOverrideIsAppliedAndReported) {
  Options options;
  options.engines = {"crystal-gpu-sim"};
  options.queries = {QueryId::kQ11};
  options.block_threads = 256;
  options.items_per_thread = 2;
  const Report report = driver::Run(options, TestDb());
  EXPECT_EQ(report.block_threads, 256);
  EXPECT_EQ(report.items_per_thread, 2);
  EXPECT_TRUE(report.all_results_match);

  const std::string json = ToJson(report);
  for (const char* key :
       {"\"launch\"", "\"block_threads\"", "\"items_per_thread\"",
        "\"profile\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(DriverTest, ReportsTheDatabasesOwnSeed) {
  Options options;
  options.engines = {"reference"};
  options.queries = {QueryId::kQ11};
  options.seed = 999;  // deliberately wrong: the db's recorded seed wins
  const Report report = driver::Run(options, TestDb());
  EXPECT_EQ(report.options.seed, TestDb().seed);
  EXPECT_EQ(report.options.seed, 20200302u);

  // Run(options) generates its own database with the options' seed, on
  // --threads workers (0 = every core); the width must not change it.
  options.fact_divisor = 1000;
  options.queries = {QueryId::kQ11, QueryId::kQ21};
  options.threads = 1;
  const Report serial = driver::Run(options);
  options.threads = 0;
  const Report parallel = driver::Run(options);
  for (const Report* r : {&serial, &parallel}) {
    EXPECT_EQ(r->options.seed, 999u);
    EXPECT_EQ(r->fact_rows, 6000);
    EXPECT_GT(r->datagen_wall_ms, 0.0);
    EXPECT_TRUE(r->all_results_match);
  }
  ASSERT_EQ(serial.queries.size(), 2u);
  ASSERT_EQ(parallel.queries.size(), 2u);
  for (size_t q = 0; q < serial.queries.size(); ++q) {
    const EngineRunReport& a = serial.queries[q].runs[0];
    const EngineRunReport& b = parallel.queries[q].runs[0];
    EXPECT_EQ(a.checksum, b.checksum) << serial.queries[q].spec.name;
    EXPECT_EQ(a.groups, b.groups) << serial.queries[q].spec.name;
  }
}

TEST(DriverTest, JsonReportWellFormed) {
  Options options;
  options.queries = {QueryId::kQ11, QueryId::kQ41};
  const Report report = driver::Run(options, TestDb());
  const std::string json = ToJson(report);

  // Spot-check required keys and balanced braces (the emitter is ours, so
  // structural sanity is worth locking down).
  for (const char* key :
       {"\"benchmark\"", "\"scale_factor\"", "\"all_results_match\"",
        "\"queries\"", "\"runs\"", "\"engine\"", "\"wall_ms\"",
        "\"predicted_total_ms\"", "\"checksum\"", "\"q1.1\"", "\"q4.1\"",
        "\"coprocessor\"", "\"transfer_ms\"", "\"kernel_ms\"",
        "\"fact_bytes_shipped\"", "\"seed\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // Engines without a timing model serialize predicted times as null.
  EXPECT_NE(json.find("null"), std::string::npos);
}

}  // namespace
}  // namespace crystal::driver
