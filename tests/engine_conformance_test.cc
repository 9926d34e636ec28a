// Engine conformance suite: every engine in the global registry must
// produce exactly the reference result for all 13 SSB queries. Runs on a
// small fact subsample so the whole matrix (engines x queries) finishes in
// seconds. Any engine registered in the future is picked up automatically —
// plug-ins get correctness coverage for free (ctest -L conformance).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "common/macros.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "query/parser.h"
#include "query/ssb_specs.h"
#include "ssb/datagen.h"
#include "ssb/queries.h"
#include "storage/encoded_column.h"

namespace crystal::engine {
namespace {

using ssb::QueryId;

// SF1 dimensions, 6k-row fact sample: hash-table domains at full SF1 size,
// tuple work small enough for tuple-at-a-time reference runs per test.
// CRYSTAL_STORAGE=packed re-runs the whole matrix over bit-packed fact
// columns (tests/CMakeLists.txt registers those ctest variants); every
// engine must produce identical results in either encoding.
const ssb::Database& ConformanceDb() {
  static const ssb::Database* db = [] {
    ssb::DatagenOptions gen;
    gen.scale_factor = 1;
    gen.fact_divisor = 1000;
    const char* storage = std::getenv("CRYSTAL_STORAGE");
    if (storage != nullptr && storage[0] != '\0') {
      CRYSTAL_CHECK_MSG(
          storage::EncodingFromName(storage, &gen.storage.encoding),
          "CRYSTAL_STORAGE must be 'plain' or 'packed'");
    }
    return new ssb::Database(ssb::Generate(gen));
  }();
  return *db;
}

// One engine instance per name, shared across the per-query tests (engines
// are built once and queried repeatedly in production too). May return
// null — callers must ASSERT, so a broken factory fails its own params
// cleanly instead of crashing the whole binary.
QueryEngine* EngineFor(const std::string& name) {
  static auto* engines =
      new std::map<std::string, std::unique_ptr<QueryEngine>>();
  auto it = engines->find(name);
  if (it == engines->end()) {
    EngineContext context;
    context.db = &ConformanceDb();
    context.threads = 2;
    it = engines->emplace(
        name, EngineRegistry::Global().Create(name, context)).first;
  }
  return it->second.get();
}

const ssb::QueryResult& ExpectedResult(QueryId id) {
  static auto* cache = new std::map<QueryId, ssb::QueryResult>();
  auto it = cache->find(id);
  if (it == cache->end())
    it = cache->emplace(id, ssb::RunReference(ConformanceDb(), id)).first;
  return it->second;
}

class EngineConformanceTest
    : public testing::TestWithParam<std::tuple<std::string, QueryId>> {};

TEST_P(EngineConformanceTest, MatchesReference) {
  const auto& [name, query] = GetParam();
  QueryEngine* engine = EngineFor(name);
  ASSERT_NE(engine, nullptr) << name;

  const RunStats stats = engine->Execute(query);
  const ssb::QueryResult& want = ExpectedResult(query);
  EXPECT_TRUE(stats.result == want)
      << name << " disagrees with reference on " << ssb::QueryName(query)
      << ": got " << stats.result.ToString() << " want " << want.ToString();

  // Capability contract: simulated engines must predict, transfer-modeling
  // engines must fill the PCIe split, and nobody reports negative wall.
  const EngineCapabilities caps = engine->capabilities();
  EXPECT_GE(stats.wall_ms, 0.0);
  if (caps.simulated) {
    EXPECT_GT(stats.predicted_total_ms, 0) << name;
  } else {
    EXPECT_LT(stats.predicted_total_ms, 0) << name;
  }
  if (caps.models_transfer) {
    EXPECT_GT(stats.transfer_ms, 0) << name;
    EXPECT_GT(stats.kernel_ms, 0) << name;
    // Shipped bytes follow the storage encoding: rows*4 per plain column,
    // ceil(rows*bits/8) per packed column (query::ReferencedFactBytes).
    EXPECT_EQ(stats.fact_bytes_shipped,
              query::ReferencedFactBytes(
                  ConformanceDb(), query::SsbSpec(query),
                  ConformanceDb().full_scale_fact_rows()))
        << name;
  } else {
    EXPECT_EQ(stats.fact_bytes_shipped, 0) << name;
  }
}

std::string ParamName(
    const testing::TestParamInfo<EngineConformanceTest::ParamType>& info) {
  std::string name = std::get<0>(info.param) + "_" +
                     ssb::QueryName(std::get<1>(info.param));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineConformanceTest,
    testing::Combine(
        testing::ValuesIn(EngineRegistry::Global().Names()),
        testing::ValuesIn(std::vector<QueryId>(ssb::kAllQueries.begin(),
                                               ssb::kAllQueries.end()))),
    ParamName);

// ---------------------------------------------------------------------
// Ad-hoc conformance: declarative specs that exist in no benchmark, run
// through every registered engine against the reference interpreter. This
// is the acceptance test of "queries as data" — none of these shapes has
// any per-query code anywhere.

constexpr const char* kAdhocSpecs[] = {
    // Pure scan: no filters, no joins, scalar sum.
    "sum revenue",
    // Fact-only predicate with a product aggregate (a q1 variant that
    // isn't in the benchmark).
    "sum extendedprice*discount where quantity in 10..20",
    // Scalar aggregate over a join cascade: no canonical query combines
    // these (flight 1 has no joins, flights 2-4 always group).
    "sum revenue join supplier on suppkey filter s_region = 2 "
    "join date on orderdate filter d_year in 1994..1995",
    // Single join with a filter and a one-key group.
    "sum revenue join supplier on suppkey filter s_region = 2 "
    "group by s_nation",
    // Date week filter combined with a fact predicate.
    "sum revenue where discount in 2..4 join date on orderdate "
    "filter d_weeknuminyear in 1..26 group by d_year",
    // Two joins from different flights, profit aggregate, no date join.
    "sum revenue-supplycost join customer on custkey filter c_region = 3 "
    "join part on partkey filter p_mfgr = 5 group by c_nation, p_category",
    // IN-set build filter grouped by the same column.
    "sum supplycost join part on partkey "
    "filter p_brand1 in {1101, 2203, 3305} group by p_brand1",
    // Grouped AVG/MIN/MAX/COUNT over expressions: every fold shape of the
    // shared aggregate program in one grid.
    "avg extendedprice*discount, min extendedprice-supplycost, "
    "max revenue*quantity, count join date on orderdate "
    "filter d_year in 1993..1995 group by d_year",
    // Scalar: a constant folded into a shared subexpression, reused by a
    // longer chain, plus an immediate-operand MIN.
    "sum extendedprice*(100-discount), "
    "sum extendedprice*(100-discount)*(100+quantity), "
    "min 3*quantity+1 where discount in 1..3",
    // One subexpression feeding MAX and MIN over a two-key grid.
    "max revenue-supplycost, min revenue-supplycost join part on partkey "
    "filter p_mfgr = 2 join supplier on suppkey filter s_region = 1 "
    "group by p_category, s_nation",
};

class AdhocConformanceTest
    : public testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(AdhocConformanceTest, MatchesReference) {
  const auto& [name, spec_index] = GetParam();
  query::QuerySpec spec;
  std::string error;
  ASSERT_TRUE(query::ParseQuerySpec(kAdhocSpecs[spec_index], &spec, &error))
      << error;
  spec.name = "adhoc" + std::to_string(spec_index);

  QueryEngine* engine = EngineFor(name);
  ASSERT_NE(engine, nullptr) << name;
  const RunStats stats = engine->Execute(spec);
  const ssb::QueryResult want = ssb::RunReference(ConformanceDb(), spec);
  EXPECT_TRUE(stats.result == want)
      << name << " disagrees with reference on '" << kAdhocSpecs[spec_index]
      << "': got " << stats.result.ToString() << " want " << want.ToString();
  // A query that matches something must have produced a non-trivial
  // aggregate; guard against engines silently returning empty results.
  if (want.group_values.empty()) {
    EXPECT_EQ(stats.result.scalar, want.scalar);
  } else {
    EXPECT_EQ(stats.result.group_values.size(), want.group_values.size());
  }
}

std::string AdhocParamName(
    const testing::TestParamInfo<AdhocConformanceTest::ParamType>& info) {
  std::string name = std::get<0>(info.param) + "_adhoc" +
                     std::to_string(std::get<1>(info.param));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, AdhocConformanceTest,
    testing::Combine(
        testing::ValuesIn(EngineRegistry::Global().Names()),
        testing::Range(0, static_cast<int>(std::size(kAdhocSpecs)))),
    AdhocParamName);

// ---------------------------------------------------------------------
// TPC-H analog conformance: the canonical Q1/Q6 analogs are the
// acceptance queries for aggregate lists (Q1 emits eight values per group,
// including an AVG pair and a COUNT) and expression aggregates (Q6's
// extendedprice*discount); every engine must reproduce the reference
// bit-for-bit, like the 13 SSB flights.

class AnalogConformanceTest
    : public testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(AnalogConformanceTest, MatchesReference) {
  const auto& [name, which] = GetParam();
  const query::QuerySpec spec =
      which == 0 ? query::TpchQ1Analog() : query::TpchQ6Analog();

  QueryEngine* engine = EngineFor(name);
  ASSERT_NE(engine, nullptr) << name;
  const RunStats stats = engine->Execute(spec);
  const ssb::QueryResult want = ssb::RunReference(ConformanceDb(), spec);
  EXPECT_TRUE(stats.result == want)
      << name << " disagrees with reference on " << spec.name << ": got "
      << stats.result.ToString() << " want " << want.ToString();
}

std::string AnalogParamName(
    const testing::TestParamInfo<AnalogConformanceTest::ParamType>& info) {
  std::string name = std::get<0>(info.param) +
                     (std::get<1>(info.param) == 0 ? "_q1" : "_q6");
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, AnalogConformanceTest,
    testing::Combine(testing::ValuesIn(EngineRegistry::Global().Names()),
                     testing::Range(0, 2)),
    AnalogParamName);

}  // namespace
}  // namespace crystal::engine
