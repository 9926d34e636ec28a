#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "sim/timing.h"
#include "ssb/crystal_engine.h"
#include "ssb/datagen.h"
#include "ssb/materializing_engine.h"
#include "ssb/queries.h"
#include "ssb/vectorized_cpu_engine.h"

namespace crystal::ssb {
namespace {

// One shared small database for all engine-equivalence tests:
// SF1 dimensions with a 60k-row fact sample keeps the suite fast.
const Database& TestDb() {
  static const Database* db = new Database(Generate(1, 100));
  return *db;
}

TEST(DatagenTest, CardinalitiesFollowDbgen) {
  EXPECT_EQ(LineorderRows(1), 6'000'000);
  EXPECT_EQ(LineorderRows(20), 120'000'000);
  EXPECT_EQ(CustomerRows(20), 600'000);
  EXPECT_EQ(SupplierRows(20), 40'000);
  EXPECT_EQ(PartRows(1), 200'000);
  EXPECT_EQ(PartRows(20), 1'000'000);  // 200k * (1 + floor(log2 20))
}

TEST(DatagenTest, DateDimensionWellFormed) {
  const Database& db = TestDb();
  EXPECT_EQ(db.d.rows, kDateRows);
  EXPECT_EQ(db.d.datekey[0], 19920101);
  EXPECT_EQ(db.d.year[0], 1992);
  for (int64_t i = 1; i < db.d.rows; ++i) {
    EXPECT_GT(db.d.datekey[i], db.d.datekey[i - 1]);
  }
  EXPECT_EQ(db.d.datekey[365], 19921231);  // 1992 is a leap year (366 days)
  EXPECT_EQ(db.d.datekey[366], 19930101);
}

TEST(DatagenTest, DimensionHierarchiesConsistent) {
  const Database& db = TestDb();
  for (int64_t i = 0; i < db.c.rows; ++i) {
    ASSERT_EQ(db.c.nation[i], db.c.city[i] / 10);
    ASSERT_EQ(db.c.region[i], db.c.nation[i] / 5);
  }
  for (int64_t i = 0; i < db.p.rows; ++i) {
    ASSERT_EQ(db.p.mfgr[i], db.p.category[i] / 10);
    ASSERT_EQ(db.p.category[i], db.p.brand1[i] / 100);
    ASSERT_GE(db.p.brand1[i] % 100, 1);
    ASSERT_LE(db.p.brand1[i] % 100, 40);
  }
}

TEST(DatagenTest, DimensionRangesAreFilledOnceAndExact) {
  // Generate fills every dimension column's range; DimRange serves them
  // without a scan, survives a move and a copy of the Database, and
  // agrees with a scan of the column.
  Database db = Generate(1, 1000);
  ASSERT_EQ(db.dim_ranges.size(), db.DimColumns().size());
  EXPECT_EQ(db.DimRange(db.d.datekey).min, 19920101);
  EXPECT_EQ(db.DimRange(db.d.datekey).max, db.d.datekey.back());
  EXPECT_EQ(db.DimRange(db.c.custkey).min, 1);
  EXPECT_EQ(db.DimRange(db.c.custkey).max, db.c.rows);
  const Database moved = std::move(db);
  const Database copy = moved;
  for (const Database* d : {&moved, &copy}) {
    for (size_t k = 0; k < d->DimColumns().size(); ++k) {
      const Column& col = *d->DimColumns()[k];
      const ValueRange scan =
          ScanRange(col.data(), static_cast<int64_t>(col.size()));
      const ValueRange got = d->DimRange(col);
      EXPECT_EQ(got.min, scan.min) << k;
      EXPECT_EQ(got.max, scan.max) << k;
    }
  }
}

TEST(DatagenTest, ForeignKeysResolve) {
  const Database& db = TestDb();
  for (int64_t i = 0; i < db.lo.rows; ++i) {
    ASSERT_GE(db.lo.custkey[i], 1);
    ASSERT_LE(db.lo.custkey[i], db.c.rows);
    ASSERT_GE(db.lo.suppkey[i], 1);
    ASSERT_LE(db.lo.suppkey[i], db.s.rows);
    ASSERT_GE(db.lo.partkey[i], 1);
    ASSERT_LE(db.lo.partkey[i], db.p.rows);
  }
}

TEST(DatagenTest, Q11SelectivityNearPaper) {
  // year=1993 (1/7) x discount 1..3 (3/11) x quantity<25 (24/50) ~ 1.9%.
  const Database& db = TestDb();
  const query::QuerySpec spec = query::SsbSpec(QueryId::kQ11);
  int64_t matches = 0;
  for (int64_t i = 0; i < db.lo.rows; ++i) {
    bool pass = true;
    for (const query::FactFilter& f : spec.fact_filters) {
      const int32_t v =
          query::FactColumn(db, f.col)[static_cast<size_t>(i)];
      if (v < f.lo || v > f.hi) {
        pass = false;
        break;
      }
    }
    if (pass) ++matches;
  }
  const double sigma =
      static_cast<double>(matches) / static_cast<double>(db.lo.rows);
  EXPECT_NEAR(sigma, 0.019, 0.004);
}

TEST(DatagenTest, Deterministic) {
  const Database a = Generate(1, 1000, 99);
  const Database b = Generate(1, 1000, 99);
  EXPECT_EQ(a.lo.revenue, b.lo.revenue);
  EXPECT_EQ(a.p.brand1, b.p.brand1);
}

// ------------------------- Engine equivalence ----------------------------

class EngineEquivalenceTest : public ::testing::TestWithParam<QueryId> {};

TEST_P(EngineEquivalenceTest, VectorizedCpuMatchesReference) {
  const QueryId id = GetParam();
  ThreadPool pool(4);
  VectorizedCpuEngine engine(TestDb(), pool);
  const QueryResult want = RunReference(TestDb(), id);
  const QueryResult got = engine.Run(id);
  EXPECT_EQ(got, want) << QueryName(id) << "\n got: " << got.ToString()
                       << "\nwant: " << want.ToString();
}

TEST_P(EngineEquivalenceTest, CrystalGpuMatchesReference) {
  const QueryId id = GetParam();
  sim::Device dev(sim::DeviceProfile::V100());
  CrystalEngine engine(dev, TestDb());
  const QueryResult want = RunReference(TestDb(), id);
  const EngineRun run = engine.Run(id).value();
  EXPECT_EQ(run.result, want)
      << QueryName(id) << "\n got: " << run.result.ToString()
      << "\nwant: " << want.ToString();
  EXPECT_GT(run.total_ms, 0.0);
  EXPECT_GT(run.fact_bytes_shipped, 0);
}

TEST_P(EngineEquivalenceTest, CrystalCpuProfileMatchesReference) {
  const QueryId id = GetParam();
  sim::Device dev(sim::DeviceProfile::SkylakeI7());
  CrystalEngine engine(dev, TestDb());
  const QueryResult want = RunReference(TestDb(), id);
  EXPECT_EQ(engine.Run(id)->result, want) << QueryName(id);
}

TEST_P(EngineEquivalenceTest, MaterializingMatchesReference) {
  const QueryId id = GetParam();
  sim::Device dev(sim::DeviceProfile::V100());
  MaterializingEngine engine(dev, TestDb());
  const QueryResult want = RunReference(TestDb(), id);
  const EngineRun run = engine.Run(id).value();
  EXPECT_EQ(run.result, want)
      << QueryName(id) << "\n got: " << run.result.ToString()
      << "\nwant: " << want.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, EngineEquivalenceTest, ::testing::ValuesIn(kAllQueries),
    [](const ::testing::TestParamInfo<QueryId>& info) {
      std::string name = QueryName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '.'), name.end());
      return name;
    });

// --------------------------- Cost-shape checks ---------------------------

TEST(EngineCostTest, GpuBeatsCpuOnEveryQuery) {
  // Needs a fact sample large enough that fixed kernel-launch overhead does
  // not dominate the GPU side (600k rows here).
  const Database db = Generate(1, 10);
  sim::Device gpu(sim::DeviceProfile::V100());
  sim::Device cpu(sim::DeviceProfile::SkylakeI7());
  CrystalEngine gpu_engine(gpu, db);
  CrystalEngine cpu_engine(cpu, db);
  for (QueryId id : kAllQueries) {
    const double g = gpu_engine.Run(id)->probe_ms;
    const double c = cpu_engine.Run(id)->probe_ms;
    EXPECT_GT(c, 5.0 * g) << QueryName(id);
  }
}

TEST(EngineCostTest, MaterializingCostsMoreThanCrystalOnGpu) {
  sim::Device a(sim::DeviceProfile::V100());
  sim::Device b(sim::DeviceProfile::V100());
  CrystalEngine crystal_engine(a, TestDb());
  MaterializingEngine mat_engine(b, TestDb());
  for (QueryId id : {QueryId::kQ11, QueryId::kQ21, QueryId::kQ31,
                     QueryId::kQ41}) {
    const double fused = crystal_engine.Run(id)->probe_ms;
    const double mat = mat_engine.Run(id)->probe_ms;
    EXPECT_GT(mat, 1.5 * fused) << QueryName(id);
  }
}

TEST(EngineCostTest, Q1TrafficBoundedBySixteenBytesPerRow) {
  // Section 3.1: an efficient implementation answers Q1.x in one pass over
  // 4 columns; selective predicates can only reduce that.
  sim::Device dev(sim::DeviceProfile::V100());
  CrystalEngine engine(dev, TestDb());
  ASSERT_TRUE(engine.Run(QueryId::kQ11).ok());
  const auto& st = dev.stats();
  EXPECT_LE(st.seq_read_bytes,
            static_cast<uint64_t>(16 * TestDb().lo.rows) + (1 << 20));
}

TEST(EngineCostTest, ScaledTotalMultipliesOnlyProbeTime) {
  EngineRun run;
  run.build_ms = 2.0;
  run.probe_ms = 3.0;
  EXPECT_DOUBLE_EQ(run.ScaledTotalMs(10), 2.0 + 30.0);
}

}  // namespace
}  // namespace crystal::ssb
