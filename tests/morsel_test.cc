// Morsel-boundary parity suite + build-cache correctness for the fused CPU
// engine. The fused pipeline must produce bit-identical results to the
// tuple-at-a-time reference regardless of how the fact table is cut into
// morsels (size 1, odd sizes, non-multiple-of-8 tails, morsels larger than
// the table), how many threads claim them, and which SIMD dispatch path
// runs. Every build-side representation (bitmap, narrow payload array,
// two-level) must probe like a map holding the same pairs. The build cache
// must serve repeated and overlapping specs without ever mixing up build
// sides that differ only in their filters.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/memory.h"
#include "common/thread_pool.h"
#include "cpu/build_cache.h"
#include "cpu/vector_ops.h"
#include "engine/registry.h"
#include "query/agg_program.h"
#include "query/footprint.h"
#include "query/parser.h"
#include "query/pipeline.h"
#include "query/ssb_specs.h"
#include "sim/device.h"
#include "sim/profile.h"
#include "ssb/crystal_engine.h"
#include "ssb/datagen.h"
#include "ssb/fused_query.h"
#include "ssb/materializing_engine.h"
#include "ssb/queries.h"
#include "ssb/vectorized_cpu_engine.h"

namespace crystal::ssb {
namespace {

// SF1 dimensions (full-size build sides) over a 30K-row fact sample: big
// enough to cross many morsel boundaries, small enough for dozens of
// reference-checked configurations.
const Database& TestDb() {
  static const Database* db = new Database(Generate(1, 200));
  return *db;
}

query::QuerySpec Adhoc(const std::string& text) {
  query::QuerySpec spec;
  std::string error;
  EXPECT_TRUE(query::ParseQuerySpec(text, &spec, &error)) << error;
  return spec;
}

/// A grouped multi-aggregate over the sparse-path layout of q4.3: the
/// general fold into per-thread (or shared) sparse tables.
query::QuerySpec SparseMultiAggSpec() {
  return Adhoc(
      "sum revenue-supplycost, avg quantity, min discount, max "
      "extendedprice, count join customer on custkey filter c_region = 1 "
      "join supplier on suppkey filter s_nation = 9 join part on partkey "
      "filter p_category = 14 join date on orderdate filter d_year in "
      "1997..1998 group by d_year, s_city, p_brand1");
}

/// One SUM over an expression of exactly query::kMaxExprNodes nodes (16
/// leaves, 15 operators), mixing columns and constants on either side and
/// reading quantity and discount from several subexpressions.
query::QuerySpec MaxNodesSpec() {
  return Adhoc(
      "sum (quantity+1)*(discount+2)+(extendedprice-discount)*3+revenue-"
      "supplycost+quantity*discount*4+orderdate-19920101+custkey*5 "
      "where quantity in 1..40");
}

/// The specs the parity sweep runs: one per structural shape — scalar
/// aggregate with fact filters only (q1.1), grouped probe cascade (q2.1),
/// IN-set build filter (q3.3), the four-table cascade with a sparse-path
/// grid (q4.3), and an ad-hoc shape carrying two group keys through a
/// later probe (compaction of carried vectors). Those are single-SUM
/// shapes; the rest are multi-aggregate and expression shapes: a scalar
/// multi-aggregate under fact filters, a scalar expression with no
/// selection vector at all (no filter, no join), grouped multi-aggregates
/// on a dense grid and on sparse tables, the TPC-H Q1 analog (one column
/// shared by three slots, a constant on an operator's left), right-hand
/// constants beside a MAX over a deep product, and an expression of the
/// maximum size. Every aggregate program shape runs on every sink.
std::vector<query::QuerySpec> ParitySpecs() {
  return {
      query::SsbSpec(QueryId::kQ11),
      query::SsbSpec(QueryId::kQ21),
      query::SsbSpec(QueryId::kQ33),
      query::SsbSpec(QueryId::kQ43),
      Adhoc("sum revenue-supplycost join customer on custkey filter "
            "c_region = 3 join part on partkey filter p_mfgr = 5 "
            "group by c_nation, p_category"),
      Adhoc("avg quantity, min discount, max extendedprice, count "
            "where orderdate in 19930101..19941231 where discount in 1..3"),
      Adhoc("sum extendedprice*(100-discount)"),
      Adhoc("sum revenue, avg quantity, min supplycost, count join "
            "supplier on suppkey filter s_region = 2 join date on "
            "orderdate group by s_nation, d_year"),
      SparseMultiAggSpec(),
      query::TpchQ1Analog(),
      Adhoc("sum discount*3+7, max extendedprice*extendedprice*"
            "extendedprice*quantity join supplier on suppkey filter "
            "s_region = 1 group by s_nation"),
      MaxNodesSpec(),
  };
}

TEST(AggProgramTest, MaxNodesSpecIsAtTheExpressionCap) {
  const query::QuerySpec spec = MaxNodesSpec();
  ASSERT_EQ(spec.aggs.size(), 1u);
  EXPECT_EQ(spec.aggs[0].expr.nodes.size(),
            static_cast<size_t>(query::kMaxExprNodes));
}

/// Restores the SIMD dispatch state (and drops cached tables built under
/// a scoped configuration) when a test section ends.
class DispatchGuard {
 public:
  DispatchGuard() : simd_(cpu::SimdEnabled()) {}
  ~DispatchGuard() {
    cpu::SetSimdEnabled(simd_);
    cpu::BuildCache::Process().Clear();
  }

 private:
  bool simd_;
};

struct ParityParam {
  int64_t morsel;
  int threads;
  bool simd;
};

class MorselParityTest : public testing::TestWithParam<ParityParam> {};

TEST_P(MorselParityTest, MatchesReference) {
  const ParityParam p = GetParam();
  if (p.simd && !cpu::SimdAvailable()) GTEST_SKIP() << "no AVX2 host";

  DispatchGuard guard;
  cpu::SetSimdEnabled(p.simd);
  // Drop tables built by earlier tests so this configuration builds its
  // own.
  cpu::BuildCache::Process().Clear();

  ThreadPool pool(p.threads);
  VectorizedCpuEngine engine(TestDb(), pool);
  engine.set_morsel_rows(p.morsel);
  for (const query::QuerySpec& spec : ParitySpecs()) {
    const QueryResult want = RunReference(TestDb(), spec);
    const QueryResult got = engine.Run(spec);
    EXPECT_TRUE(got == want)
        << spec.name << " morsel=" << p.morsel << " threads=" << p.threads
        << " simd=" << p.simd << ": got "
        << got.ToString() << " want " << want.ToString();
  }
}

std::string ParityName(const testing::TestParamInfo<ParityParam>& info) {
  const ParityParam& p = info.param;
  return "morsel" + std::to_string(p.morsel) + "_t" +
         std::to_string(p.threads) + (p.simd ? "_simd" : "_scalar");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MorselParityTest,
    testing::ValuesIn(std::vector<ParityParam>{
        // Morsel-size sweep at both SIMD settings, single-threaded: size 1
        // (every row its own morsel), 7 (odd, smaller than a vector), 999
        // (non-multiple-of-8 tail in every morsel), 4096 (vector multiple),
        // and one morsel spanning the whole table.
        {1, 1, true},
        {7, 1, true},
        {999, 1, true},
        {4096, 1, true},
        {1 << 20, 1, true},
        {1, 1, false},
        {999, 1, false},
        {4096, 1, false},
        // Multi-threaded claiming, both dispatch paths.
        {999, 3, true},
        {4096, 3, true},
        {4096, 3, false},
    }),
    ParityName);

// Packed fact columns under 1001-row morsels: 1001 * bits is odd for every
// odd width, so vector starts walk through every bit phase and the dense
// and sparse decode paths both run at unaligned starts.
class MorselPackedParityTest : public testing::TestWithParam<bool> {};

TEST_P(MorselPackedParityTest, OddMorselsMatchReference) {
  const bool simd = GetParam();
  if (simd && !cpu::SimdAvailable()) GTEST_SKIP() << "no AVX2 host";
  static const Database* packed = [] {
    DatagenOptions options;
    options.scale_factor = 1;
    options.fact_divisor = 200;
    options.storage.encoding = storage::Encoding::kPacked;
    return new Database(Generate(options));
  }();
  DispatchGuard guard;
  cpu::SetSimdEnabled(simd);
  ThreadPool pool(2);
  VectorizedCpuEngine engine(*packed, pool);
  engine.set_morsel_rows(1001);
  for (const query::QuerySpec& spec : ParitySpecs()) {
    const QueryResult want = RunReference(*packed, spec);
    const QueryResult got = engine.Run(spec);
    EXPECT_TRUE(got == want) << spec.name << " simd=" << simd << ": got "
                             << got.ToString() << " want " << want.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(SimdDispatch, MorselPackedParityTest,
                         testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "simd" : "scalar";
                         });

TEST(BuildCacheTest, SecondExecuteReusesEveryBuildSide) {
  DispatchGuard guard;
  cpu::BuildCache::Process().Clear();
  ThreadPool pool(2);
  VectorizedCpuEngine engine(TestDb(), pool);

  const query::QuerySpec spec = query::SsbSpec(QueryId::kQ21);
  const QueryResult want = RunReference(TestDb(), spec);

  VectorizedCpuEngine::RunInfo first;
  EXPECT_TRUE(engine.Run(spec, &first) == want);
  EXPECT_EQ(first.cache_builds, 3);  // part, supplier, date
  EXPECT_EQ(first.cache_hits, 0);

  VectorizedCpuEngine::RunInfo second;
  EXPECT_TRUE(engine.Run(spec, &second) == want);
  EXPECT_EQ(second.cache_builds, 0);
  EXPECT_EQ(second.cache_hits, 3);
}

TEST(BuildCacheTest, SharedAcrossEngineInstances) {
  // The cache is process-wide: a second engine over the same database
  // generation starts warm (the heavy-traffic scenario — many sessions,
  // one resident database).
  DispatchGuard guard;
  cpu::BuildCache::Process().Clear();
  ThreadPool pool(2);
  const query::QuerySpec spec = query::SsbSpec(QueryId::kQ41);

  VectorizedCpuEngine first(TestDb(), pool);
  VectorizedCpuEngine::RunInfo cold;
  first.Run(spec, &cold);
  EXPECT_EQ(cold.cache_builds, 4);

  VectorizedCpuEngine second(TestDb(), pool);
  VectorizedCpuEngine::RunInfo warm;
  EXPECT_TRUE(second.Run(spec, &warm) == RunReference(TestDb(), spec));
  EXPECT_EQ(warm.cache_builds, 0);
  EXPECT_EQ(warm.cache_hits, 4);
}

TEST(BuildCacheTest, FilterVariantsDoNotCollide) {
  // q2.1/q2.2/q2.3 share their (unfiltered) date build but differ in the
  // part filter (category range vs brand range vs brand equality) and
  // supplier region. Keys must separate them — every result must still be
  // exactly the reference — while the shared date build actually hits.
  DispatchGuard guard;
  cpu::BuildCache::Process().Clear();
  ThreadPool pool(2);
  VectorizedCpuEngine engine(TestDb(), pool);

  VectorizedCpuEngine::RunInfo info21;
  EXPECT_TRUE(engine.Run(QueryId::kQ21, &info21) ==
              RunReference(TestDb(), QueryId::kQ21));
  EXPECT_EQ(info21.cache_builds, 3);

  VectorizedCpuEngine::RunInfo info22;
  EXPECT_TRUE(engine.Run(QueryId::kQ22, &info22) ==
              RunReference(TestDb(), QueryId::kQ22));
  // Distinct part/supplier filters rebuild; the identical date side hits.
  EXPECT_EQ(info22.cache_hits, 1);
  EXPECT_EQ(info22.cache_builds, 2);

  VectorizedCpuEngine::RunInfo info23;
  EXPECT_TRUE(engine.Run(QueryId::kQ23, &info23) ==
              RunReference(TestDb(), QueryId::kQ23));
  EXPECT_EQ(info23.cache_hits, 1);
  EXPECT_EQ(info23.cache_builds, 2);

  // Re-running the first query after the interleaving still hits cleanly
  // and still matches — cached sides were not clobbered by the variants.
  VectorizedCpuEngine::RunInfo again;
  EXPECT_TRUE(engine.Run(QueryId::kQ21, &again) ==
              RunReference(TestDb(), QueryId::kQ21));
  EXPECT_EQ(again.cache_builds, 0);
  EXPECT_EQ(again.cache_hits, 3);
}

TEST(BuildCacheTest, GenerationsAreResidentSideBySide) {
  DispatchGuard guard;
  cpu::BuildCache::Process().Clear();
  ThreadPool pool(2);
  const Database other = Generate(1, 1000, /*seed=*/4242);
  const query::QuerySpec spec = query::SsbSpec(QueryId::kQ31);

  VectorizedCpuEngine engine_a(TestDb(), pool);
  VectorizedCpuEngine::RunInfo a1;
  EXPECT_TRUE(engine_a.Run(spec, &a1) == RunReference(TestDb(), spec));
  EXPECT_EQ(a1.cache_builds, 3);

  // A different seed is a different generation: nothing may be reused, and
  // results must match the *new* database's reference.
  VectorizedCpuEngine engine_b(other, pool);
  VectorizedCpuEngine::RunInfo b1;
  EXPECT_TRUE(engine_b.Run(spec, &b1) == RunReference(other, spec));
  EXPECT_EQ(b1.cache_builds, 3);
  EXPECT_EQ(b1.cache_hits, 0);

  // Both generations stay resident (the cache is a small generation LRU,
  // docs/SERVER.md): switching back hits everything warm, and the other
  // generation's entries were not disturbed.
  VectorizedCpuEngine::RunInfo a2;
  EXPECT_TRUE(engine_a.Run(spec, &a2) == RunReference(TestDb(), spec));
  EXPECT_EQ(a2.cache_builds, 0);
  EXPECT_EQ(a2.cache_hits, 3);
  VectorizedCpuEngine::RunInfo b2;
  EXPECT_TRUE(engine_b.Run(spec, &b2) == RunReference(other, spec));
  EXPECT_EQ(b2.cache_builds, 0);
  EXPECT_EQ(b2.cache_hits, 3);
  EXPECT_EQ(cpu::BuildCache::Process().generations(), 2);
}

TEST(BuildCacheTest, GenerationCapacityEvictsLeastRecentlyUsed) {
  DispatchGuard guard;
  cpu::BuildCache& cache = cpu::BuildCache::Process();
  cache.Clear();
  const int saved_capacity = cache.max_generations();
  cache.set_max_generations(2);
  ThreadPool pool(2);
  const Database db_b = Generate(1, 1000, /*seed=*/111);
  const Database db_c = Generate(1, 1000, /*seed=*/222);
  const query::QuerySpec spec = query::SsbSpec(QueryId::kQ31);

  VectorizedCpuEngine engine_a(TestDb(), pool);
  VectorizedCpuEngine engine_b(db_b, pool);
  VectorizedCpuEngine engine_c(db_c, pool);

  VectorizedCpuEngine::RunInfo info;
  engine_a.Run(spec, &info);
  engine_b.Run(spec, &info);
  EXPECT_EQ(cache.generations(), 2);
  EXPECT_EQ(cache.evictions(), 0);

  // Touch A so B becomes the LRU victim, then admit C: only B may go.
  engine_a.Run(spec, &info);
  EXPECT_EQ(info.cache_hits, 3);
  EXPECT_TRUE(engine_c.Run(spec, &info) == RunReference(db_c, spec));
  EXPECT_EQ(cache.generations(), 2);
  EXPECT_EQ(cache.evictions(), 1);

  // A survived the admission of C (no eviction storm of the whole cache):
  // it still hits warm. B was evicted and rebuilds.
  engine_a.Run(spec, &info);
  EXPECT_EQ(info.cache_builds, 0);
  EXPECT_EQ(info.cache_hits, 3);
  engine_b.Run(spec, &info);
  EXPECT_EQ(info.cache_builds, 3);

  cache.set_max_generations(saved_capacity);
  cache.Clear();
}

TEST(BuildCacheTest, PayloadVariantsDoNotCollide) {
  // Same table, same (absent) filters, different carried payload: the date
  // join carries d_year for q4.1-style groupings but d_yearmonthnum for an
  // ad-hoc monthly grouping. The payload column is part of the key.
  DispatchGuard guard;
  cpu::BuildCache::Process().Clear();
  ThreadPool pool(2);
  VectorizedCpuEngine engine(TestDb(), pool);

  const query::QuerySpec yearly =
      Adhoc("sum revenue join date on orderdate group by d_year");
  const query::QuerySpec monthly =
      Adhoc("sum revenue join date on orderdate group by d_yearmonthnum");
  VectorizedCpuEngine::RunInfo info;
  EXPECT_TRUE(engine.Run(yearly, &info) == RunReference(TestDb(), yearly));
  EXPECT_EQ(info.cache_builds, 1);
  EXPECT_TRUE(engine.Run(monthly, &info) == RunReference(TestDb(), monthly));
  EXPECT_EQ(info.cache_builds, 1)
      << "monthly grouping must not reuse the d_year payload table";
  EXPECT_TRUE(engine.Run(yearly, &info) == RunReference(TestDb(), yearly));
  EXPECT_EQ(info.cache_hits, 1);
}

/// Synthetic direct-address table of exactly `n * 4` bytes (an int32
/// payload array), for pressure tests that need precise control over
/// entry sizes.
cpu::JoinTable MakeTable(int64_t n) {
  cpu::JoinTable table;
  table.layout.form = cpu::JoinForm::kPayload;
  table.layout.span = n;
  table.payload.assign(static_cast<size_t>(n) * 4, 0);
  return table;
}

TEST(BuildCachePressureTest, EvictsIdleEntriesLruFirstAndPinnedNever) {
  cpu::BuildCache& cache = cpu::BuildCache::Process();
  cache.Clear();
  const auto build = [] { return MakeTable(256); };  // 1 KiB each
  bool hit = false;
  // a, b: idle after this scope (only the cache holds them).
  ASSERT_TRUE(cache.GetOrBuild("g1", "a", build, &hit).ok());
  ASSERT_TRUE(cache.GetOrBuild("g1", "b", build, &hit).ok());
  // c stays pinned: this test holds its table like a running query would.
  StatusOr<std::shared_ptr<const cpu::JoinTable>> pinned =
      cache.GetOrBuild("g1", "c", build, &hit);
  ASSERT_TRUE(pinned.ok());
  // Touch a, making b the least-recently-used idle entry.
  ASSERT_TRUE(cache.GetOrBuild("g1", "a", build, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.evictable_bytes(), 2048);  // a + b; c is pinned

  // One entry's worth of pressure: only the LRU idle entry (b) goes.
  EXPECT_EQ(cache.EvictForPressure(1024, "g1"), 1024);
  EXPECT_TRUE(cache.Contains("g1", "a"));
  EXPECT_FALSE(cache.Contains("g1", "b"));
  EXPECT_TRUE(cache.Contains("g1", "c"));
  EXPECT_EQ(cache.entry_evictions(), 1);

  // Unbounded pressure: every idle entry goes, the pinned one survives.
  EXPECT_EQ(cache.EvictForPressure(1 << 30, "g1"), 1024);
  EXPECT_FALSE(cache.Contains("g1", "a"));
  EXPECT_TRUE(cache.Contains("g1", "c"));
  EXPECT_EQ(cache.entry_evictions(), 2);
  EXPECT_EQ(cache.evictable_bytes(), 0);

  // The evicted entry rebuilds transparently on next use.
  hit = true;
  ASSERT_TRUE(cache.GetOrBuild("g1", "b", build, &hit).ok());
  EXPECT_FALSE(hit);
  cache.Clear();
}

TEST(BuildCachePressureTest, ForeignGenerationsDrainBeforeTheKeptOne) {
  cpu::BuildCache& cache = cpu::BuildCache::Process();
  cache.Clear();
  const auto build = [] { return MakeTable(256); };
  bool hit = false;
  ASSERT_TRUE(cache.GetOrBuild("old", "x", build, &hit).ok());
  ASSERT_TRUE(cache.GetOrBuild("cur", "y", build, &hit).ok());
  // "old" was used less recently than... actually *more* recently below:
  // touch it so recency alone would keep it; generation priority must win.
  ASSERT_TRUE(cache.GetOrBuild("old", "x", build, &hit).ok());
  EXPECT_EQ(cache.EvictForPressure(1024, "cur"), 1024);
  EXPECT_FALSE(cache.Contains("old", "x"));
  EXPECT_TRUE(cache.Contains("cur", "y"));
  cache.Clear();
}

TEST(BuildCachePressureTest, ChargesRideTheTableLifetimeAndReconcile) {
  cpu::BuildCache& cache = cpu::BuildCache::Process();
  cache.Clear();
  MemoryBudget& budget = MemoryBudget::Process();
  const int64_t before = budget.used(MemCategory::kBuildCache);
  bool hit = false;
  {
    StatusOr<std::shared_ptr<const cpu::JoinTable>> held =
        cache.GetOrBuild("g1", "held", [] { return MakeTable(512); }, &hit);
    ASSERT_TRUE(held.ok());
    EXPECT_EQ(budget.used(MemCategory::kBuildCache), before + 2048);
    // Evicting the pinned entry is impossible; the charge stays until the
    // holder lets go, because the memory stays until the holder lets go.
    EXPECT_EQ(cache.EvictForPressure(1 << 30, "g1"), 0);
    EXPECT_EQ(budget.used(MemCategory::kBuildCache), before + 2048);
    // An idle sibling does evict — and only its charge drops.
    ASSERT_TRUE(cache.GetOrBuild("g1", "idle",
                                 [] { return MakeTable(512); }, &hit)
                    .ok());
    EXPECT_EQ(budget.used(MemCategory::kBuildCache), before + 4096);
    EXPECT_EQ(cache.EvictForPressure(1 << 30, "g1"), 2048);  // idle only
    EXPECT_EQ(budget.used(MemCategory::kBuildCache), before + 2048);
  }
  // The holder dropped its reference, but the cache still retains the
  // entry — now idle — so the charge rightly persists until eviction
  // drops the last reference.
  EXPECT_EQ(budget.used(MemCategory::kBuildCache), before + 2048);
  EXPECT_EQ(cache.EvictForPressure(1 << 30, "g1"), 2048);
  EXPECT_EQ(budget.used(MemCategory::kBuildCache), before);

  // A failed build charges nothing and caches nothing.
  const StatusOr<std::shared_ptr<const cpu::JoinTable>> failed =
      cache.GetOrBuild("g1", "boom",
                       []() -> cpu::JoinTable { throw std::bad_alloc(); },
                       &hit);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(cache.Contains("g1", "boom"));
  EXPECT_EQ(budget.used(MemCategory::kBuildCache), before);
  cache.Clear();
}

TEST(BuildCachePressureTest, EvictFaultPointVetoesThePass) {
  cpu::BuildCache& cache = cpu::BuildCache::Process();
  cache.Clear();
  bool hit = false;
  ASSERT_TRUE(
      cache.GetOrBuild("g1", "a", [] { return MakeTable(256); }, &hit).ok());
  ASSERT_TRUE(fault::Install("cache.evict=fail").ok());
  EXPECT_EQ(cache.EvictForPressure(1 << 30, "g1"), 0);
  EXPECT_TRUE(cache.Contains("g1", "a"));
  fault::Clear();
  EXPECT_EQ(cache.EvictForPressure(1 << 30, "g1"), 1024);
  EXPECT_FALSE(cache.Contains("g1", "a"));
  cache.Clear();
}

TEST(FusedQueryDegradationTest, SharedSparseFloorIsBitIdentical) {
  // The degradation ladder end-to-end: with a budget below the preferred
  // per-thread sparse tables but above the one-shared-table floor, Create
  // must degrade (not fail), and the degraded execution must be
  // bit-identical to the reference — for the single-SUM fast fold (q4.3)
  // and the general fold (a grouped multi-aggregate) alike.
  DispatchGuard guard;
  MemoryBudget& budget = MemoryBudget::Process();
  for (const query::QuerySpec& spec :
       {query::SsbSpec(QueryId::kQ43), SparseMultiAggSpec()}) {
    SCOPED_TRACE(query::FormatQuerySpec(spec));
    cpu::BuildCache::Process().Clear();
    ASSERT_EQ(budget.used(), 0);
    const int threads = 4;
    const query::FootprintEstimate estimate = query::EstimateFootprint(
        query::LowerToPipeline(spec, TestDb()), threads);
    ASSERT_FALSE(estimate.dense_preferred);  // both take the sparse path
    ASSERT_GT(estimate.sparse_agg_bytes, estimate.shared_agg_bytes);
    budget.set_limit(estimate.shared_agg_bytes +
                     (estimate.sparse_agg_bytes - estimate.shared_agg_bytes) /
                         2);

    ThreadPool pool(threads);
    StatusOr<std::unique_ptr<FusedQuery>> fused =
        FusedQuery::Create(spec, TestDb(), threads, pool);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_TRUE((*fused)->degraded());
    EXPECT_EQ((*fused)->agg_mode(), FusedQuery::AggMode::kSharedSparse);
    pool.ParallelForMorsels(TestDb().lo.rows, 1024,
                            [&](int t, int64_t begin, int64_t end) {
                              ASSERT_TRUE(
                                  (*fused)->RunMorsel(t, begin, end).ok());
                            });
    StatusOr<QueryResult> result = (*fused)->Finish(pool);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(*result == RunReference(TestDb(), spec));

    // Below the floor even the shared table cannot be claimed: the ladder
    // is out of rungs and Create reports resource exhaustion.
    fused->reset();
    cpu::BuildCache::Process().Clear();
    budget.set_limit(1024);
    const StatusOr<std::unique_ptr<FusedQuery>> too_small =
        FusedQuery::Create(spec, TestDb(), threads, pool);
    EXPECT_FALSE(too_small.ok());
    EXPECT_EQ(too_small.status().code(), StatusCode::kResourceExhausted);

    budget.set_limit(0);
    cpu::BuildCache::Process().Clear();
    EXPECT_EQ(budget.used(), 0);  // every claim released
  }
}

// --------------------------------------------------------------- overflow
//
// The reference interpreter aborts on overflow, so these assert the
// engines' status instead of comparing against a reference answer.

/// SF1 dimensions over a 60K-row fact sample in either storage encoding:
/// twice the parity sample, so every d_year group's sum of
/// extendedprice^3 * quantity leaves int64 (at 30K rows the groups stay
/// just inside it). extendedprice tops out near 60 000, and
/// extendedprice^4 leaves int64 above 55 108.
const Database& OverflowDb(bool packed) {
  static const Database* plain = new Database(Generate(1, 100));
  static const Database* bitpacked = [] {
    DatagenOptions options;
    options.scale_factor = 1;
    options.fact_divisor = 100;
    options.storage.encoding = storage::Encoding::kPacked;
    return new Database(Generate(options));
  }();
  return packed ? *bitpacked : *plain;
}

// Rows above extendedprice 55 108 overflow the expression itself; MAX
// cannot overflow its accumulator, so only the program's check fires. A
// constant subexpression that overflows fails every evaluated row.
constexpr const char* kExpressionOverflowSpecs[] = {
    "sum extendedprice*extendedprice*extendedprice*extendedprice",
    "max extendedprice*extendedprice*extendedprice*extendedprice",
    "sum quantity*(2000000000*2000000000*4)",
};

// Every row's value fits (extendedprice^3 * quantity < 1.1e16); the sums
// do not, scalar or per d_year group.
constexpr const char* kAccumulatorOverflowSpecs[] = {
    "sum extendedprice*extendedprice*extendedprice*quantity",
    "sum extendedprice*extendedprice*extendedprice*quantity join date on "
    "orderdate group by d_year",
};

// The first expression overflow succeeds once the filter removes every row
// that would overflow it. (A SUM of it would overflow its accumulator
// within a few rows, so MIN/MAX/COUNT carry the check.)
constexpr char kFilteredOverflowSpec[] =
    "max extendedprice*extendedprice*extendedprice*extendedprice, "
    "min extendedprice*extendedprice*extendedprice*extendedprice, count "
    "where extendedprice in 1..50000";

/// Runs `spec` through FusedQuery over `db` on two threads in morsels of
/// `morsel` rows, and returns Finish's result or first error.
StatusOr<QueryResult> RunFused(const query::QuerySpec& spec,
                               const Database& db, int64_t morsel) {
  ThreadPool pool(2);
  StatusOr<std::unique_ptr<FusedQuery>> fused =
      FusedQuery::Create(spec, db, pool.num_threads(), pool);
  if (!fused.ok()) return fused.status();
  pool.ParallelForMorsels(db.lo.rows, morsel,
                          [&](int t, int64_t begin, int64_t end) {
                            (*fused)->RunMorsel(t, begin, end);
                          });
  return (*fused)->Finish(pool);
}

struct OverflowParam {
  bool packed;
  bool simd;
  int64_t morsel;
};

class FusedOverflowTest : public testing::TestWithParam<OverflowParam> {
 protected:
  void SetUp() override {
    if (GetParam().simd && !cpu::SimdAvailable()) {
      GTEST_SKIP() << "no AVX2 host";
    }
    cpu::SetSimdEnabled(GetParam().simd);
    cpu::BuildCache::Process().Clear();
  }

  const Database& db() const { return OverflowDb(GetParam().packed); }

  void ExpectOverflow(const std::string& text) {
    SCOPED_TRACE(text);
    const StatusOr<QueryResult> result =
        RunFused(Adhoc(text), db(), GetParam().morsel);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(result.status().message(), query::kOverflowMsg);
  }

  DispatchGuard guard_;
};

TEST_P(FusedOverflowTest, ExpressionOverflowFailsTheQuery) {
  for (const char* text : kExpressionOverflowSpecs) ExpectOverflow(text);
}

TEST_P(FusedOverflowTest, FilteredRowsAreNeverEvaluated) {
  const query::QuerySpec spec = Adhoc(kFilteredOverflowSpec);
  const StatusOr<QueryResult> result =
      RunFused(spec, db(), GetParam().morsel);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(*result == RunReference(db(), spec));
}

TEST_P(FusedOverflowTest, AccumulatorOverflowFailsTheQuery) {
  for (const char* text : kAccumulatorOverflowSpecs) ExpectOverflow(text);
}

INSTANTIATE_TEST_SUITE_P(
    StorageSimdMorsel, FusedOverflowTest,
    testing::ValuesIn(std::vector<OverflowParam>{
        {false, true, 7},
        {false, true, 4096},
        {false, false, 7},
        {false, false, 4096},
        {true, true, 7},
        {true, true, 4096},
        {true, false, 7},
        {true, false, 4096},
    }),
    [](const testing::TestParamInfo<OverflowParam>& info) {
      return std::string(info.param.packed ? "packed" : "plain") +
             (info.param.simd ? "_simd" : "_scalar") + "_morsel" +
             std::to_string(info.param.morsel);
    });

// The simulated engines evaluate aggregates through the same program
// (query/agg_program.h) — crystal-gpu-sim over each tile's survivors,
// materializing over the fetched survivor columns — so they fail the same
// specs with the same status, and never evaluate a filtered row either.

struct SimOverflowParam {
  bool materializing;  // else CrystalEngine
  bool gpu;            // V100 profile, else Skylake
  sim::LaunchConfig launch;
  bool packed;
};

class SimOverflowTest : public testing::TestWithParam<SimOverflowParam> {
 protected:
  const Database& db() const { return OverflowDb(GetParam().packed); }

  StatusOr<QueryResult> Run(const query::QuerySpec& spec) const {
    const SimOverflowParam& p = GetParam();
    sim::Device device(p.gpu ? sim::DeviceProfile::V100()
                             : sim::DeviceProfile::SkylakeI7());
    StatusOr<EngineRun> run =
        p.materializing ? MaterializingEngine(device, db()).Run(spec)
                        : CrystalEngine(device, db()).Run(spec, p.launch);
    if (!run.ok()) return run.status();
    return std::move(run->result);
  }

  void ExpectOverflow(const std::string& text) const {
    SCOPED_TRACE(text);
    const StatusOr<QueryResult> result = Run(Adhoc(text));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(result.status().message(), query::kOverflowMsg);
  }
};

TEST_P(SimOverflowTest, ExpressionOverflowFailsTheQuery) {
  for (const char* text : kExpressionOverflowSpecs) ExpectOverflow(text);
}

TEST_P(SimOverflowTest, AccumulatorOverflowFailsTheQuery) {
  for (const char* text : kAccumulatorOverflowSpecs) ExpectOverflow(text);
}

TEST_P(SimOverflowTest, FilteredRowsAreNeverEvaluated) {
  const query::QuerySpec spec = Adhoc(kFilteredOverflowSpec);
  const StatusOr<QueryResult> result = Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(*result == RunReference(db(), spec));
}

std::vector<SimOverflowParam> SimOverflowParams() {
  std::vector<SimOverflowParam> params;
  for (bool packed : {false, true}) {
    params.push_back({false, true, {}, packed});
    params.push_back({false, false, {}, packed});
    // A 2048-item tile: its survivors span two program vectors.
    params.push_back({false, true, {256, 8}, packed});
    params.push_back({true, true, {}, packed});
    params.push_back({true, false, {}, packed});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    EngineProfileStorage, SimOverflowTest,
    testing::ValuesIn(SimOverflowParams()),
    [](const testing::TestParamInfo<SimOverflowParam>& info) {
      const SimOverflowParam& p = info.param;
      return std::string(p.materializing ? "materializing" : "crystal") +
             (p.gpu ? "_v100" : "_skylake") + "_tile" +
             std::to_string(p.launch.tile_items()) +
             (p.packed ? "_packed" : "_plain");
    });

// The registry adapters have no error path yet: a failed simulated run
// stops the process with the overflow status, as vectorized-cpu does,
// while a spec that does not overflow answers like the reference.
TEST(SimOverflowDeathTest, AdaptersStopWithTheOverflowStatus) {
  // Datagen leaves pool threads behind; re-exec instead of a bare fork.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  engine::EngineContext context;
  context.db = &OverflowDb(false);
  for (const char* name : {"crystal-gpu-sim", "coprocessor", "materializing"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<engine::QueryEngine> engine =
        engine::EngineRegistry::Global().Create(name, context);
    ASSERT_NE(engine, nullptr);
    const query::QuerySpec filtered = Adhoc(kFilteredOverflowSpec);
    EXPECT_TRUE(engine->Execute(filtered).result ==
                RunReference(*context.db, filtered));
    EXPECT_DEATH(engine->Execute(Adhoc(kAccumulatorOverflowSpecs[1])),
                 "kOutOfRange: aggregate sum overflowed");
  }
}

// ------------------------------------------------------------- footprint

TEST(FootprintTest, AggregationBytesIncludeProgramScratch) {
  // The TPC-H Q1 analog: eight slots over a dense d_year grid whose
  // program keeps several vectors live. Every rung's aggregation bytes are
  // the grid or table model plus the program's per-thread scratch, and
  // Create charges exactly the preferred rung's bytes.
  DispatchGuard guard;
  cpu::BuildCache::Process().Clear();
  MemoryBudget& budget = MemoryBudget::Process();
  ASSERT_EQ(budget.used(), 0);
  const query::QuerySpec spec = query::TpchQ1Analog();
  const int threads = 3;
  const query::QueryPipeline pipe = query::LowerToPipeline(spec, TestDb());
  const int64_t slots = pipe.agg.plan.num_slots();
  ASSERT_GT(slots, 1);
  ASSERT_GT(pipe.agg.num_vectors, 1);
  const int64_t scratch =
      int64_t{threads} * pipe.agg.num_vectors * query::kVectorRows * 8;

  const query::FootprintEstimate est =
      query::EstimateFootprint(pipe, threads);
  ASSERT_TRUE(est.dense_preferred);
  EXPECT_EQ(est.dense_agg_bytes,
            threads * pipe.layout.cells * slots * 8 + scratch);
  EXPECT_GT(est.sparse_agg_bytes, scratch);
  EXPECT_GT(est.shared_agg_bytes, scratch);

  // A scalar spec's rungs are its one-cell grids plus the scratch.
  const query::QueryPipeline scalar = query::LowerToPipeline(
      Adhoc("sum extendedprice*(100-discount), avg quantity"), TestDb());
  const query::FootprintEstimate scalar_est =
      query::EstimateFootprint(scalar, threads);
  const int64_t scalar_bytes =
      threads * scalar.agg.plan.num_slots() * 8 +
      int64_t{threads} * scalar.agg.num_vectors * query::kVectorRows * 8;
  EXPECT_EQ(scalar_est.dense_agg_bytes, scalar_bytes);
  EXPECT_EQ(scalar_est.sparse_agg_bytes, scalar_bytes);
  EXPECT_EQ(scalar_est.shared_agg_bytes, scalar_bytes);

  ThreadPool pool(threads);
  {
    StatusOr<std::unique_ptr<FusedQuery>> fused =
        FusedQuery::Create(spec, TestDb(), threads, pool);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_EQ(budget.used(MemCategory::kAggScratch), est.dense_agg_bytes);
  }
  EXPECT_EQ(budget.used(MemCategory::kAggScratch), 0);
}

TEST(AggProgramTest, SharedColumnsAndSubexpressionsLowerOnce) {
  // The Q1 analog reads quantity, extendedprice and discount across
  // eight slots: one load each, one subtract and one multiply, and
  // extendedprice*(100-discount) fits int64 without a check.
  const query::QueryPipeline pipe =
      query::LowerToPipeline(query::TpchQ1Analog(), TestDb());
  int loads = 0;
  int arith = 0;
  for (const query::AggOp& op : pipe.agg.program) {
    if (op.kind == query::AggOp::Kind::kLoad) {
      ++loads;
    } else {
      ++arith;
      EXPECT_FALSE(op.checked);
    }
  }
  EXPECT_EQ(loads, 3);
  EXPECT_EQ(arith, 2);
  EXPECT_FALSE(pipe.agg.const_overflow);

  // A constant subexpression that overflows is folded once and flagged.
  const query::QueryPipeline folded = query::LowerToPipeline(
      Adhoc("sum quantity*(2000000000*2000000000*4)"), TestDb());
  EXPECT_TRUE(folded.agg.const_overflow);
}

using PairMap = std::unordered_map<int32_t, int32_t>;

/// keys[i] -> payloads[i] for the i in [0, n) where pred(i) holds.
PairMap MapOf(const int32_t* keys, const int32_t* payloads, int64_t n,
              const std::function<bool(int64_t)>& pred) {
  PairMap map;
  for (int64_t i = 0; i < n; ++i) {
    if (pred(i)) map.emplace(keys[i], payloads[i]);
  }
  return map;
}

/// Probes `table` with keys[0, n) through every kernel path, both as a
/// first stage (no selection vector) and on a selection vector with
/// carried positions, and expects exactly the sel/val/pos a lookup in
/// `map` (the same key -> payload pairs) gives.
void ExpectProbesMatch(const cpu::JoinTable& table, const PairMap& map,
                       const int32_t* keys, int n) {
  std::vector<int32_t> in_sel;
  for (int i = 0; i < n; i += 3) in_sel.push_back(i);
  for (bool simd : {false, true}) {
    if (simd && !cpu::SimdAvailable()) continue;
    cpu::SetSimdEnabled(simd);
    for (bool with_sel : {false, true}) {
      const int m = with_sel ? static_cast<int>(in_sel.size()) : n;
      const int32_t* sel = with_sel ? in_sel.data() : nullptr;
      std::vector<int32_t> want_sel, want_val, want_pos;
      for (int i = 0; i < m; ++i) {
        const int32_t row = sel != nullptr ? sel[i] : i;
        const auto it = map.find(keys[row]);
        if (it == map.end()) continue;
        want_sel.push_back(row);
        want_val.push_back(it->second);
        want_pos.push_back(i);
      }
      std::vector<int32_t> got_sel(n + 8), got_val(n + 8), got_pos(n + 8);
      const int got =
          cpu::ProbeDirect(table.direct(), keys, sel, m, got_sel.data(),
                           got_val.data(), got_pos.data());
      ASSERT_EQ(got, static_cast<int>(want_sel.size()))
          << "simd=" << simd << " sel=" << with_sel;
      for (int i = 0; i < got; ++i) {
        ASSERT_EQ(got_sel[i], want_sel[i]) << i;
        ASSERT_EQ(got_val[i], want_val[i]) << i;
        ASSERT_EQ(got_pos[i], want_pos[i]) << i;
      }
    }
  }
}

/// The JoinDomain of keys[i] -> payloads[i], i in [0, n), by scanning.
cpu::JoinDomain DomainOf(const int32_t* keys, const int32_t* payloads,
                         int64_t n) {
  return {n, ScanRange(keys, n), ScanRange(payloads, n)};
}

TEST(BuildJoinTableTest, RepresentationsMatchAMapReference) {
  // Build both representations of one filtered build side directly and
  // probe them with every kernel path; they must emit exactly the matches
  // of a map over the same rows. At SF=1 part's brand payload is a 400 KB
  // uint16 array and its filter-only side a 25 KB bitmap.
  DispatchGuard guard;
  ThreadPool pool(2);
  const Database& db = TestDb();
  const auto pred = [&](int64_t i) {
    return db.p.category[static_cast<size_t>(i)] == 12;
  };
  for (bool reads_payload : {true, false}) {
    const int32_t* payloads =
        reads_payload ? db.p.brand1.data() : db.p.partkey.data();
    const cpu::JoinDomain domain =
        DomainOf(db.p.partkey.data(), payloads, db.p.rows);
    const cpu::JoinTable table =
        cpu::BuildJoinTable(db.p.partkey.data(), payloads, domain, pred,
                            reads_payload, pool);
    EXPECT_EQ(table.layout.form, reads_payload ? cpu::JoinForm::kPayload
                                               : cpu::JoinForm::kBitmap);
    if (reads_payload) {
      EXPECT_EQ(table.layout.width, 2);
    }
    EXPECT_EQ(table.bytes(), table.layout.bytes());
    ExpectProbesMatch(table,
                      MapOf(db.p.partkey.data(), payloads, db.p.rows, pred),
                      db.lo.partkey.data(), 1024);
  }
}

TEST(BuildJoinTableTest, Int32MinPayloadTakesTheTwoLevelForm) {
  // A legal INT32_MIN payload leaves an int32 array no free sentinel: the
  // build goes two-level (the bitmap decides membership) instead of
  // aborting, and probes exactly like a map over the same rows.
  DispatchGuard guard;
  ThreadPool pool(2);
  const int64_t n = 5000;
  std::vector<int32_t> keys(n), payloads(n);
  for (int64_t i = 0; i < n; ++i) {
    keys[i] = static_cast<int32_t>(100 + i);
    payloads[i] = i % 3 == 0   ? INT32_MIN
                  : i % 3 == 1 ? INT32_MAX - static_cast<int32_t>(i)
                               : -static_cast<int32_t>(i);
  }
  const auto pred = [](int64_t i) { return i % 5 != 0; };
  const cpu::JoinDomain domain = DomainOf(keys.data(), payloads.data(), n);
  const cpu::JoinTable table = cpu::BuildJoinTable(
      keys.data(), payloads.data(), domain, pred, /*reads_payload=*/true,
      pool);
  EXPECT_EQ(table.layout.form, cpu::JoinForm::kTwoLevel);
  EXPECT_EQ(table.layout.width, 4);

  // Probe keys below, inside and past the domain, negative ones included.
  std::vector<int32_t> probe;
  for (int32_t k = -40; k < 100 + n + 40; k += 3) probe.push_back(k);
  probe.push_back(INT32_MIN);
  probe.push_back(INT32_MAX);
  ExpectProbesMatch(table, MapOf(keys.data(), payloads.data(), n, pred),
                    probe.data(), static_cast<int>(probe.size()));
}

TEST(BuildJoinTableTest, LayoutPicksTheNarrowestSentinelFreeWidth) {
  DispatchGuard guard;
  const int64_t n = 1000;
  std::vector<int32_t> keys(n), payloads(n, 0);
  for (int64_t i = 0; i < n; ++i) keys[i] = static_cast<int32_t>(i + 1);
  const auto plan = [&](int32_t lo, int32_t hi) {
    payloads[0] = lo;
    payloads[1] = hi;
    return cpu::PlanJoinLayout(DomainOf(keys.data(), payloads.data(), n),
                               true);
  };
  EXPECT_EQ(plan(0, 254).width, 1);
  EXPECT_EQ(plan(0, 255).width, 2);  // 0xFF is the uint8 sentinel
  EXPECT_EQ(plan(0, 65534).width, 2);
  EXPECT_EQ(plan(0, 65535).width, 4);
  EXPECT_EQ(plan(-1, 3).width, 4);
  EXPECT_EQ(plan(0, 3).form, cpu::JoinForm::kPayload);
  EXPECT_EQ(plan(INT32_MIN, 3).form, cpu::JoinForm::kTwoLevel);
  const cpu::JoinLayout bitmap =
      cpu::PlanJoinLayout(DomainOf(keys.data(), payloads.data(), n), false);
  EXPECT_EQ(bitmap.form, cpu::JoinForm::kBitmap);
  EXPECT_EQ(bitmap.bytes(), (n + 31) / 32 * 4);

  // An array past kMaxSingleLevelBytes puts a bitmap in front; one at the
  // threshold stays a single array.
  const int64_t big = cpu::kMaxSingleLevelBytes / 2 + 1;
  std::vector<int32_t> big_keys(big), big_payloads(big, 300);
  for (int64_t i = 0; i < big; ++i) big_keys[i] = static_cast<int32_t>(i);
  const cpu::JoinLayout two = cpu::PlanJoinLayout(
      DomainOf(big_keys.data(), big_payloads.data(), big), true);
  EXPECT_EQ(two.form, cpu::JoinForm::kTwoLevel);
  EXPECT_EQ(two.width, 2);
  const cpu::JoinLayout one = cpu::PlanJoinLayout(
      DomainOf(big_keys.data(), big_payloads.data(), big - 1), true);
  EXPECT_EQ(one.form, cpu::JoinForm::kPayload);
  EXPECT_EQ(one.bytes(), (big - 1) * 2 + 2);

  // An empty domain plans zero bytes for either probe, and a table built
  // over it misses every key on both paths.
  ThreadPool pool(1);
  const std::vector<int32_t> probe = {-1, 0, 1, 2, INT32_MIN, INT32_MAX,
                                      5,  6, 7, 8, 9,         10};
  for (bool reads_payload : {true, false}) {
    EXPECT_EQ(cpu::PlanJoinLayout({}, reads_payload).bytes(), 0);
    const cpu::JoinTable empty = cpu::BuildJoinTable(
        keys.data(), payloads.data(), {}, [](int64_t) { return true; },
        reads_payload, pool);
    EXPECT_EQ(empty.bytes(), 0);
    ExpectProbesMatch(empty, {}, probe.data(),
                      static_cast<int>(probe.size()));
  }
}

TEST(BuildJoinTableTest, KeyDomainWiderThanMaxJoinSpanIsRejected) {
  // A customer key range of [0, INT32_MAX] spans 2^31 slots, one more
  // than a build side addresses: query setup fails with InvalidArgument
  // before anything is built, while the footprint model still plans it.
  DispatchGuard guard;
  Database db = TestDb();
  const std::array<const Column*, 16> cols = db.DimColumns();
  const auto custkey = std::find(cols.begin(), cols.end(), &db.c.custkey);
  ASSERT_NE(custkey, cols.end());
  db.dim_ranges[static_cast<size_t>(custkey - cols.begin())] = {0, INT32_MAX};
  const query::QuerySpec spec =
      Adhoc("sum revenue join customer on custkey filter c_region = 1");

  const query::FootprintEstimate est =
      query::EstimateFootprint(query::LowerToPipeline(spec, db), 2);
  EXPECT_EQ(est.build_bytes, (cpu::kMaxJoinSpan + 1) / 8);

  const int64_t cached = cpu::BuildCache::Process().bytes();
  ThreadPool pool(2);
  StatusOr<std::unique_ptr<FusedQuery>> fused =
      FusedQuery::Create(spec, db, 2, pool);
  ASSERT_FALSE(fused.ok());
  EXPECT_EQ(fused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fused.status().ToString().find("customer"), std::string::npos)
      << fused.status().ToString();
  EXPECT_EQ(cpu::BuildCache::Process().bytes(), cached);
}

// ------------------------------------------------ SF=10 dimension tables

/// SF=10 dimensions (part's brand array is 1.6 MB, past
/// cpu::kMaxSingleLevelBytes) over a 60K-row fact sample, in one encoding.
const Database& Sf10Db(storage::Encoding encoding) {
  static const Database* plain = nullptr;
  static const Database* packed = nullptr;
  const Database*& db =
      encoding == storage::Encoding::kPlain ? plain : packed;
  if (db == nullptr) {
    DatagenOptions options;
    options.scale_factor = 10;
    options.fact_divisor = 1000;
    options.storage.encoding = encoding;
    db = new Database(Generate(options));
  }
  return *db;
}

TEST(Sf10DimensionsTest, FootprintPredictsEveryBuiltTableExactly) {
  // For every canonical spec and the TPC-H analogs, the footprint model's
  // build bytes are the bytes of the tables the engine actually builds —
  // the two-level part brand side included.
  DispatchGuard guard;
  const Database& db = Sf10Db(storage::Encoding::kPlain);
  ThreadPool pool(2);
  std::vector<query::QuerySpec> specs;
  for (QueryId id : kAllQueries) specs.push_back(query::SsbSpec(id));
  specs.push_back(query::TpchQ1Analog());
  specs.push_back(query::TpchQ6Analog());
  // q2.x and q4.3 group by p_brand1: their part side is two-level.
  ASSERT_EQ(cpu::PlanJoinLayout(
                DomainOf(db.p.partkey.data(), db.p.brand1.data(), db.p.rows),
                /*reads_payload=*/true)
                .form,
            cpu::JoinForm::kTwoLevel);
  for (const query::QuerySpec& spec : specs) {
    cpu::BuildCache::Process().Clear();
    const query::FootprintEstimate est =
        query::EstimateFootprint(query::LowerToPipeline(spec, db), 2);
    StatusOr<std::unique_ptr<FusedQuery>> fused =
        FusedQuery::Create(spec, db, 2, pool);
    ASSERT_TRUE(fused.ok()) << spec.name;
    EXPECT_EQ(est.build_bytes, cpu::BuildCache::Process().bytes())
        << spec.name;
  }
}

struct Sf10Param {
  storage::Encoding encoding;
  bool simd;
};

class Sf10ParityTest : public testing::TestWithParam<Sf10Param> {};

TEST_P(Sf10ParityTest, JoinFlightsMatchReference) {
  // The driver matrix `crystaldb --engines=vectorized-cpu --sf=10
  // --fact-divisor=1000 --queries=q2,q3,q4`, plain and packed, SIMD on and
  // off: every join flight over SF=10 build sides (bitmaps, uint8/uint16
  // arrays, the two-level part side) answers like the reference.
  const Sf10Param p = GetParam();
  if (p.simd && !cpu::SimdAvailable()) GTEST_SKIP() << "no AVX2 host";
  DispatchGuard guard;
  cpu::SetSimdEnabled(p.simd);
  cpu::BuildCache::Process().Clear();
  const Database& db = Sf10Db(p.encoding);
  ThreadPool pool(2);
  VectorizedCpuEngine engine(db, pool);
  for (QueryId id : kAllQueries) {
    if (QueryFlight(id) == 1) continue;
    const QueryResult want = RunReference(db, id);
    const QueryResult got = engine.Run(id);
    EXPECT_TRUE(got == want) << QueryName(id) << ": got " << got.ToString()
                             << " want " << want.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Sf10ParityTest,
    testing::Values(Sf10Param{storage::Encoding::kPlain, true},
                    Sf10Param{storage::Encoding::kPlain, false},
                    Sf10Param{storage::Encoding::kPacked, true},
                    Sf10Param{storage::Encoding::kPacked, false}),
    [](const testing::TestParamInfo<Sf10Param>& info) {
      return std::string(storage::EncodingName(info.param.encoding)) +
             (info.param.simd ? "_simd" : "_scalar");
    });

}  // namespace
}  // namespace crystal::ssb
