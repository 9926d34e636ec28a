#include "ssb/datagen.h"

#include <cmath>
#include <optional>

#include "common/macros.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ssb/dict.h"

namespace crystal::ssb {

int64_t LineorderRows(int scale_factor) { return 6'000'000ll * scale_factor; }
int64_t CustomerRows(int scale_factor) { return 30'000ll * scale_factor; }
int64_t SupplierRows(int scale_factor) { return 2'000ll * scale_factor; }

int64_t PartRows(int scale_factor) {
  // dbgen: 200,000 * floor(1 + log2(SF)).
  const double l = std::log2(static_cast<double>(scale_factor));
  return 200'000ll * (1 + static_cast<int64_t>(l));
}

namespace {

constexpr int kFactColumns = 9;

// RNG draws per fact row: one per column, in column order. The parallel
// fill seeks each chunk's stream by it; the golden hashes in
// DatagenStorageTest.FactColumnsMatchGoldenHashes pin the draw order.
constexpr int64_t kFactDrawsPerRow = kFactColumns;

// Rows per parallel fill chunk. A multiple of 32, so a packed chunk of any
// width spans whole 32-bit words and no two chunks OR into the same word.
constexpr int64_t kRowsPerChunk = int64_t{1} << 16;
static_assert(kRowsPerChunk % 32 == 0);

constexpr int kDaysPerMonth[12] = {31, 28, 31, 30, 31, 30,
                                   31, 31, 30, 31, 30, 31};

bool IsLeap(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

struct Ymd {
  int year;
  int month;  // 1-based
  int day;    // 1-based
};

Ymd DayIndexToYmd(int day_index) {
  int year = 1992;
  for (;;) {
    const int days_in_year = IsLeap(year) ? 366 : 365;
    if (day_index < days_in_year) break;
    day_index -= days_in_year;
    ++year;
  }
  int month = 1;
  for (;;) {
    int dim = kDaysPerMonth[month - 1];
    if (month == 2 && IsLeap(year)) dim = 29;
    if (day_index < dim) break;
    day_index -= dim;
    ++month;
  }
  return Ymd{year, month, day_index + 1};
}

}  // namespace

int32_t DateKeyForDay(int day_index) {
  const Ymd ymd = DayIndexToYmd(day_index);
  return ymd.year * 10000 + ymd.month * 100 + ymd.day;
}

Database Generate(const DatagenOptions& options, ThreadPool& pool) {
  CRYSTAL_CHECK(options.scale_factor >= 1);
  CRYSTAL_CHECK(options.fact_divisor >= 1);
  Database db;
  db.scale_factor = options.scale_factor;
  db.fact_divisor = options.fact_divisor;
  db.seed = options.seed;
  db.storage = options.storage.encoding;
  Rng rng(options.seed);

  // ---- date: 2556 consecutive days from 1992-01-01.
  db.d.rows = kDateRows;
  db.d.datekey.resize(kDateRows);
  db.d.year.resize(kDateRows);
  db.d.yearmonthnum.resize(kDateRows);
  db.d.weeknuminyear.resize(kDateRows);
  int week = 1;
  int week_day = 0;
  int prev_year = 1992;
  for (int i = 0; i < kDateRows; ++i) {
    const Ymd ymd = DayIndexToYmd(i);
    if (ymd.year != prev_year) {
      prev_year = ymd.year;
      week = 1;
      week_day = 0;
    }
    db.d.datekey[i] = ymd.year * 10000 + ymd.month * 100 + ymd.day;
    db.d.year[i] = ymd.year;
    db.d.yearmonthnum[i] = ymd.year * 100 + ymd.month;
    db.d.weeknuminyear[i] = week;
    if (++week_day == 7) {
      week_day = 0;
      ++week;
    }
  }

  // ---- customer.
  db.c.rows = CustomerRows(options.scale_factor);
  db.c.custkey.resize(db.c.rows);
  db.c.city.resize(db.c.rows);
  db.c.nation.resize(db.c.rows);
  db.c.region.resize(db.c.rows);
  for (int64_t i = 0; i < db.c.rows; ++i) {
    const int32_t city = rng.UniformInt(0, 249);
    db.c.custkey[i] = static_cast<int32_t>(i + 1);
    db.c.city[i] = city;
    db.c.nation[i] = city / 10;
    db.c.region[i] = city / 50;
  }

  // ---- supplier.
  db.s.rows = SupplierRows(options.scale_factor);
  db.s.suppkey.resize(db.s.rows);
  db.s.city.resize(db.s.rows);
  db.s.nation.resize(db.s.rows);
  db.s.region.resize(db.s.rows);
  for (int64_t i = 0; i < db.s.rows; ++i) {
    const int32_t city = rng.UniformInt(0, 249);
    db.s.suppkey[i] = static_cast<int32_t>(i + 1);
    db.s.city[i] = city;
    db.s.nation[i] = city / 10;
    db.s.region[i] = city / 50;
  }

  // ---- part.
  db.p.rows = PartRows(options.scale_factor);
  db.p.partkey.resize(db.p.rows);
  db.p.mfgr.resize(db.p.rows);
  db.p.category.resize(db.p.rows);
  db.p.brand1.resize(db.p.rows);
  for (int64_t i = 0; i < db.p.rows; ++i) {
    const int32_t mfgr = rng.UniformInt(1, dict::kNumMfgrs);
    const int32_t category =
        mfgr * 10 + rng.UniformInt(1, dict::kCategoriesPerMfgr);
    const int32_t brand1 =
        category * 100 + rng.UniformInt(1, dict::kBrandsPerCategory);
    db.p.partkey[i] = static_cast<int32_t>(i + 1);
    db.p.mfgr[i] = mfgr;
    db.p.category[i] = category;
    db.p.brand1[i] = brand1;
  }

  // ---- lineorder.
  // Rows stream straight into the storage layer's builders: each value is
  // written once into its final (plain or packed) buffer, so packed
  // generation never materializes a plain copy and peak RSS is bounded by
  // the encoded size even at SF >= 10. The RNG stream and per-row draw
  // order are identical in both modes, so a packed and a plain database
  // from the same options hold the same values row for row.
  //
  // Packed layouts are frame-of-reference over the generator's known value
  // domains (the column minimum as reference, bits covering the span) —
  // e.g. at SF=1: orderdate 16 bits, custkey 15, partkey 18, suppkey 11,
  // quantity 6, discount 4, extendedprice 16, revenue 17, supplycost 15.
  db.lo.rows = LineorderRows(options.scale_factor) / options.fact_divisor;
  const storage::Encoding enc = options.storage.encoding;
  struct FactDomain {
    int32_t reference;
    int64_t max_value;
  };
  const FactDomain domains[kFactColumns] = {
      {db.d.datekey[0], db.d.datekey[kDateRows - 1]},  // orderdate
      {1, db.c.rows},                                  // custkey
      {1, db.p.rows},                                  // partkey
      {1, db.s.rows},                                  // suppkey
      {1, 50},                                         // quantity
      {0, 10},                                         // discount
      {1, 60'000},                                     // extendedprice
      {1, 100'000},                                    // revenue
      {1, 20'000},                                     // supplycost
  };
  // One column per task: the builders' zero-fill is the first touch of
  // every fact page, and page faults are a large share of generation.
  std::optional<storage::ColumnBuilder> builders[kFactColumns];
  pool.ParallelForMorsels(kFactColumns, 1, [&](int, int64_t c, int64_t) {
    const uint32_t span =
        static_cast<uint32_t>(domains[c].max_value - domains[c].reference);
    builders[c].emplace(enc, db.lo.rows, domains[c].reference,
                        storage::BitsForSpan(span));
  });
  storage::ColumnBuilder& orderdate = *builders[0];
  storage::ColumnBuilder& custkey = *builders[1];
  storage::ColumnBuilder& partkey = *builders[2];
  storage::ColumnBuilder& suppkey = *builders[3];
  storage::ColumnBuilder& quantity = *builders[4];
  storage::ColumnBuilder& discount = *builders[5];
  storage::ColumnBuilder& extendedprice = *builders[6];
  storage::ColumnBuilder& revenue = *builders[7];
  storage::ColumnBuilder& supplycost = *builders[8];
  // Row i's draws start kFactDrawsPerRow * i draws past the post-dimension
  // stream, so each chunk seeks a private copy there and the output does
  // not depend on the thread count or the order chunks run in.
  pool.ParallelForMorsels(
      db.lo.rows, kRowsPerChunk, [&](int, int64_t begin, int64_t end) {
        Rng chunk_rng = rng;
        chunk_rng.Skip(static_cast<uint64_t>(kFactDrawsPerRow * begin));
        for (int64_t i = begin; i < end; ++i) {
          orderdate.Set(i, db.d.datekey[chunk_rng.UniformInt(
                               0, static_cast<int32_t>(kDateRows - 1))]);
          custkey.Set(
              i, chunk_rng.UniformInt(1, static_cast<int32_t>(db.c.rows)));
          partkey.Set(
              i, chunk_rng.UniformInt(1, static_cast<int32_t>(db.p.rows)));
          suppkey.Set(
              i, chunk_rng.UniformInt(1, static_cast<int32_t>(db.s.rows)));
          quantity.Set(i, chunk_rng.UniformInt(1, 50));
          discount.Set(i, chunk_rng.UniformInt(0, 10));
          extendedprice.Set(i, chunk_rng.UniformInt(1, 60'000));
          revenue.Set(i, chunk_rng.UniformInt(1, 100'000));
          supplycost.Set(i, chunk_rng.UniformInt(1, 20'000));
        }
      });
  db.lo.orderdate = orderdate.Finish();
  db.lo.custkey = custkey.Finish();
  db.lo.partkey = partkey.Finish();
  db.lo.suppkey = suppkey.Finish();
  db.lo.quantity = quantity.Finish();
  db.lo.discount = discount.Finish();
  db.lo.extendedprice = extendedprice.Finish();
  db.lo.revenue = revenue.Finish();
  db.lo.supplycost = supplycost.Finish();
  db.FillDimRanges();
  return db;
}

Database Generate(const DatagenOptions& options) {
  return Generate(options, ThreadPool::Default());
}

Database Generate(int scale_factor, int fact_divisor, uint64_t seed) {
  DatagenOptions options;
  options.scale_factor = scale_factor;
  options.fact_divisor = fact_divisor;
  options.seed = seed;
  return Generate(options);
}

}  // namespace crystal::ssb
