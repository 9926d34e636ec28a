#ifndef CRYSTAL_SSB_SCHEMA_H_
#define CRYSTAL_SSB_SCHEMA_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/macros.h"
#include "common/value_range.h"
#include "storage/encoded_column.h"

namespace crystal::ssb {

/// Star Schema Benchmark columns, dictionary-encoded to 4-byte integers
/// exactly as the paper's evaluation does (Section 5.2: "we dictionary
/// encode the string columns into integers prior to data loading ... all
/// column entries are 4-byte values").
///
/// Encodings (see dict.h for the string mapping):
///  * region:   0..4   (AFRICA, AMERICA, ASIA, EUROPE, MIDDLE EAST)
///  * nation:   0..24, region = nation / 5
///  * city:     0..249, nation = city / 10
///  * p_mfgr:   1..5          ("MFGR#m")
///  * p_category: mfgr*10 + c, c in 1..5      ("MFGR#mc", e.g. 12)
///  * p_brand1: category*100 + b, b in 1..40  ("MFGR#mcbb", e.g. 1221)
///  * dates:    d_datekey = yyyymmdd
using Column = AlignedVector<int32_t>;

/// Fact columns live behind the storage layer (storage/encoded_column.h):
/// plain int32 or frame-of-reference bit-packed, selected by the
/// StorageOptions knob at generation time. Dimension tables stay plain —
/// they are cache-sized and only touched through build sides, so packing
/// them buys nothing the paper measures.
struct LineorderTable {
  storage::EncodedColumn orderdate;      // FK -> date.datekey (yyyymmdd)
  storage::EncodedColumn custkey;        // FK -> customer
  storage::EncodedColumn partkey;        // FK -> part
  storage::EncodedColumn suppkey;        // FK -> supplier
  storage::EncodedColumn quantity;       // 1..50
  storage::EncodedColumn discount;       // 0..10
  storage::EncodedColumn extendedprice;  // 1..~6e4
  storage::EncodedColumn revenue;        // 1..~1e5
  storage::EncodedColumn supplycost;     // 1..~2e4

  int64_t rows = 0;
  /// Bytes of one *plain* fact column; encoded sizes come from the columns
  /// themselves (EncodedColumn::encoded_bytes).
  int64_t column_bytes() const { return rows * 4; }
};

struct DateTable {
  Column datekey;        // yyyymmdd
  Column year;           // 1992..1998
  Column yearmonthnum;   // yyyymm
  Column weeknuminyear;  // 1..53
  int64_t rows = 0;
};

struct CustomerTable {
  Column custkey;  // 1..rows (dense)
  Column city;
  Column nation;
  Column region;
  int64_t rows = 0;
};

struct SupplierTable {
  Column suppkey;  // 1..rows (dense)
  Column city;
  Column nation;
  Column region;
  int64_t rows = 0;
};

struct PartTable {
  Column partkey;  // 1..rows (dense)
  Column mfgr;
  Column category;
  Column brand1;
  int64_t rows = 0;
};

/// A generated SSB database instance.
struct Database {
  LineorderTable lo;
  DateTable d;
  CustomerTable c;
  SupplierTable s;
  PartTable p;

  int scale_factor = 1;
  /// Generation seed, recorded by ssb::Generate so every consumer (driver
  /// reports in particular) can state exactly how to reproduce this
  /// instance without trusting the caller to echo the right value.
  uint64_t seed = 0;
  /// Fact-table subsampling divisor: dimension cardinalities follow
  /// scale_factor while the fact table holds 6M*SF/fact_divisor rows.
  /// Cache-residency behaviour (driven by dimension hash-table sizes) then
  /// matches the full scale factor, and fact-proportional kernel times can
  /// be scaled back up exactly (they are bandwidth-linear in |L|).
  int fact_divisor = 1;
  /// Fact-column storage encoding this instance was generated with,
  /// recorded so reports can echo it (values are identical either way).
  storage::Encoding storage = storage::Encoding::kPlain;

  /// ValueRange of every dimension column, in DimColumns() order, filled
  /// once by ssb::Generate (FillDimRanges). Build-side planning reads its
  /// key and payload ranges here instead of rescanning the dimension on
  /// every query (query::EstimateFootprint).
  std::vector<ValueRange> dim_ranges;

  /// Full-scale fact rows this instance stands in for (6M * SF).
  int64_t full_scale_fact_rows() const {
    return 6'000'000ll * scale_factor;
  }

  /// Every dimension column of this instance, in a fixed order.
  std::array<const Column*, 16> DimColumns() const {
    return {&d.datekey, &d.year,     &d.yearmonthnum, &d.weeknuminyear,
            &c.custkey, &c.city,     &c.nation,       &c.region,
            &s.suppkey, &s.city,     &s.nation,       &s.region,
            &p.partkey, &p.mfgr,     &p.category,     &p.brand1};
  }

  /// Computes dim_ranges from the current dimension columns.
  void FillDimRanges() {
    dim_ranges.clear();
    for (const Column* col : DimColumns()) {
      dim_ranges.push_back(
          ScanRange(col->data(), static_cast<int64_t>(col->size())));
    }
  }

  /// The precomputed ValueRange of one of this instance's dimension
  /// columns (FillDimRanges must have run, as ssb::Generate does).
  ValueRange DimRange(const Column& col) const {
    const std::array<const Column*, 16> cols = DimColumns();
    CRYSTAL_CHECK_MSG(dim_ranges.size() == cols.size(),
                      "dimension ranges not filled (FillDimRanges)");
    for (size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == &col) return dim_ranges[k];
    }
    CRYSTAL_CHECK_MSG(false, "not a dimension column of this database");
    return {};
  }
};

/// SSB cardinalities as a function of scale factor (dbgen's rules).
int64_t LineorderRows(int scale_factor);
int64_t CustomerRows(int scale_factor);
int64_t SupplierRows(int scale_factor);
int64_t PartRows(int scale_factor);
constexpr int64_t kDateRows = 2556;  // 1992-01-01 .. 1998-12-31 (7 years)

}  // namespace crystal::ssb

#endif  // CRYSTAL_SSB_SCHEMA_H_
