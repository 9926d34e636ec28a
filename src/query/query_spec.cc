#include "query/query_spec.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "common/macros.h"
#include "ssb/dict.h"

namespace crystal::query {

namespace {

struct FactColInfo {
  const char* name;
};

constexpr FactColInfo kFactCols[kNumFactCols] = {
    {"orderdate"},    {"custkey"},  {"partkey"},
    {"suppkey"},      {"quantity"}, {"discount"},
    {"extendedprice"}, {"revenue"}, {"supplycost"},
};

constexpr const char* kDimTables[kNumDimTables] = {"date", "customer",
                                                   "supplier", "part"};

struct DimColInfo {
  const char* name;
  DimTable table;
  int32_t lo;
  int32_t hi;
  bool has_dict;
};

// Domains follow the dictionary encoding (ssb/dict.h, ssb/schema.h):
// 7 benchmark years, yyyymm month numbers, 53 weeks, 250 cities in 25
// nations in 5 regions, and the MFGR part hierarchy. Brand codes start at
// category 11 * 100, so 1100 is a safe dense-grid base (the paper's q4.3
// grid uses the same offset). The date attributes are plain numbers; every
// other column has a string dictionary behind its codes.
constexpr DimColInfo kDimCols[kNumDimCols] = {
    {"d_year", DimTable::kDate, 1992, 1998, false},
    {"d_yearmonthnum", DimTable::kDate, 199201, 199812, false},
    {"d_weeknuminyear", DimTable::kDate, 1, 53, false},
    {"c_city", DimTable::kCustomer, 0, 249, true},
    {"c_nation", DimTable::kCustomer, 0, 24, true},
    {"c_region", DimTable::kCustomer, 0, 4, true},
    {"s_city", DimTable::kSupplier, 0, 249, true},
    {"s_nation", DimTable::kSupplier, 0, 24, true},
    {"s_region", DimTable::kSupplier, 0, 4, true},
    {"p_mfgr", DimTable::kPart, 1, 5, true},
    {"p_category", DimTable::kPart, 0, 55, true},
    {"p_brand1", DimTable::kPart, 1100, 5540, true},
};

constexpr const char* kAggFuncs[] = {"sum", "count", "avg", "min", "max"};
constexpr AggFunc kAggFuncIds[] = {AggFunc::kSum, AggFunc::kCount,
                                   AggFunc::kAvg, AggFunc::kMin,
                                   AggFunc::kMax};

/// The dictionary name of one code of a string-dictionary column.
std::string DictName(DimCol col, int32_t code) {
  switch (col) {
    case DimCol::kCCity:
    case DimCol::kSCity:
      return ssb::dict::CityName(code);
    case DimCol::kCNation:
    case DimCol::kSNation:
      return ssb::dict::NationName(code);
    case DimCol::kCRegion:
    case DimCol::kSRegion:
      return ssb::dict::RegionName(code);
    case DimCol::kPMfgr:
      return ssb::dict::MfgrName(code);
    case DimCol::kPCategory:
      return ssb::dict::CategoryName(code);
    case DimCol::kPBrand1:
      return ssb::dict::BrandName(code);
    default:
      CRYSTAL_CHECK_MSG(false, "DictName on a non-dictionary column");
      return {};
  }
}

bool NameMatches(const std::string& name, DimFilter::StrMatch match,
                 const std::string& pattern) {
  if (match == DimFilter::StrMatch::kPrefix) {
    return name.size() >= pattern.size() &&
           name.compare(0, pattern.size(), pattern) == 0;
  }
  return name.find(pattern) != std::string::npos;
}

}  // namespace

std::string_view FactColName(FactCol col) {
  return kFactCols[static_cast<int>(col)].name;
}

std::string_view DimTableName(DimTable table) {
  return kDimTables[static_cast<int>(table)];
}

std::string_view DimColName(DimCol col) {
  return kDimCols[static_cast<int>(col)].name;
}

bool FactColFromName(std::string_view name, FactCol* out) {
  // Accept the schema spelling with or without the lo_ prefix.
  if (name.rfind("lo_", 0) == 0) name.remove_prefix(3);
  for (int i = 0; i < kNumFactCols; ++i) {
    if (name == kFactCols[i].name) {
      *out = static_cast<FactCol>(i);
      return true;
    }
  }
  return false;
}

bool DimTableFromName(std::string_view name, DimTable* out) {
  for (int i = 0; i < kNumDimTables; ++i) {
    if (name == kDimTables[i]) {
      *out = static_cast<DimTable>(i);
      return true;
    }
  }
  return false;
}

bool DimColFromName(std::string_view name, DimCol* out) {
  for (int i = 0; i < kNumDimCols; ++i) {
    if (name == kDimCols[i].name) {
      *out = static_cast<DimCol>(i);
      return true;
    }
  }
  return false;
}

DimTable TableOf(DimCol col) { return kDimCols[static_cast<int>(col)].table; }

void DimColDomain(DimCol col, int32_t* lo, int32_t* hi) {
  *lo = kDimCols[static_cast<int>(col)].lo;
  *hi = kDimCols[static_cast<int>(col)].hi;
}

bool DimColHasDict(DimCol col) {
  return kDimCols[static_cast<int>(col)].has_dict;
}

FactCol DefaultFactKey(DimTable table) {
  switch (table) {
    case DimTable::kDate: return FactCol::kOrderdate;
    case DimTable::kCustomer: return FactCol::kCustkey;
    case DimTable::kSupplier: return FactCol::kSuppkey;
    case DimTable::kPart: return FactCol::kPartkey;
  }
  return FactCol::kOrderdate;
}

// ------------------------------------------------------- row expressions

Expr ColExpr(FactCol col) {
  Expr e;
  Expr::Node node;
  node.op = Expr::Op::kCol;
  node.col = col;
  e.nodes.push_back(node);
  return e;
}

Expr ConstExpr(int32_t value) {
  Expr e;
  Expr::Node node;
  node.op = Expr::Op::kConst;
  node.value = value;
  e.nodes.push_back(node);
  return e;
}

Expr BinExpr(Expr::Op op, Expr a, Expr b) {
  Expr e = std::move(a);
  const int16_t root_a = static_cast<int16_t>(e.nodes.size()) - 1;
  const int16_t shift = static_cast<int16_t>(e.nodes.size());
  for (Expr::Node node : b.nodes) {
    if (node.op != Expr::Op::kCol && node.op != Expr::Op::kConst) {
      node.a = static_cast<int16_t>(node.a + shift);
      node.b = static_cast<int16_t>(node.b + shift);
    }
    e.nodes.push_back(node);
  }
  Expr::Node root;
  root.op = op;
  root.a = root_a;
  root.b = static_cast<int16_t>(e.nodes.size()) - 1;
  e.nodes.push_back(root);
  return e;
}

void ExprMarkColumns(const Expr& expr, bool seen[]) {
  for (const Expr::Node& node : expr.nodes) {
    if (node.op == Expr::Op::kCol) seen[static_cast<int>(node.col)] = true;
  }
}

int ExprArithOps(const Expr& expr) {
  int ops = 0;
  for (const Expr::Node& node : expr.nodes) {
    if (node.op != Expr::Op::kCol && node.op != Expr::Op::kConst) ++ops;
  }
  return ops;
}

// ------------------------------------------------------------ aggregates

std::string_view AggFuncName(AggFunc func) {
  return kAggFuncs[static_cast<int>(func)];
}

bool AggFuncFromName(std::string_view name, AggFunc* out) {
  for (size_t i = 0; i < 5; ++i) {
    if (name == kAggFuncs[i]) {
      *out = kAggFuncIds[i];
      return true;
    }
  }
  return false;
}

AggSpec Sum(Expr expr) { return AggSpec{AggFunc::kSum, std::move(expr)}; }
AggSpec Count() { return AggSpec{AggFunc::kCount, Expr{}}; }
AggSpec Avg(Expr expr) { return AggSpec{AggFunc::kAvg, std::move(expr)}; }
AggSpec Min(Expr expr) { return AggSpec{AggFunc::kMin, std::move(expr)}; }
AggSpec Max(Expr expr) { return AggSpec{AggFunc::kMax, std::move(expr)}; }

AggPlan PlanAggs(const QuerySpec& spec) {
  AggPlan plan;
  bool has_minmax = false;
  for (const AggSpec& agg : spec.aggs) {
    switch (agg.func) {
      case AggFunc::kAvg:
        // AVG is emitted exactly as its sum+count pair (integer IR).
        plan.slots.push_back({AggFunc::kSum, agg.expr, true});
        if (plan.count_slot < 0) {
          plan.count_slot = static_cast<int>(plan.slots.size());
        }
        plan.slots.push_back({AggFunc::kCount, Expr{}, true});
        break;
      case AggFunc::kCount:
        if (plan.count_slot < 0) {
          plan.count_slot = static_cast<int>(plan.slots.size());
        }
        plan.slots.push_back({AggFunc::kCount, Expr{}, true});
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        has_minmax = true;
        plan.slots.push_back({agg.func, agg.expr, true});
        break;
      default:
        plan.slots.push_back({AggFunc::kSum, agg.expr, true});
        break;
    }
  }
  // MIN/MAX identities (INT64_MAX/MIN) make a grid cell's liveness
  // undecidable from its values alone; a hidden count settles it.
  if (has_minmax && plan.count_slot < 0) {
    plan.count_slot = static_cast<int>(plan.slots.size());
    plan.slots.push_back({AggFunc::kCount, Expr{}, false});
  }
  for (const AggSlot& slot : plan.slots) {
    if (slot.emitted) ++plan.num_emitted;
  }
  return plan;
}

int64_t AggIdentity(AggFunc func) {
  switch (func) {
    case AggFunc::kMin: return INT64_MAX;
    case AggFunc::kMax: return INT64_MIN;
    default: return 0;
  }
}

void FillIdentity(const AggPlan& plan, int64_t* grid, int64_t cells) {
  const int slots = plan.num_slots();
  bool all_zero = true;
  for (const AggSlot& slot : plan.slots) {
    if (AggIdentity(slot.func) != 0) all_zero = false;
  }
  if (all_zero) {
    std::fill(grid, grid + cells * slots, 0);
    return;
  }
  for (int64_t c = 0; c < cells; ++c) {
    for (int s = 0; s < slots; ++s) {
      grid[c * slots + s] = AggIdentity(plan.slots[static_cast<size_t>(s)].func);
    }
  }
}

// ------------------------------------------------- dictionary predicates

const std::vector<int32_t>* ResolveDictFilter(DimCol col,
                                              DimFilter::StrMatch match,
                                              const std::string& pattern) {
  CRYSTAL_CHECK_MSG(DimColHasDict(col),
                    "string predicate on a non-dictionary column "
                    "(Validate first)");
  CRYSTAL_CHECK(match != DimFilter::StrMatch::kNone);
  // Process-wide cache keyed (column, match, pattern). Dictionary names
  // are pure functions of the codes — no database generation participates,
  // so entries never go stale and are kept for the process lifetime.
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<std::vector<int32_t>>>* cache =
      new std::map<std::string, std::unique_ptr<std::vector<int32_t>>>();
  std::string key = std::string(DimColName(col)) +
                    (match == DimFilter::StrMatch::kPrefix ? "|pre|" : "|sub|") +
                    pattern;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache->find(key);
    if (it != cache->end()) return it->second.get();
  }
  // Scan the dictionary outside the lock (scans are cheap — domains top
  // out at p_brand1's 4441 names — but there is no reason to serialize
  // concurrent server queries behind one).
  int32_t lo, hi;
  DimColDomain(col, &lo, &hi);
  auto codes = std::make_unique<std::vector<int32_t>>();
  for (int32_t code = lo; code <= hi; ++code) {
    if (NameMatches(DictName(col, code), match, pattern)) {
      codes->push_back(code);
    }
  }
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = cache->emplace(std::move(key), std::move(codes));
  return it->second.get();
}

bool BoundDimFilter::Matches(int32_t v) const {
  if (codes != nullptr) {
    return std::binary_search(codes->begin(), codes->end(), v);
  }
  return filter->Matches(v);
}

// ------------------------------------------------------------ validation

bool Validate(const QuerySpec& spec, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (spec.aggs.empty()) {
    return fail("query has no aggregates");
  }
  int value_slots = 0;
  for (const AggSpec& agg : spec.aggs) {
    value_slots += agg.func == AggFunc::kAvg ? 2 : 1;
    if (agg.func == AggFunc::kCount) {
      if (!agg.expr.empty()) {
        return fail("count takes no expression");
      }
      continue;
    }
    if (agg.expr.empty()) {
      return fail(std::string(AggFuncName(agg.func)) +
                  " requires an expression");
    }
    if (agg.expr.nodes.size() > static_cast<size_t>(kMaxExprNodes)) {
      return fail("aggregate expression too large (" +
                  std::to_string(agg.expr.nodes.size()) + " nodes, limit " +
                  std::to_string(kMaxExprNodes) + ")");
    }
    for (size_t i = 0; i < agg.expr.nodes.size(); ++i) {
      const Expr::Node& node = agg.expr.nodes[i];
      if (node.op == Expr::Op::kConst && node.value < 0) {
        return fail("negative constants are not supported; use subtraction");
      }
      if (node.op != Expr::Op::kCol && node.op != Expr::Op::kConst &&
          (node.a < 0 || node.b < 0 || node.a >= static_cast<int16_t>(i) ||
           node.b >= static_cast<int16_t>(i))) {
        return fail("malformed expression node pool");
      }
    }
  }
  if (value_slots > kMaxAggSlots) {
    return fail("too many aggregate values (" + std::to_string(value_slots) +
                ", limit " + std::to_string(kMaxAggSlots) + ")");
  }
  for (const FactFilter& f : spec.fact_filters) {
    if (f.lo > f.hi) {
      return fail("empty range on " + std::string(FactColName(f.col)));
    }
  }
  bool joined[kNumDimTables] = {false, false, false, false};
  for (const JoinSpec& join : spec.joins) {
    const int t = static_cast<int>(join.table);
    if (joined[t]) {
      return fail("table '" + std::string(DimTableName(join.table)) +
                  "' joined twice");
    }
    joined[t] = true;
    for (const DimFilter& f : join.filters) {
      if (TableOf(f.col) != join.table) {
        return fail("filter column " + std::string(DimColName(f.col)) +
                    " does not belong to table '" +
                    std::string(DimTableName(join.table)) + "'");
      }
      if (f.str_match != DimFilter::StrMatch::kNone) {
        if (!DimColHasDict(f.col)) {
          return fail("column " + std::string(DimColName(f.col)) +
                      " has no string dictionary; 'like' needs one");
        }
        if (f.pattern.empty()) {
          return fail("empty 'like' pattern on " +
                      std::string(DimColName(f.col)));
        }
        continue;
      }
      if (f.in_values.empty() && f.lo > f.hi) {
        return fail("empty range on " + std::string(DimColName(f.col)));
      }
    }
  }
  if (spec.group_by.size() > 3) {
    return fail("at most 3 group-by columns are supported");
  }
  bool grouped[kNumDimTables] = {false, false, false, false};
  int64_t cells = 1;
  for (DimCol col : spec.group_by) {
    const int t = static_cast<int>(TableOf(col));
    if (!joined[t]) {
      return fail("group column " + std::string(DimColName(col)) +
                  " requires a join on '" +
                  std::string(DimTableName(TableOf(col))) + "'");
    }
    if (grouped[t]) {
      return fail("table '" + std::string(DimTableName(TableOf(col))) +
                  "' contributes more than one group column");
    }
    grouped[t] = true;
    int32_t lo, hi;
    DimColDomain(col, &lo, &hi);
    cells *= static_cast<int64_t>(hi) - lo + 1;
  }
  if (cells > kMaxGroupCells) {
    return fail("aggregation grid too large (" + std::to_string(cells) +
                " cells, limit " + std::to_string(kMaxGroupCells) +
                "): group by lower-cardinality columns");
  }
  return true;
}

int FactColumnsReferenced(const QuerySpec& spec) {
  return static_cast<int>(ReferencedFactColumns(spec).size());
}

std::vector<FactCol> ReferencedFactColumns(const QuerySpec& spec) {
  bool seen[kNumFactCols] = {};
  for (const FactFilter& f : spec.fact_filters) {
    seen[static_cast<int>(f.col)] = true;
  }
  for (const JoinSpec& join : spec.joins) {
    seen[static_cast<int>(join.fact_key)] = true;
  }
  for (const AggSpec& agg : spec.aggs) {
    ExprMarkColumns(agg.expr, seen);
  }
  std::vector<FactCol> cols;
  for (int i = 0; i < kNumFactCols; ++i) {
    if (seen[i]) cols.push_back(static_cast<FactCol>(i));
  }
  return cols;
}

int64_t ReferencedFactBytes(const ssb::Database& db, const QuerySpec& spec,
                            int64_t rows) {
  int64_t bytes = 0;
  for (FactCol col : ReferencedFactColumns(spec)) {
    const storage::EncodedColumn& c = FactColumn(db, col);
    bytes += c.encoding() == storage::Encoding::kPacked
                 ? storage::PackedBytes(rows, c.bits())
                 : rows * 4;
  }
  return bytes;
}

GroupLayout LayoutFor(const QuerySpec& spec) {
  GroupLayout layout;
  layout.num_keys = static_cast<int>(spec.group_by.size());
  for (int k = 0; k < layout.num_keys; ++k) {
    int32_t lo, hi;
    DimColDomain(spec.group_by[static_cast<size_t>(k)], &lo, &hi);
    layout.lo[k] = lo;
    layout.span[k] = static_cast<int64_t>(hi) - lo + 1;
    layout.cells *= layout.span[k];
  }
  return layout;
}

PayloadPlan PlanPayloads(const QuerySpec& spec) {
  PayloadPlan plan;
  plan.join_payload.assign(spec.joins.size(), -1);
  plan.group_join.assign(spec.group_by.size(), -1);
  for (size_t g = 0; g < spec.group_by.size(); ++g) {
    const DimTable table = TableOf(spec.group_by[g]);
    for (size_t j = 0; j < spec.joins.size(); ++j) {
      if (spec.joins[j].table == table) {
        plan.join_payload[j] = static_cast<int>(g);
        plan.group_join[g] = static_cast<int>(j);
        break;
      }
    }
    CRYSTAL_CHECK_MSG(plan.group_join[g] >= 0,
                      "group column's table is not joined (Validate first)");
  }
  return plan;
}

std::vector<BoundJoin> BindJoins(const QuerySpec& spec,
                                 const PayloadPlan& plan,
                                 const ssb::Database& db) {
  std::vector<BoundJoin> bound(spec.joins.size());
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    const JoinSpec& join = spec.joins[j];
    bound[j].keys = &DimKeyColumn(db, join.table);
    bound[j].payload =
        plan.join_payload[j] >= 0
            ? &DimColumn(
                  db, spec.group_by[static_cast<size_t>(plan.join_payload[j])])
            : bound[j].keys;
    bound[j].dim_rows = DimTableRows(db, join.table);
    bound[j].key_range = db.DimRange(*bound[j].keys);
    bound[j].payload_range = db.DimRange(*bound[j].payload);
    for (const DimFilter& f : join.filters) {
      BoundDimFilter bf;
      bf.col = &DimColumn(db, f.col);
      bf.filter = &f;
      if (f.str_match != DimFilter::StrMatch::kNone) {
        bf.codes = ResolveDictFilter(f.col, f.str_match, f.pattern);
      }
      bound[j].filters.push_back(bf);
    }
  }
  return bound;
}

const storage::EncodedColumn& FactColumn(const ssb::Database& db,
                                         FactCol col) {
  switch (col) {
    case FactCol::kOrderdate: return db.lo.orderdate;
    case FactCol::kCustkey: return db.lo.custkey;
    case FactCol::kPartkey: return db.lo.partkey;
    case FactCol::kSuppkey: return db.lo.suppkey;
    case FactCol::kQuantity: return db.lo.quantity;
    case FactCol::kDiscount: return db.lo.discount;
    case FactCol::kExtendedprice: return db.lo.extendedprice;
    case FactCol::kRevenue: return db.lo.revenue;
    case FactCol::kSupplycost: return db.lo.supplycost;
  }
  return db.lo.orderdate;
}

const ssb::Column& DimColumn(const ssb::Database& db, DimCol col) {
  switch (col) {
    case DimCol::kDYear: return db.d.year;
    case DimCol::kDYearmonthnum: return db.d.yearmonthnum;
    case DimCol::kDWeeknuminyear: return db.d.weeknuminyear;
    case DimCol::kCCity: return db.c.city;
    case DimCol::kCNation: return db.c.nation;
    case DimCol::kCRegion: return db.c.region;
    case DimCol::kSCity: return db.s.city;
    case DimCol::kSNation: return db.s.nation;
    case DimCol::kSRegion: return db.s.region;
    case DimCol::kPMfgr: return db.p.mfgr;
    case DimCol::kPCategory: return db.p.category;
    case DimCol::kPBrand1: return db.p.brand1;
  }
  return db.d.year;
}

const ssb::Column& DimKeyColumn(const ssb::Database& db, DimTable table) {
  switch (table) {
    case DimTable::kDate: return db.d.datekey;
    case DimTable::kCustomer: return db.c.custkey;
    case DimTable::kSupplier: return db.s.suppkey;
    case DimTable::kPart: return db.p.partkey;
  }
  return db.d.datekey;
}

int64_t DimTableRows(const ssb::Database& db, DimTable table) {
  switch (table) {
    case DimTable::kDate: return db.d.rows;
    case DimTable::kCustomer: return db.c.rows;
    case DimTable::kSupplier: return db.s.rows;
    case DimTable::kPart: return db.p.rows;
  }
  return 0;
}

bool DimKeyDense(DimTable table) { return table != DimTable::kDate; }

}  // namespace crystal::query
