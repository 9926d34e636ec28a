#ifndef CRYSTAL_QUERY_QUERY_SPEC_H_
#define CRYSTAL_QUERY_QUERY_SPEC_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ssb/schema.h"

namespace crystal::query {

/// Declarative query IR for star-schema analytics, grown past the paper's
/// SSB shape (Section 3.1) toward TPC-H Q1/Q6-class queries: a fact-table
/// scan with conjunctive range predicates, an ordered cascade of dimension
/// hash joins (each with build-side filters — ranges, IN-sets, or
/// dictionary-string LIKE patterns resolved to code sets at bind time — and
/// an optional group-key projection), and a LIST of aggregates
/// (SUM/COUNT/AVG/MIN/MAX, AVG emitted exactly as its sum+count pair) over
/// per-row arithmetic expressions (column, constant, +, -, *) — scalar or
/// grouped by up to three dimension attributes.
///
/// Queries are *data*: engines interpret a QuerySpec with their own
/// primitives (tuple-at-a-time, vectorized selection/probe pipelines, fused
/// Crystal tiles, operator-at-a-time materialization), so a new workload is
/// a new spec — via query::SsbSpec for the 13 canonical benchmark queries,
/// query::ParseQuerySpec for ad-hoc text (`crystaldb --adhoc=...`), or the
/// seeded workload generator (src/workload/, docs/WORKLOADS.md).

// ------------------------------------------------------------- column ids

/// Lineorder (fact) columns.
enum class FactCol : int {
  kOrderdate,
  kCustkey,
  kPartkey,
  kSuppkey,
  kQuantity,
  kDiscount,
  kExtendedprice,
  kRevenue,
  kSupplycost,
};
inline constexpr int kNumFactCols = 9;

/// Dimension tables.
enum class DimTable : int { kDate, kCustomer, kSupplier, kPart };
inline constexpr int kNumDimTables = 4;

/// Non-key dimension columns usable in build-side filters and group keys.
enum class DimCol : int {
  kDYear,
  kDYearmonthnum,
  kDWeeknuminyear,
  kCCity,
  kCNation,
  kCRegion,
  kSCity,
  kSNation,
  kSRegion,
  kPMfgr,
  kPCategory,
  kPBrand1,
};
inline constexpr int kNumDimCols = 12;

std::string_view FactColName(FactCol col);
std::string_view DimTableName(DimTable table);
std::string_view DimColName(DimCol col);

/// Reverse lookups for the parser; return false on unknown names.
bool FactColFromName(std::string_view name, FactCol* out);
bool DimTableFromName(std::string_view name, DimTable* out);
bool DimColFromName(std::string_view name, DimCol* out);

/// The table a dimension column belongs to.
DimTable TableOf(DimCol col);

/// Value domain [lo, hi] of a dimension column under the dictionary
/// encoding (dict.h). Engines size dense aggregation grids from these.
void DimColDomain(DimCol col, int32_t* lo, int32_t* hi);

/// True when the column carries a dictionary-encoded string domain
/// (cities, nations, regions, the MFGR part hierarchy) — the columns
/// string predicates (LIKE) are meaningful on. The date attributes are
/// plain numbers and reject string predicates in Validate.
bool DimColHasDict(DimCol col);

/// The fact FK column conventionally joining `table` (orderdate, custkey,
/// suppkey, partkey).
FactCol DefaultFactKey(DimTable table);

// ------------------------------------------------------- row expressions

/// Per-row integer arithmetic over fact columns: a flat node pool in
/// evaluation (post-)order, root last. Node operands index earlier nodes,
/// so evaluation is a single forward walk into a fixed-size value buffer —
/// no recursion, no allocation in the per-row hot loops. Large enough for
/// the TPC-H Q1 shape (extendedprice * (100 - discount)) with plenty of
/// headroom; Validate enforces kMaxExprNodes.
struct Expr {
  enum class Op : uint8_t { kCol, kConst, kAdd, kSub, kMul };

  struct Node {
    Op op = Op::kCol;
    FactCol col = FactCol::kRevenue;  // kCol only
    int32_t value = 0;                // kConst only
    int16_t a = -1;                   // binary ops: operand node indices
    int16_t b = -1;

    bool operator==(const Node& o) const {
      if (op != o.op) return false;
      switch (op) {
        case Op::kCol: return col == o.col;
        case Op::kConst: return value == o.value;
        default: return a == o.a && b == o.b;
      }
    }
  };

  std::vector<Node> nodes;

  bool empty() const { return nodes.empty(); }
  const Node& root() const { return nodes.back(); }

  bool operator==(const Expr& o) const { return nodes == o.nodes; }
};

/// Hard cap on expression size (Validate): the lowering's and the reference
/// interpreter's per-expression buffers live on the stack.
inline constexpr int kMaxExprNodes = 31;

/// Expression builders (value semantics; operands are consumed).
Expr ColExpr(FactCol col);
Expr ConstExpr(int32_t value);
Expr BinExpr(Expr::Op op, Expr a, Expr b);

/// Marks every fact column the expression reads in `seen[kNumFactCols]`.
void ExprMarkColumns(const Expr& expr, bool seen[]);

/// Number of arithmetic (+,-,*) nodes — the per-row arithmetic charge both
/// simulated engines record for evaluating the expression on device.
int ExprArithOps(const Expr& expr);

/// Evaluates `expr` for one row with 64-bit checked arithmetic. `get` maps
/// a FactCol to the row's value. Returns false on int64 overflow — the
/// caller surfaces that as an overflow diagnostic instead of silently
/// wrapping (docs/QUERIES.md). Only the reference interpreter evaluates
/// row at a time; other engines run query/agg_program.h.
template <typename GetCol>
inline bool EvalExpr(const Expr& expr, GetCol&& get, int64_t* out) {
  int64_t v[kMaxExprNodes];
  const size_t n = expr.nodes.size();
  for (size_t i = 0; i < n; ++i) {
    const Expr::Node& node = expr.nodes[i];
    switch (node.op) {
      case Expr::Op::kCol:
        v[i] = static_cast<int64_t>(get(node.col));
        break;
      case Expr::Op::kConst:
        v[i] = node.value;
        break;
      case Expr::Op::kAdd:
        if (__builtin_add_overflow(v[node.a], v[node.b], &v[i])) return false;
        break;
      case Expr::Op::kSub:
        if (__builtin_sub_overflow(v[node.a], v[node.b], &v[i])) return false;
        break;
      case Expr::Op::kMul:
        if (__builtin_mul_overflow(v[node.a], v[node.b], &v[i])) return false;
        break;
    }
  }
  *out = v[n - 1];
  return true;
}

// ------------------------------------------------------------ aggregates

/// Aggregate functions over a row expression. kCount takes no expression
/// (COUNT(*) of the surviving rows); kAvg never reaches an engine — the
/// aggregation plan expands it into its sum+count slot pair, which is also
/// how the result is emitted (integer IR; consumers divide).
enum class AggFunc : uint8_t { kSum, kCount, kAvg, kMin, kMax };

std::string_view AggFuncName(AggFunc func);
bool AggFuncFromName(std::string_view name, AggFunc* out);

/// One aggregate of the query's SELECT list.
struct AggSpec {
  AggFunc func = AggFunc::kSum;
  Expr expr;  // empty iff func == kCount

  bool operator==(const AggSpec& o) const {
    return func == o.func && expr == o.expr;
  }
};

/// Convenience builders.
AggSpec Sum(Expr expr);
AggSpec Count();
AggSpec Avg(Expr expr);
AggSpec Min(Expr expr);
AggSpec Max(Expr expr);

// ------------------------------------------------- dimension predicates

/// Build-side dimension predicate: a range [lo, hi], an IN-set (the
/// q3.3/q3.4 city pairs), or a dictionary-string pattern over the column's
/// encoded domain (prefix `'UNITED%'` / contains `'%KI%'`), resolved to a
/// sorted code set at bind time (ResolveDictFilter).
struct DimFilter {
  enum class StrMatch : uint8_t { kNone, kPrefix, kContains };

  DimCol col = DimCol::kDYear;
  int32_t lo = 0;
  int32_t hi = 0;
  std::vector<int32_t> in_values;
  StrMatch str_match = StrMatch::kNone;
  std::string pattern;  // without the % markers

  /// Numeric predicate check (range / IN-set). String predicates go
  /// through the bind-time code set instead (BoundJoin::RowPasses).
  bool Matches(int32_t v) const {
    if (in_values.empty()) return v >= lo && v <= hi;
    for (int32_t cand : in_values) {
      if (v == cand) return true;
    }
    return false;
  }

  bool operator==(const DimFilter& o) const {
    return col == o.col && lo == o.lo && hi == o.hi &&
           in_values == o.in_values && str_match == o.str_match &&
           pattern == o.pattern;
  }
};

/// The sorted code set a dictionary-string predicate selects from its
/// column's domain. Resolution scans the dictionary name function over the
/// full domain, so results are cached process-wide per (column, match,
/// pattern) — dictionary names are pure functions of the codes
/// (ssb/dict.h), independent of any database generation, so the cache
/// never needs invalidating and repeated server queries never rescan
/// (the startup-cost contract of docs/WORKLOADS.md). The returned pointer
/// stays valid for the process lifetime.
const std::vector<int32_t>* ResolveDictFilter(DimCol col,
                                              DimFilter::StrMatch match,
                                              const std::string& pattern);

// ---------------------------------------------------------------- the IR

/// Conjunctive fact-column predicate: lo <= col <= hi (equality when
/// lo == hi). Date predicates are pre-rewritten to orderdate ranges, as in
/// Fig. 2 of the paper.
struct FactFilter {
  FactCol col = FactCol::kOrderdate;
  int32_t lo = 0;
  int32_t hi = 0;

  bool operator==(const FactFilter& o) const {
    return col == o.col && lo == o.lo && hi == o.hi;
  }
};

/// One step of the dimension-join cascade: probe `table` keyed on
/// `fact_key`, with only the rows passing every filter on the build side.
/// The payload carried out of the join (if any) is determined by the
/// query's group_by list — the group column belonging to this table.
struct JoinSpec {
  DimTable table = DimTable::kDate;
  FactCol fact_key = FactCol::kOrderdate;
  std::vector<DimFilter> filters;

  bool operator==(const JoinSpec& o) const {
    return table == o.table && fact_key == o.fact_key &&
           filters == o.filters;
  }
};

/// A complete declarative query. `aggs` holds one or more aggregates
/// (evaluated per surviving fact row); `group_by` holds 0..3 dimension
/// columns (empty = scalar aggregates); its order is the result key order,
/// each column's table must appear in `joins`, and a table contributes at
/// most one group key.
struct QuerySpec {
  std::string name;  // report/CLI label, e.g. "q2.1" or "adhoc1"
  std::vector<FactFilter> fact_filters;
  std::vector<JoinSpec> joins;
  std::vector<AggSpec> aggs;
  std::vector<DimCol> group_by;

  /// Structural equality; the label does not participate (round-tripping
  /// through the ad-hoc grammar does not carry the name).
  bool operator==(const QuerySpec& o) const {
    return fact_filters == o.fact_filters && joins == o.joins &&
           aggs == o.aggs && group_by == o.group_by;
  }
};

/// Largest dense aggregation grid a spec may request (product of the
/// group columns' domain spans). The canonical worst case (q4.3) needs
/// ~7.8M cells; anything past this cap — reachable only through ad-hoc
/// group-by combinations like (d_yearmonthnum, c_city, p_brand1) — would
/// allocate multi-GB grids (per worker thread in the vectorized engine),
/// so Validate rejects it instead of letting the process OOM.
inline constexpr int64_t kMaxGroupCells = 1 << 24;  // 128 MB of int64 cells

/// Most aggregate value slots a spec may expand to (AVG counts twice).
inline constexpr int kMaxAggSlots = 16;

/// Structural validity: filter ranges ordered, string patterns only on
/// dictionary columns, at most one join per table, join filters on the
/// joined table, non-empty well-formed aggregate list (expressions within
/// kMaxExprNodes, non-negative constants, count without expression), group
/// keys joined/unique/<= 3 with a bounded grid (kMaxGroupCells). Returns
/// false and fills *error (when non-null) on the first violation.
bool Validate(const QuerySpec& spec, std::string* error);

/// Distinct fact columns the spec touches (filters + join keys + every
/// aggregate expression input). Drives the coprocessor PCIe volume: every
/// referenced fact column ships to the device (Section 3.1).
int FactColumnsReferenced(const QuerySpec& spec);

/// The referenced fact columns themselves, in FactCol order.
std::vector<FactCol> ReferencedFactColumns(const QuerySpec& spec);

/// Bytes the referenced fact columns occupy at `rows` rows under the
/// database's per-column encodings: rows*4 per plain column,
/// ceil(rows*bits/8) per packed one. The crystal engine charges this as
/// scan traffic at db.lo.rows; the coprocessor ships it over PCIe at
/// full_scale_fact_rows() — which is how packed storage shrinks both the
/// modeled DRAM traffic and `fact_bytes_shipped`.
int64_t ReferencedFactBytes(const ssb::Database& db, const QuerySpec& spec,
                            int64_t rows);

// --------------------------------------------------- aggregation plan

/// One physical accumulator slot of the lowered aggregate list. kAvg never
/// appears here: the plan expands it into a kSum slot followed by a kCount
/// slot. A trailing hidden kCount slot is appended when the query has
/// MIN/MAX aggregates but no count of its own — group liveness (which grid
/// cells hold real groups) is then decided by that count instead of the
/// all-SUM "any value non-zero" rule.
struct AggSlot {
  AggFunc func = AggFunc::kSum;  // kSum | kCount | kMin | kMax
  Expr expr;                     // empty iff func == kCount
  bool emitted = true;           // false only for the hidden count slot
};

/// The shared lowering of QuerySpec::aggs every engine executes: the slot
/// list, the group-liveness rule, and the emitted-value count.
struct AggPlan {
  std::vector<AggSlot> slots;
  /// Index of a COUNT slot usable for group liveness (a group exists iff
  /// its count > 0), or -1 when every slot is a SUM — then the legacy
  /// dense-grid rule applies (a group exists iff any sum != 0), keeping
  /// the 13 canonical SSB results bit-identical to the single-SUM IR.
  int count_slot = -1;
  int num_emitted = 0;

  int num_slots() const { return static_cast<int>(slots.size()); }

  /// True when the grid cell at `vals` (num_slots values) holds a group.
  bool CellLive(const int64_t* vals) const {
    if (count_slot >= 0) return vals[count_slot] > 0;
    for (int s = 0; s < num_slots(); ++s) {
      if (vals[s] != 0) return true;
    }
    return false;
  }
};

/// Expands the (valid) spec's aggregate list into its slot plan.
AggPlan PlanAggs(const QuerySpec& spec);

/// Accumulator identity for a slot function (0 for sums and counts,
/// INT64_MAX/MIN for min/max).
int64_t AggIdentity(AggFunc func);

/// Fills a grid of `cells` x `plan.num_slots()` accumulators with each
/// slot's identity (plain zero-fill when no MIN/MAX slot exists).
void FillIdentity(const AggPlan& plan, int64_t* grid, int64_t cells);

/// Folds one row value into an accumulator. Checked: returns false when a
/// sum/count overflows int64 (min/max cannot overflow).
inline bool AggAccumulate(AggFunc func, int64_t* acc, int64_t value) {
  switch (func) {
    case AggFunc::kSum:
    case AggFunc::kCount:
      return !__builtin_add_overflow(*acc, value, acc);
    case AggFunc::kMin:
      if (value < *acc) *acc = value;
      return true;
    default:
      if (value > *acc) *acc = value;
      return true;
  }
}

/// Merges a partial accumulator into another (same semantics as
/// AggAccumulate; counts and sums add, min/max fold).
inline bool AggMerge(AggFunc func, int64_t* acc, int64_t partial) {
  return AggAccumulate(func, acc, partial);
}

// ------------------------------------------------- aggregation geometry

/// Dense-grid layout derived from group_by: per-key domain base and span,
/// total cell count, and the cell <-> key-tuple mapping every grid-based
/// engine shares. Scalar aggregates get the trivial 1-cell layout.
struct GroupLayout {
  int num_keys = 0;
  int32_t lo[3] = {0, 0, 0};
  int64_t span[3] = {1, 1, 1};
  int64_t cells = 1;

  bool scalar() const { return num_keys == 0; }

  /// Cell index for key values in group order (keys[0..num_keys)).
  int64_t CellFor(const int32_t* keys) const {
    int64_t cell = 0;
    for (int k = 0; k < num_keys; ++k) {
      cell = cell * span[k] + (keys[k] - lo[k]);
    }
    return cell;
  }

  /// Inverse of CellFor; unused key slots are 0 (QueryResult convention).
  std::array<int32_t, 3> KeysFor(int64_t cell) const {
    std::array<int32_t, 3> keys = {0, 0, 0};
    for (int k = num_keys - 1; k >= 0; --k) {
      keys[static_cast<size_t>(k)] =
          static_cast<int32_t>(cell % span[k]) + lo[k];
      cell /= span[k];
    }
    return keys;
  }
};

GroupLayout LayoutFor(const QuerySpec& spec);

/// Maps joins to group keys (spec must be Valid): for each join the index
/// of the group key it supplies (-1 when the join is filter-only), and for
/// each group key the index of the join supplying it.
struct PayloadPlan {
  std::vector<int> join_payload;  // joins.size(); index into group_by or -1
  std::vector<int> group_join;    // group_by.size(); index into joins
};

PayloadPlan PlanPayloads(const QuerySpec& spec);

/// One build-side filter bound to its column, with any string predicate
/// already resolved to its sorted code set.
struct BoundDimFilter {
  const ssb::Column* col = nullptr;
  const DimFilter* filter = nullptr;
  /// Sorted codes of a resolved string predicate; null for numeric ones.
  const std::vector<int32_t>* codes = nullptr;

  bool Matches(int32_t v) const;
};

/// One join step bound to database columns: the dimension's key column,
/// the payload column the join carries (its group-key column, or the key
/// column again when the join is filter-only — then never read), and the
/// build-side filters bound to their columns. Pointers reference the spec
/// and database, which must outlive the binding; every engine's build
/// phase consumes this instead of re-deriving the wiring.
struct BoundJoin {
  const ssb::Column* keys = nullptr;
  const ssb::Column* payload = nullptr;
  int64_t dim_rows = 0;
  /// Value ranges of `keys` and `payload` over every dimension row
  /// (ssb::Database::DimRange): the build-side planner's inputs.
  ValueRange key_range;
  ValueRange payload_range;
  std::vector<BoundDimFilter> filters;

  /// True when dimension row `row` passes every build-side filter.
  bool RowPasses(size_t row) const {
    for (const BoundDimFilter& f : filters) {
      if (!f.Matches((*f.col)[row])) return false;
    }
    return true;
  }
};

/// Binds every join of the (valid) spec against `db`, in join order.
/// String predicates resolve through the process-wide dictionary cache.
std::vector<BoundJoin> BindJoins(const QuerySpec& spec,
                                 const PayloadPlan& plan,
                                 const ssb::Database& db);

// ----------------------------------------------------- database binding

/// Fact columns come back as encoded columns (plain or packed); engines
/// read them through storage::ColumnView. Dimension columns stay plain.
const storage::EncodedColumn& FactColumn(const ssb::Database& db,
                                         FactCol col);
const ssb::Column& DimColumn(const ssb::Database& db, DimCol col);
const ssb::Column& DimKeyColumn(const ssb::Database& db, DimTable table);
int64_t DimTableRows(const ssb::Database& db, DimTable table);

/// True when the table's key column is dense 1..rows (customer, supplier,
/// part) — a lookup is then key - 1, no hash structure needed.
bool DimKeyDense(DimTable table);

}  // namespace crystal::query

#endif  // CRYSTAL_QUERY_QUERY_SPEC_H_
