#include "ssb/queries.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "common/macros.h"

namespace crystal::ssb {

void QueryResult::Normalize() {
  std::vector<size_t> order(group_keys.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return group_keys[a] < group_keys[b];
  });
  const size_t stride = static_cast<size_t>(num_values);
  std::vector<std::array<int32_t, 3>> keys;
  std::vector<int64_t> values;
  keys.reserve(order.size());
  values.reserve(order.size() * stride);
  for (size_t i : order) {
    keys.push_back(group_keys[i]);
    for (size_t v = 0; v < stride; ++v) {
      values.push_back(group_values[i * stride + v]);
    }
  }
  group_keys = std::move(keys);
  group_values = std::move(values);
}

bool QueryResult::operator==(const QueryResult& other) const {
  // Legacy single-value scalar results may leave scalar_values empty;
  // compare the canonical form.
  auto scalars = [](const QueryResult& r) -> std::vector<int64_t> {
    if (!r.scalar_values.empty()) return r.scalar_values;
    return {r.scalar};
  };
  return num_values == other.num_values && scalars(*this) == scalars(other) &&
         group_keys == other.group_keys && group_values == other.group_values;
}

std::string QueryResult::ToString(int max_rows) const {
  std::ostringstream out;
  auto print_values = [&](const int64_t* v, int n) {
    if (n == 1) {
      out << v[0];
      return;
    }
    out << "[";
    for (int i = 0; i < n; ++i) out << (i == 0 ? "" : ",") << v[i];
    out << "]";
  };
  if (group_keys.empty()) {
    out << "scalar=";
    if (scalar_values.empty()) {
      out << scalar;
    } else {
      print_values(scalar_values.data(),
                   static_cast<int>(scalar_values.size()));
    }
    return out.str();
  }
  out << group_keys.size() << " groups:";
  const int n = std::min<int>(max_rows, static_cast<int>(group_keys.size()));
  for (int i = 0; i < n; ++i) {
    out << " (" << group_keys[i][0] << "," << group_keys[i][1] << ","
        << group_keys[i][2] << ")=";
    print_values(&group_values[static_cast<size_t>(i) *
                               static_cast<size_t>(num_values)],
                 num_values);
  }
  if (n < static_cast<int>(group_keys.size())) out << " ...";
  return out.str();
}

namespace {

using query::QuerySpec;

/// One join step of the tuple-at-a-time interpreter: the shared column
/// binding (query::BindJoins) plus a row-lookup structure. Dense-keyed
/// tables (customer, supplier, part) resolve a key to its row
/// arithmetically; the date dimension goes through a hash index.
struct RefJoin {
  storage::ColumnView fact_key;
  query::BoundJoin bound;
  bool dense = false;
  std::unordered_map<int32_t, int64_t> index;  // sparse tables only
  int group_slot = -1;  // index into the group tuple, or -1

  /// Resolves `key` to a dimension row passing every filter; returns false
  /// on miss. On match stores the payload into keys[group_slot].
  bool Probe(int32_t key, int32_t* keys) const {
    int64_t row;
    if (dense) {
      row = static_cast<int64_t>(key) - 1;
      if (row < 0 || row >= bound.dim_rows) return false;
    } else {
      const auto it = index.find(key);
      if (it == index.end()) return false;
      row = it->second;
    }
    if (!bound.RowPasses(static_cast<size_t>(row))) return false;
    if (group_slot >= 0) {
      keys[group_slot] = (*bound.payload)[static_cast<size_t>(row)];
    }
    return true;
  }
};

}  // namespace

void EmitDenseGroups(const query::GroupLayout& layout,
                     const query::AggPlan& plan, const int64_t* grid,
                     QueryResult* result) {
  const int slots = plan.num_slots();
  int64_t row[query::kMaxAggSlots];
  for (int64_t cell = 0; cell < layout.cells; ++cell) {
    const int64_t* vals = grid + cell * slots;
    if (!plan.CellLive(vals)) continue;
    int n = 0;
    for (int s = 0; s < slots; ++s) {
      if (plan.slots[static_cast<size_t>(s)].emitted) row[n++] = vals[s];
    }
    result->AddGroupRow(layout.KeysFor(cell), row, n);
  }
  result->num_values = plan.num_emitted;
  result->Normalize();
}

void EmitScalars(const query::AggPlan& plan, const int64_t* acc,
                 QueryResult* result) {
  int64_t emitted[query::kMaxAggSlots];
  int n = 0;
  for (int s = 0; s < plan.num_slots(); ++s) {
    if (plan.slots[static_cast<size_t>(s)].emitted) emitted[n++] = acc[s];
  }
  result->SetScalars(emitted, n);
}

QueryResult RunReference(const Database& db, const QuerySpec& spec) {
  std::string error;
  CRYSTAL_CHECK_MSG(query::Validate(spec, &error), error.c_str());

  const query::PayloadPlan plan = query::PlanPayloads(spec);
  const query::GroupLayout layout = query::LayoutFor(spec);
  const query::AggPlan aggs = query::PlanAggs(spec);
  const int slots = aggs.num_slots();

  std::vector<query::BoundJoin> bound = query::BindJoins(spec, plan, db);
  std::vector<RefJoin> joins(spec.joins.size());
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    RefJoin& join = joins[j];
    join.fact_key = query::FactColumn(db, spec.joins[j].fact_key).view();
    join.bound = std::move(bound[j]);
    join.dense = query::DimKeyDense(spec.joins[j].table);
    join.group_slot = plan.join_payload[j];
    if (!join.dense) {
      const Column& keys = *join.bound.keys;
      join.index.reserve(static_cast<size_t>(join.bound.dim_rows) * 2);
      for (int64_t i = 0; i < join.bound.dim_rows; ++i) {
        join.index.emplace(keys[static_cast<size_t>(i)], i);
      }
    }
  }

  std::vector<std::pair<storage::ColumnView, const query::FactFilter*>>
      filters;
  for (const query::FactFilter& f : spec.fact_filters) {
    filters.emplace_back(query::FactColumn(db, f.col).view(), &f);
  }

  storage::ColumnView agg_views[query::kNumFactCols];
  for (int c = 0; c < query::kNumFactCols; ++c) {
    agg_views[c] =
        query::FactColumn(db, static_cast<query::FactCol>(c)).view();
  }

  QueryResult result;
  std::vector<int64_t> scalar_acc(static_cast<size_t>(slots));
  query::FillIdentity(aggs, scalar_acc.data(), 1);
  std::unordered_map<int64_t, size_t> cell_index;
  std::vector<int64_t> group_acc;  // stride `slots`

  for (int64_t i = 0; i < db.lo.rows; ++i) {
    bool pass = true;
    for (const auto& [col, filter] : filters) {
      const int32_t v = col.Get(i);
      if (v < filter->lo || v > filter->hi) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    int32_t keys[3] = {0, 0, 0};
    for (const RefJoin& join : joins) {
      if (!join.Probe(join.fact_key.Get(i), keys)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;

    int64_t* acc;
    if (layout.scalar()) {
      acc = scalar_acc.data();
    } else {
      const int64_t cell = layout.CellFor(keys);
      auto [it, inserted] =
          cell_index.emplace(cell, group_acc.size() /
                                       static_cast<size_t>(slots));
      if (inserted) {
        group_acc.resize(group_acc.size() + static_cast<size_t>(slots));
        query::FillIdentity(
            aggs, &group_acc[it->second * static_cast<size_t>(slots)], 1);
      }
      acc = &group_acc[it->second * static_cast<size_t>(slots)];
    }
    const auto get = [&](query::FactCol c) {
      return agg_views[static_cast<int>(c)].Get(i);
    };
    for (int s = 0; s < slots; ++s) {
      const query::AggSlot& slot = aggs.slots[static_cast<size_t>(s)];
      int64_t value = 1;  // counts add 1 per surviving row
      if (slot.func != query::AggFunc::kCount) {
        CRYSTAL_CHECK_MSG(query::EvalExpr(slot.expr, get, &value),
                          "reference engine: aggregate expression overflow");
      }
      CRYSTAL_CHECK_MSG(query::AggAccumulate(slot.func, &acc[s], value),
                        "reference engine: aggregate accumulator overflow");
    }
  }

  if (layout.scalar()) {
    int64_t emitted[query::kMaxAggSlots];
    int n = 0;
    for (int s = 0; s < slots; ++s) {
      if (aggs.slots[static_cast<size_t>(s)].emitted) {
        emitted[n++] = scalar_acc[static_cast<size_t>(s)];
      }
    }
    result.SetScalars(emitted, n);
    return result;
  }

  int64_t emitted[query::kMaxAggSlots];
  for (const auto& [cell, index] : cell_index) {
    const int64_t* vals = &group_acc[index * static_cast<size_t>(slots)];
    // Liveness matches the dense-grid engines (see EmitDenseGroups): with
    // an all-SUM plan a grid cannot tell an untouched cell from one whose
    // values cancelled to zero, so such groups are dropped everywhere.
    if (!aggs.CellLive(vals)) continue;
    int n = 0;
    for (int s = 0; s < slots; ++s) {
      if (aggs.slots[static_cast<size_t>(s)].emitted) emitted[n++] = vals[s];
    }
    const std::array<int32_t, 3> keys = layout.KeysFor(cell);
    result.AddGroupRow(keys, emitted, n);
  }
  result.num_values = aggs.num_emitted;
  result.Normalize();
  return result;
}

}  // namespace crystal::ssb
