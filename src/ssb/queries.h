#ifndef CRYSTAL_SSB_QUERIES_H_
#define CRYSTAL_SSB_QUERIES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "query/query_spec.h"
#include "query/ssb_specs.h"
#include "ssb/query_id.h"
#include "ssb/schema.h"

namespace crystal::ssb {

/// Normalized query result: scalar aggregate values (no group keys) or
/// sorted group rows, each carrying `num_values` emitted aggregate values
/// (the spec's AggPlan emission order — an AVG contributes its sum+count
/// pair). Single-aggregate queries keep the legacy shape: num_values == 1,
/// `scalar` is the value, group_values has one value per group. Engines
/// produce results in arbitrary group order; Normalize() makes them
/// comparable.
struct QueryResult {
  int64_t scalar = 0;  // first scalar value (legacy readers; == values[0])
  std::vector<int64_t> scalar_values;  // all scalar values; empty == {scalar}
  int num_values = 1;
  std::vector<std::array<int32_t, 3>> group_keys;
  /// Row-major group values: group_values[row * num_values + v].
  std::vector<int64_t> group_values;

  void SetScalars(const int64_t* values, int n) {
    num_values = n;
    scalar_values.assign(values, values + n);
    scalar = values[0];
  }
  void AddGroup(int32_t k1, int32_t k2, int32_t k3, int64_t value) {
    group_keys.push_back({k1, k2, k3});
    group_values.push_back(value);
  }
  void AddGroupRow(const std::array<int32_t, 3>& keys, const int64_t* values,
                   int n) {
    num_values = n;
    group_keys.push_back(keys);
    group_values.insert(group_values.end(), values, values + n);
  }
  /// Sorts groups by key (stable comparability across engines).
  void Normalize();
  bool operator==(const QueryResult& other) const;
  std::string ToString(int max_rows = 8) const;
};

/// Emits the live cells of a dense aggregation grid (layout.cells rows of
/// plan.num_slots() accumulators, cell-major) as result groups and
/// normalizes. Liveness follows AggPlan::CellLive: a count slot when the
/// plan has one, else the all-SUM "any value non-zero" rule — zero-sum
/// cells are then indistinguishable from untouched ones in a dense grid,
/// so zero-sum groups are dropped everywhere; the reference interpreter
/// applies the same convention, keeping all engines bit-identical even
/// when a group's values cancel to exactly zero. Only emitted slots reach
/// the result (the hidden liveness count does not).
void EmitDenseGroups(const query::GroupLayout& layout,
                     const query::AggPlan& plan, const int64_t* grid,
                     QueryResult* result);

/// Emits a scalar query's accumulators (plan.num_slots() values, slot
/// order) as the result's scalar values; only emitted slots reach the
/// result (the hidden liveness count does not).
void EmitScalars(const query::AggPlan& plan, const int64_t* acc,
                 QueryResult* result);

/// Reference engine: straightforward tuple-at-a-time interpretation of the
/// declarative spec with per-dimension lookup structures. This is both the
/// ground truth for all engine tests and the execution model of the
/// Hyper-like baseline (compiled tuple-at-a-time pipelines).
QueryResult RunReference(const Database& db, const query::QuerySpec& spec);

/// Benchmark-path convenience: the canonical spec of `id`.
inline QueryResult RunReference(const Database& db, QueryId id) {
  return RunReference(db, query::SsbSpec(id));
}

/// Fact columns referenced by a canonical query, derived from its spec
/// (drives the coprocessor PCIe volume, Section 3.1).
inline int FactColumnsReferenced(QueryId id) {
  return query::FactColumnsReferenced(query::SsbSpec(id));
}

}  // namespace crystal::ssb

#endif  // CRYSTAL_SSB_QUERIES_H_
