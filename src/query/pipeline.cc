#include "query/pipeline.h"

#include <string>

#include "common/macros.h"

namespace crystal::query {

QueryPipeline LowerToPipeline(const QuerySpec& spec,
                              const ssb::Database& db) {
  std::string error;
  CRYSTAL_CHECK_MSG(Validate(spec, &error), error.c_str());

  QueryPipeline p;
  p.plan = PlanPayloads(spec);
  p.layout = LayoutFor(spec);
  p.bound = BindJoins(spec, p.plan, db);

  p.filters.reserve(spec.fact_filters.size());
  for (const FactFilter& f : spec.fact_filters) {
    p.filters.push_back({FactColumn(db, f.col).view(), f.lo, f.hi});
  }
  p.probes.reserve(spec.joins.size());
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    ProbeStage stage;
    stage.fact_keys = FactColumn(db, spec.joins[j].fact_key).view();
    stage.join_index = static_cast<int>(j);
    stage.group_slot = p.plan.join_payload[j];
    stage.cache_key = BuildSideKey(spec, j, p.plan);
    p.probes.push_back(std::move(stage));
  }
  p.agg.plan = PlanAggs(spec);
  bool seen[kNumFactCols] = {};
  for (const AggSpec& agg : spec.aggs) ExprMarkColumns(agg.expr, seen);
  for (int c = 0; c < kNumFactCols; ++c) {
    p.agg.col_index[c] = -1;
    if (!seen[c]) continue;
    p.agg.col_index[c] = static_cast<int>(p.agg.cols.size());
    p.agg.cols.push_back(static_cast<FactCol>(c));
    p.agg.views.push_back(FactColumn(db, static_cast<FactCol>(c)).view());
  }

  // Fast-path classification: a lone SUM whose expression is one of the
  // canonical SSB shapes.
  if (p.agg.plan.slots.size() == 1 &&
      p.agg.plan.slots[0].func == AggFunc::kSum) {
    const Expr& e = p.agg.plan.slots[0].expr;
    auto slot_of = [&](const Expr::Node& n) {
      return p.agg.col_index[static_cast<int>(n.col)];
    };
    if (e.nodes.size() == 1 && e.root().op == Expr::Op::kCol) {
      p.agg.simple = AggStage::Simple::kColumn;
      p.agg.a = slot_of(e.nodes[0]);
    } else if (e.nodes.size() == 3 && e.nodes[0].op == Expr::Op::kCol &&
               e.nodes[1].op == Expr::Op::kCol &&
               (e.root().op == Expr::Op::kMul ||
                e.root().op == Expr::Op::kSub) &&
               e.root().a == 0 && e.root().b == 1) {
      p.agg.simple = e.root().op == Expr::Op::kMul
                         ? AggStage::Simple::kProduct
                         : AggStage::Simple::kDifference;
      p.agg.a = slot_of(e.nodes[0]);
      p.agg.b = slot_of(e.nodes[1]);
    }
  }
  return p;
}

std::string BuildSideKey(const QuerySpec& spec, size_t join_index,
                         const PayloadPlan& plan) {
  const JoinSpec& join = spec.joins[join_index];
  std::string key(DimTableName(join.table));
  key += "|payload=";
  const int slot = plan.join_payload[join_index];
  if (slot >= 0) {
    key += DimColName(spec.group_by[static_cast<size_t>(slot)]);
  } else {
    key += "key";
  }
  for (const DimFilter& f : join.filters) {
    key += '|';
    key += DimColName(f.col);
    if (f.str_match != DimFilter::StrMatch::kNone) {
      key += f.str_match == DimFilter::StrMatch::kPrefix ? ":like-pre:"
                                                         : ":like-sub:";
      key += f.pattern;
    } else if (f.in_values.empty()) {
      key += ':' + std::to_string(f.lo) + ".." + std::to_string(f.hi);
    } else {
      key += ":in";
      for (int32_t v : f.in_values) key += ',' + std::to_string(v);
    }
  }
  return key;
}

std::string GenerationKey(const ssb::Database& db) {
  return "seed=" + std::to_string(db.seed) +
         "|sf=" + std::to_string(db.scale_factor);
}

}  // namespace crystal::query
