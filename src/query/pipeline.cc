#include "query/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"

namespace crystal::query {

namespace {

/// Saturating magnitude arithmetic: a value's bound is the largest |v| any
/// lane can hold, UINT64_MAX when unknown.
uint64_t BoundAdd(uint64_t a, uint64_t b) {
  uint64_t r;
  return __builtin_add_overflow(a, b, &r) ? UINT64_MAX : r;
}

uint64_t BoundMul(uint64_t a, uint64_t b) {
  uint64_t r;
  return __builtin_mul_overflow(a, b, &r) ? UINT64_MAX : r;
}

/// Lowers slot expressions into AggStage::program. Ops are first built in
/// SSA form (an op's dst and every operand vec name op indices), with
/// structurally equal ops emitted once; Allocate then maps them onto
/// reusable scratch vectors.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(AggStage* agg) : agg_(agg) {}

  /// Appends the ops computing `expr` and returns its value.
  AggOperand Lower(const Expr& expr) {
    AggOperand v[kMaxExprNodes];
    for (size_t i = 0; i < expr.nodes.size(); ++i) {
      const Expr::Node& node = expr.nodes[i];
      switch (node.op) {
        case Expr::Op::kCol: {
          AggOp load;
          load.col = static_cast<int>(
              std::find(agg_->cols.begin(), agg_->cols.end(), node.col) -
              agg_->cols.begin());
          v[i] = Emit(load, uint64_t{1} << 31);  // a widened int32
          break;
        }
        case Expr::Op::kConst:
          v[i] = AggOperand{-1, node.value};
          break;
        default:
          v[i] = Binary(node.op, v[node.a], v[node.b]);
      }
    }
    return v[expr.nodes.size() - 1];
  }

  /// Largest |value| an operand can hold (while still in SSA form).
  uint64_t BoundOf(const AggOperand& o) const {
    if (o.vec >= 0) return bounds_[static_cast<size_t>(o.vec)];
    return o.imm < 0 ? uint64_t{0} - static_cast<uint64_t>(o.imm)
                     : static_cast<uint64_t>(o.imm);
  }

  /// Assigns scratch vectors by a linear scan: an op's operands are
  /// released before its dst is picked (lane-wise ops may run in place),
  /// and slot inputs stay live to the end.
  void Allocate() {
    std::vector<AggOp>& ops = agg_->program;
    const int n = static_cast<int>(ops.size());
    std::vector<int> last_use(ops.size(), n);
    for (int k = 0; k < n; ++k) {
      for (const AggOperand* o : {&ops[k].a, &ops[k].b}) {
        if (o->vec >= 0) last_use[static_cast<size_t>(o->vec)] = k;
      }
    }
    for (const AggOperand& in : agg_->inputs) {
      if (in.vec >= 0) last_use[static_cast<size_t>(in.vec)] = n;
    }
    std::vector<int> phys(ops.size());
    std::vector<int> free_vecs;
    for (int k = 0; k < n; ++k) {
      AggOp& op = ops[static_cast<size_t>(k)];
      const int sa = op.a.vec;
      const int sb = op.b.vec;
      if (sa >= 0) op.a.vec = phys[static_cast<size_t>(sa)];
      if (sb >= 0) op.b.vec = phys[static_cast<size_t>(sb)];
      if (sa >= 0 && last_use[static_cast<size_t>(sa)] == k) {
        free_vecs.push_back(op.a.vec);
      }
      if (sb >= 0 && sb != sa && last_use[static_cast<size_t>(sb)] == k) {
        free_vecs.push_back(op.b.vec);
      }
      if (free_vecs.empty()) {
        op.dst = agg_->num_vectors++;
      } else {
        op.dst = free_vecs.back();
        free_vecs.pop_back();
      }
      phys[static_cast<size_t>(k)] = op.dst;
    }
    for (AggOperand& in : agg_->inputs) {
      if (in.vec >= 0) in.vec = phys[static_cast<size_t>(in.vec)];
    }
  }

 private:
  AggOperand Binary(Expr::Op node_op, AggOperand a, AggOperand b) {
    AggOp op;
    op.kind = node_op == Expr::Op::kAdd   ? AggOp::Kind::kAdd
              : node_op == Expr::Op::kSub ? AggOp::Kind::kSub
                                          : AggOp::Kind::kMul;
    if (a.vec < 0 && b.vec < 0) {
      // Constant subexpression: fold it now. An overflow here would fail
      // every evaluated row, so the flag fails every aggregated vector.
      int64_t r = 0;
      bool overflow;
      switch (op.kind) {
        case AggOp::Kind::kAdd:
          overflow = __builtin_add_overflow(a.imm, b.imm, &r);
          break;
        case AggOp::Kind::kSub:
          overflow = __builtin_sub_overflow(a.imm, b.imm, &r);
          break;
        default:
          overflow = __builtin_mul_overflow(a.imm, b.imm, &r);
      }
      if (overflow) agg_->const_overflow = true;
      return AggOperand{-1, r};
    }
    op.a = a;
    op.b = b;
    const uint64_t bound = op.kind == AggOp::Kind::kMul
                               ? BoundMul(BoundOf(a), BoundOf(b))
                               : BoundAdd(BoundOf(a), BoundOf(b));
    op.checked = bound > static_cast<uint64_t>(INT64_MAX);
    return Emit(op, bound);
  }

  /// Returns the value of `op`, appending it unless an equal op exists.
  AggOperand Emit(AggOp op, uint64_t bound) {
    std::vector<AggOp>& ops = agg_->program;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == op.kind && ops[i].col == op.col &&
          ops[i].a == op.a && ops[i].b == op.b) {
        return AggOperand{static_cast<int>(i), 0};
      }
    }
    op.dst = static_cast<int>(ops.size());
    ops.push_back(op);
    bounds_.push_back(bound);
    return AggOperand{op.dst, 0};
  }

  AggStage* agg_;
  std::vector<uint64_t> bounds_;  // per SSA op
};

}  // namespace

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
    p.filters.push_back({f.col, FactColumn(db, f.col).view(), f.lo, f.hi});
  }
  p.probes.reserve(spec.joins.size());
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    ProbeStage stage;
    stage.fact_key = spec.joins[j].fact_key;
    stage.fact_keys = FactColumn(db, stage.fact_key).view();
    stage.join_index = static_cast<int>(j);
    stage.group_slot = p.plan.join_payload[j];
    stage.cache_key = BuildSideKey(spec, j, p.plan);
    p.probes.push_back(std::move(stage));
  }
  p.agg.plan = PlanAggs(spec);
  bool seen[kNumFactCols] = {};
  for (const AggSpec& agg : spec.aggs) ExprMarkColumns(agg.expr, seen);
  for (int c = 0; c < kNumFactCols; ++c) {
    if (!seen[c]) continue;
    p.agg.cols.push_back(static_cast<FactCol>(c));
    p.agg.views.push_back(FactColumn(db, static_cast<FactCol>(c)).view());
  }
  ProgramBuilder program(&p.agg);
  for (const AggSlot& slot : p.agg.plan.slots) {
    const AggOperand in = slot.func == AggFunc::kCount
                              ? AggOperand{-1, 1}
                              : program.Lower(slot.expr);
    p.agg.inputs.push_back(in);
    p.agg.input_bounds.push_back(program.BoundOf(in));
    p.agg.arith_per_row += ExprArithOps(slot.expr);
  }
  program.Allocate();
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
