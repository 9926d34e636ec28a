#ifndef CRYSTAL_QUERY_AGG_PROGRAM_H_
#define CRYSTAL_QUERY_AGG_PROGRAM_H_

#include <cstddef>
#include <cstdint>

#include "query/pipeline.h"

namespace crystal::query {

// The one aggregate evaluator of every non-oracle engine, run over up to
// kVectorRows surviving rows at a time: RunProgram computes every slot's
// input column-at-a-time (AggStage::program), then FoldSlots folds each
// slot's input into its accumulators in one tight loop. Every accumulator
// sees its rows' values in row order and every add that could overflow is
// checked, so results and overflow diagnostics match per-row evaluation
// (the reference interpreter) bit for bit.

/// The status message of every aggregate overflow.
inline constexpr char kOverflowMsg[] =
    "aggregate sum overflowed the checked 64-bit accumulator";

/// Calls `f` with a reader of operand `o`'s lane i: a scratch vector, or
/// an immediate that stays in a register.
template <typename F>
auto WithOperand(const AggOperand& o, const int64_t* vecs, F&& f) {
  if (o.vec < 0) return f([imm = o.imm](int) { return imm; });
  const int64_t* v = vecs + static_cast<ptrdiff_t>(o.vec) * kVectorRows;
  return f([v](int i) { return v[i]; });
}

/// One arithmetic op over m lanes; false on overflow. The per-lane
/// overflow flags are ORed; an unchecked op (the lowering proved it cannot
/// overflow) drops them, so its loop compiles to plain vector arithmetic.
template <bool kChecked>
bool RunArith(const AggOp& op, int64_t* vecs, int m) {
  int64_t* d = vecs + static_cast<ptrdiff_t>(op.dst) * kVectorRows;
  const auto lanes = [&](auto f) {
    return WithOperand(op.a, vecs, [&](auto a) {
      return WithOperand(op.b, vecs, [&](auto b) {
        bool overflow = false;
        for (int i = 0; i < m; ++i) overflow |= f(a(i), b(i), &d[i]);
        return !overflow;
      });
    });
  };
  switch (op.kind) {
    case AggOp::Kind::kAdd:
      return lanes([](int64_t x, int64_t y, int64_t* r) {
        return __builtin_add_overflow(x, y, r) && kChecked;
      });
    case AggOp::Kind::kSub:
      return lanes([](int64_t x, int64_t y, int64_t* r) {
        return __builtin_sub_overflow(x, y, r) && kChecked;
      });
    default:
      return lanes([](int64_t x, int64_t y, int64_t* r) {
        return __builtin_mul_overflow(x, y, r) && kChecked;
      });
  }
}

/// Runs `stage.program` over m (1..kVectorRows) rows into `vecs`
/// (stage.num_vectors x kVectorRows); `load(col, m, dst)` widens the m
/// rows of column stage.cols[col] into dst. False on overflow, including a
/// constant subexpression that overflowed at lowering.
template <typename Load>
bool RunProgram(const AggStage& stage, int64_t* vecs, int m, Load&& load) {
  if (stage.const_overflow) return false;
  for (const AggOp& op : stage.program) {
    if (op.kind != AggOp::Kind::kLoad) {
      if (!(op.checked ? RunArith<true>(op, vecs, m)
                       : RunArith<false>(op, vecs, m))) {
        return false;
      }
      continue;
    }
    load(op.col, m, vecs + static_cast<ptrdiff_t>(op.dst) * kVectorRows);
  }
  return true;
}

/// One slot's accumulate loop over m rows into acc[off[i]], or — off ==
/// nullptr, scalar queries — the single *acc, kept in a register. SUM and
/// COUNT add (checked adds OR the per-row overflow flags), MIN and MAX
/// compare. False on accumulator overflow.
template <bool kChecked, typename Value>
bool FoldSlot(AggFunc func, int64_t* acc, const int64_t* off, int m,
              Value value) {
  const auto rows = [&](auto step) {
    bool overflow = false;
    if (off == nullptr) {
      int64_t a = *acc;
      for (int i = 0; i < m; ++i) overflow |= step(&a, value(i));
      *acc = a;
    } else {
      for (int i = 0; i < m; ++i) overflow |= step(&acc[off[i]], value(i));
    }
    return !overflow;
  };
  switch (func) {
    case AggFunc::kSum:
    case AggFunc::kCount:
      return rows([](int64_t* a, int64_t x) {
        return __builtin_add_overflow(*a, x, a) && kChecked;
      });
    case AggFunc::kMin:
      return rows([](int64_t* a, int64_t x) {
        if (x < *a) *a = x;
        return false;
      });
    default:
      return rows([](int64_t* a, int64_t x) {
        if (x > *a) *a = x;
        return false;
      });
  }
}

/// Folds every slot's input (after RunProgram) for m rows into rows of
/// stage.plan.num_slots() accumulators: row i's slot s is acc[off[i] + s],
/// or acc[s] when off == nullptr. `folded` rows went into `acc` since it
/// held identities; a slot's adds skip the overflow check while folded + m
/// rows at its input bound cannot leave int64 (same results, the loop
/// vectorizes). `shared` accumulators have other writers, so they always
/// check. False on accumulator overflow.
inline bool FoldSlots(const AggStage& stage, const int64_t* vecs, int m,
                      int64_t* acc, const int64_t* off, int64_t folded,
                      bool shared = false) {
  bool ok = true;
  for (int sl = 0; sl < stage.plan.num_slots() && ok; ++sl) {
    const AggFunc func = stage.plan.slots[static_cast<size_t>(sl)].func;
    const uint64_t bound = stage.input_bounds[static_cast<size_t>(sl)];
    const bool checked =
        shared || (bound > 0 && static_cast<uint64_t>(folded + m) >
                                    static_cast<uint64_t>(INT64_MAX) / bound);
    const auto fold = [&](auto value) {
      return checked ? FoldSlot<true>(func, acc + sl, off, m, value)
                     : FoldSlot<false>(func, acc + sl, off, m, value);
    };
    ok = WithOperand(stage.inputs[static_cast<size_t>(sl)], vecs, fold);
  }
  return ok;
}

}  // namespace crystal::query

#endif  // CRYSTAL_QUERY_AGG_PROGRAM_H_
