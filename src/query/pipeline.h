#ifndef CRYSTAL_QUERY_PIPELINE_H_
#define CRYSTAL_QUERY_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query_spec.h"
#include "ssb/schema.h"

namespace crystal::query {

/// Lowering of a validated QuerySpec into the flat, fully bound plan every
/// fused interpreter consumes: an ordered list of fact-filter stages, an
/// ordered list of join-probe stages (each pointing at its build-side
/// descriptor and the group slot its payload feeds), and the aggregate
/// stage — all resolved once, before the scan, so no engine re-derives the
/// wiring from the spec. Each stage names the fact column it reads (a
/// FactCol, for engines that keep per-column state) and carries it as a
/// storage::ColumnView, so the lowering stays engine-agnostic across
/// storage encodings: a plain view is a raw pointer plus length, a packed
/// view carries the (words, bits, reference) metadata the unpack kernels
/// need. The vectorized CPU engine (FusedQuery) and both simulated engines
/// (crystal-gpu-sim, materializing) execute it. The reference interpreter
/// (ssb::RunReference) deliberately does not: it is the oracle, and sharing
/// the lowering with it would correlate their bugs.

/// One fact-predicate stage: lo <= view.Get(row) <= hi.
struct FilterStage {
  FactCol col = FactCol::kOrderdate;
  storage::ColumnView view;
  int32_t lo = 0;
  int32_t hi = 0;
};

/// One join-probe stage. `join_index` points into QueryPipeline::bound
/// (the build-side key/payload/filter descriptor); `group_slot` is the
/// group-key buffer this probe's payload feeds, or -1 for a filter-only
/// join whose payload is never read.
struct ProbeStage {
  FactCol fact_key = FactCol::kOrderdate;
  storage::ColumnView fact_keys;
  int join_index = 0;
  int group_slot = -1;
  /// Canonical identity of this probe's build side (BuildSideKey): equal
  /// keys => identical build-side table content for one database
  /// generation, which is what makes cross-query build caching sound.
  std::string cache_key;
};

/// Rows per vector: the unit every fused interpreter filters, probes and
/// aggregates at a time, and the length of an aggregate program's scratch
/// vectors.
inline constexpr int kVectorRows = 1024;

/// One operand of an aggregate program op: a scratch vector, or an
/// immediate constant that is never materialized.
struct AggOperand {
  int vec = -1;     // scratch vector index, or -1 for `imm`
  int64_t imm = 0;  // vec < 0 only

  bool operator==(const AggOperand& o) const {
    return vec == o.vec && (vec >= 0 || imm == o.imm);
  }
};

/// One column operation of an aggregate program, applied to every
/// surviving row of a vector: widen a fact column into a vector (through
/// the selection vector when there is one), or combine two operands
/// lane-wise with 64-bit arithmetic. `checked` ops OR the per-lane
/// __builtin_*_overflow flags; the lowering clears it when the operands'
/// magnitude bounds prove the result fits in int64 (any product of two
/// widened int32 columns, say).
struct AggOp {
  enum class Kind : uint8_t { kLoad, kAdd, kSub, kMul };
  Kind kind = Kind::kLoad;
  bool checked = true;
  int dst = 0;   // scratch vector written (may alias an operand)
  int col = -1;  // kLoad: index into AggStage::views
  AggOperand a, b;
};

/// The aggregate stage: the expanded slot plan (PlanAggs), the distinct
/// fact columns its expressions read (resolved to views once), and every
/// slot's expression lowered into one straight-line column program.
/// Engines run `program` over a vector's survivors, then fold
/// `inputs[s]` into slot s's accumulators, both through the shared
/// evaluator in query/agg_program.h. The program loads each
/// distinct column once and computes each distinct subexpression once
/// across all slots (the TPC-H Q1 analog's `extendedprice` feeds three
/// slots from one load); constant subexpressions fold at lowering, and
/// scratch vectors are reused once their last reader has run, so
/// `num_vectors` is the peak number live at once.
struct AggStage {
  AggPlan plan;
  std::vector<FactCol> cols;               // distinct expression inputs
  std::vector<storage::ColumnView> views;  // parallel to cols
  std::vector<AggOp> program;
  std::vector<AggOperand> inputs;  // per slot; a COUNT slot is immediate 1
  /// Per slot: the largest |value| its input can hold (UINT64_MAX when
  /// unbounded). A fold whose accumulator has headroom for a whole
  /// vector of such values cannot overflow, so it may skip per-row checks.
  std::vector<uint64_t> input_bounds;
  int num_vectors = 0;             // scratch vectors the program needs
  /// +,-,* nodes across every slot's expression (ExprArithOps, before
  /// CSE): the simulated engines' per-row arithmetic charge.
  int64_t arith_per_row = 0;
  /// A constant subexpression overflowed at lowering: every row that
  /// reaches aggregation overflows, exactly as per-row evaluation would.
  bool const_overflow = false;
};

/// A QuerySpec lowered against one database. Holds pointers into both (and
/// into the spec via `bound`); spec and database must outlive the pipeline.
struct QueryPipeline {
  std::vector<FilterStage> filters;
  std::vector<ProbeStage> probes;
  AggStage agg;
  GroupLayout layout;
  PayloadPlan plan;
  /// Build-side descriptors, parallel to `probes` (probes[i].join_index
  /// == i today; kept explicit so probe reordering stays representable).
  std::vector<BoundJoin> bound;

  bool scalar() const { return layout.scalar(); }
};

/// Lowers a spec (must satisfy Validate) against `db`.
QueryPipeline LowerToPipeline(const QuerySpec& spec, const ssb::Database& db);

/// Canonical string identity of one join's build side: dimension table,
/// carried payload column ("key" for filter-only joins), and every
/// build-side filter with its bounds / IN-set / LIKE pattern. Two joins
/// with equal keys build byte-identical tables from the same database
/// generation — the contract the cross-query build cache relies on. The
/// fact-side key column deliberately does not participate (it only drives
/// the probe).
std::string BuildSideKey(const QuerySpec& spec, size_t join_index,
                         const PayloadPlan& plan);

/// Database-generation tag for build-cache invalidation: dimension content
/// is a pure function of (seed, scale_factor) — see ssb::Generate — so the
/// tag changes exactly when cached build sides would go stale.
std::string GenerationKey(const ssb::Database& db);

}  // namespace crystal::query

#endif  // CRYSTAL_QUERY_PIPELINE_H_
