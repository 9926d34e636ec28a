#include "ssb/fused_query.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/macros.h"
#include "common/memory.h"
#include "common/timer.h"
#include "cpu/build_cache.h"
#include "cpu/vector_ops.h"
#include "query/agg_program.h"
#include "query/footprint.h"
#include "query/pipeline.h"

namespace crystal::ssb {

namespace {

constexpr int kVector = query::kVectorRows;

// Thread-local dense aggregation grids over donated or private scratch,
// merged after the parallel scan. Each cell holds plan.num_slots()
// accumulators (cell-major), so a grid is cells x slots values. A scalar
// layout is one cell, so a scalar query's per-thread accumulators are a
// one-cell grid, each thread's own allocation. Only grouped layouts up to
// query::kDenseGridMaxCells land here (to 2 MB per thread for single-slot
// plans — q2.x's ~31K-cell brand grids, q4.2's ~10K cells); larger
// layouts take the sparse path below. A grid is lazily filled with
// the plan's identities on its thread's first touch of the run (zeroing
// threads x cells up front is O(threads * cells) serial work), and when
// the scratch outlives the run (the engine donates its own), repeated
// executions pay a memset on reused pages instead of a fresh allocation.
// Merged with a cell-striped parallel pass.
class GridAgg {
 public:
  GridAgg(std::vector<std::vector<int64_t>>* scratch, int threads,
          int64_t cells, const query::AggPlan* plan)
      : grids_(*scratch),
        cells_(cells),
        plan_(plan),
        touched_(static_cast<size_t>(threads), 0) {
    if (grids_.size() < static_cast<size_t>(threads)) {
      grids_.resize(static_cast<size_t>(threads));
    }
  }

  /// `thread`'s grid, cell-major (lazily identity-filled).
  int64_t* Grid(int thread) {
    auto& grid = grids_[static_cast<size_t>(thread)];
    if (!touched_[static_cast<size_t>(thread)]) {
      grid.resize(static_cast<size_t>(cells_) *
                  static_cast<size_t>(plan_->num_slots()));
      query::FillIdentity(*plan_, grid.data(), cells_);
      touched_[static_cast<size_t>(thread)] = 1;
    }
    return grid.data();
  }

  /// Merges all touched thread grids into grid 0 (cell-striped across the
  /// pool) and returns it. *ok is cleared when a merge overflows.
  const std::vector<int64_t>& Merge(ThreadPool& pool, bool* ok) {
    const int slots = plan_->num_slots();
    if (!touched_[0]) {
      grids_[0].resize(static_cast<size_t>(cells_) *
                       static_cast<size_t>(slots));
      query::FillIdentity(*plan_, grids_[0].data(), cells_);
    }
    std::atomic<bool> overflow{false};
    pool.ParallelFor(cells_, [&](int, int64_t begin, int64_t end) {
      for (size_t t = 1; t < touched_.size(); ++t) {
        if (!touched_[t]) continue;
        const int64_t* src = grids_[t].data();
        int64_t* dst = grids_[0].data();
        for (int64_t c = begin; c < end; ++c) {
          for (int s = 0; s < slots; ++s) {
            const size_t i =
                static_cast<size_t>(c) * static_cast<size_t>(slots) +
                static_cast<size_t>(s);
            if (!query::AggMerge(plan_->slots[static_cast<size_t>(s)].func,
                                 &dst[i], src[i])) {
              overflow.store(true, std::memory_order_relaxed);
            }
          }
        }
      }
    });
    *ok = !overflow.load(std::memory_order_relaxed);
    return grids_[0];
  }

 private:
  std::vector<std::vector<int64_t>>& grids_;
  int64_t cells_;
  const query::AggPlan* plan_;
  /// Per-thread first-touch flags for this run; each thread writes only
  /// its own slot during the scan, Merge reads them after the pool joined.
  std::vector<uint8_t> touched_;
};

// Per-thread sparse aggregation table for huge group domains. A dense grid
// pays memset + merge + final scan over *every* cell each run — q4.3's
// layout spans ~7.8M cells (62 MB) of which a few hundred are ever touched,
// so on a memory-bound host the grid traffic dwarfs the actual query. Past
// query::kDenseGridMaxCells the scan aggregates into per-thread
// open-addressing tables keyed by cell id instead; work is then
// proportional to touched cells, and emission (AggPlan::CellLive,
// Normalize sorts) stays bit-identical to EmitDenseGroups. The same tables
// are the governor's degradation path for *small* layouts whose dense
// grids would blow the memory budget (see FusedQuery::Create).
class SparseGrid {
 public:
  static constexpr int64_t kEmpty = -1;  // cell ids are >= 0

  void Bind(const query::AggPlan* plan) { plan_ = plan; }

  /// Offset of `cell`'s accumulator row in values() (inserted
  /// identity-filled on first touch). Values live in a side pool, so
  /// growth rehashes only the fixed-size slots — but the pool itself may
  /// move, so callers hold offsets, not pointers, across insertions.
  int64_t Offset(int64_t cell) {
    if (2 * (count_ + 1) > static_cast<int64_t>(slots_.size())) Grow();
    const int slots = plan_->num_slots();
    const size_t mask = slots_.size() - 1;
    size_t s = Hash(cell) & mask;
    for (;;) {
      Slot& slot = slots_[s];
      if (slot.cell == cell) return slot.index;
      if (slot.cell == kEmpty) {
        slot.cell = cell;
        slot.index = static_cast<int64_t>(values_.size());
        values_.resize(values_.size() + static_cast<size_t>(slots));
        query::FillIdentity(*plan_, &values_[static_cast<size_t>(slot.index)],
                            1);
        ++count_;
        return slot.index;
      }
      s = (s + 1) & mask;
    }
  }

  int64_t* values() { return values_.data(); }

  /// Folds `other`'s entries into this table; false on merge overflow.
  bool Absorb(const SparseGrid& other) {
    const int slots = plan_->num_slots();
    for (const Slot& slot : other.slots_) {
      if (slot.cell == kEmpty) continue;
      int64_t* dst = &values_[static_cast<size_t>(Offset(slot.cell))];
      const int64_t* src = &other.values_[static_cast<size_t>(slot.index)];
      for (int s = 0; s < slots; ++s) {
        if (!query::AggMerge(plan_->slots[static_cast<size_t>(s)].func,
                             &dst[s], src[s])) {
          return false;
        }
      }
    }
    return true;
  }

  /// Emits the live cells as result groups (unsorted; the caller's
  /// Normalize establishes the canonical order, as in RunReference).
  void Emit(const query::GroupLayout& layout, QueryResult* result) const {
    const int slots = plan_->num_slots();
    int64_t row[query::kMaxAggSlots];
    for (const Slot& slot : slots_) {
      if (slot.cell == kEmpty) continue;
      const int64_t* vals = &values_[static_cast<size_t>(slot.index)];
      if (!plan_->CellLive(vals)) continue;
      int n = 0;
      for (int s = 0; s < slots; ++s) {
        if (plan_->slots[static_cast<size_t>(s)].emitted) row[n++] = vals[s];
      }
      result->AddGroupRow(layout.KeysFor(slot.cell), row, n);
    }
  }

 private:
  struct Slot {
    int64_t cell = kEmpty;
    int64_t index = 0;  // offset into values_
  };

  static size_t Hash(int64_t cell) {
    uint64_t h = static_cast<uint64_t>(cell) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.cell == kEmpty) continue;
      size_t s = Hash(slot.cell) & mask;
      while (slots_[s].cell != kEmpty) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }

  const query::AggPlan* plan_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<int64_t> values_;  // stride plan_->num_slots()
  int64_t count_ = 0;
};

}  // namespace

struct FusedQuery::Impl {
  /// `p` is the spec lowered by Create (which also ran the footprint
  /// estimate and picked the aggregation shape); `use_sparse`/`use_shared`
  /// select the rung, `charge` is the agg scratch's budget claim (held for
  /// the instance's lifetime).
  Impl(query::QueryPipeline&& p, const Database& db, int threads,
       std::vector<std::vector<int64_t>>* scratch, bool use_sparse,
       bool use_shared, bool was_degraded, int64_t result_bytes,
       TrackedCharge charge)
      : pipe(std::move(p)),
        fact_rows(db.lo.rows),
        scalar(pipe.layout.scalar()),
        sparse(use_sparse),
        shared_sparse(use_shared),
        degraded(was_degraded),
        result_bytes_estimate(result_bytes),
        agg_charge(std::move(charge)),
        agg(scratch != nullptr ? scratch : &own_scratch, threads,
            sparse ? 1 : pipe.layout.cells, &pipe.agg.plan),
        sparse_grids(!sparse ? 0
                             : (shared_sparse ? 1
                                              : static_cast<size_t>(threads))),
        per_thread(static_cast<size_t>(threads)) {
    for (ThreadState& state : per_thread) {
      state.vecs.resize(static_cast<size_t>(pipe.agg.num_vectors) * kVector);
    }
    for (SparseGrid& grid : sparse_grids) grid.Bind(&pipe.agg.plan);
  }

  /// Build phase: fetch every probe's build side from the process-wide
  /// cache; only combinations never seen for this database generation are
  /// actually built (one parallel filtered pass each). A failed build, or
  /// a dimension whose key domain is wider than cpu::kMaxJoinSpan, fails
  /// the whole query setup.
  Status FetchTables(const query::QuerySpec& spec, const Database& db,
                     ThreadPool& build_pool, BuildStats* stats) {
    BuildStats local_stats;
    if (stats == nullptr) stats = &local_stats;
    const std::string generation = query::GenerationKey(db);
    WallTimer build_timer;
    tables.reserve(pipe.probes.size());
    for (const query::ProbeStage& probe : pipe.probes) {
      const query::BoundJoin& join =
          pipe.bound[static_cast<size_t>(probe.join_index)];
      const cpu::JoinDomain domain{join.dim_rows, join.key_range,
                                   join.payload_range};
      if (domain.span() > cpu::kMaxJoinSpan) {
        return InvalidArgumentError(
            std::string(query::DimTableName(
                spec.joins[static_cast<size_t>(probe.join_index)].table)) +
            " key domain spans " + std::to_string(domain.span()) +
            " slots, more than a build side addresses (" +
            std::to_string(cpu::kMaxJoinSpan) + ")");
      }
      bool hit = false;
      StatusOr<std::shared_ptr<const cpu::JoinTable>> table =
          cpu::BuildCache::Process().GetOrBuild(
              generation, probe.cache_key,
              [&join, &probe, &domain, &build_pool] {
                return cpu::BuildJoinTable(
                    join.keys->data(), join.payload->data(), domain,
                    [&join](int64_t i) {
                      return join.RowPasses(static_cast<size_t>(i));
                    },
                    /*reads_payload=*/probe.group_slot >= 0, build_pool);
              },
              &hit);
      if (!table.ok()) {
        stats->build_ms = build_timer.ElapsedMs();
        return table.status();
      }
      tables.push_back(std::move(table).value());
      if (hit) {
        ++stats->cache_hits;
      } else {
        ++stats->cache_builds;
      }
    }
    stats->build_ms = build_timer.ElapsedMs();
    return Status();
  }

  /// Latches the query's first error (later ones are dropped — the first
  /// failure is the root cause) and returns it.
  Status LatchError(Status status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = std::move(status);
    failed.store(true, std::memory_order_relaxed);
    return first_error;
  }

  Status FirstError() {
    std::lock_guard<std::mutex> lock(error_mu);
    return first_error;
  }

  Status Run(int t, int64_t begin, int64_t end);

  const query::QueryPipeline pipe;
  const int64_t fact_rows;
  const bool scalar;
  const bool sparse;
  /// Degradation floor: all threads share sparse_grids[0] under sparse_mu.
  const bool shared_sparse;
  /// True when budget pressure forced a rung below the preferred shape.
  const bool degraded;
  /// Footprint model's emission-buffer estimate (charged during Finish).
  const int64_t result_bytes_estimate;
  /// Budget claim on the aggregation scratch, held until destruction.
  TrackedCharge agg_charge;
  std::vector<std::shared_ptr<const cpu::JoinTable>> tables;
  /// Private dense-grid scratch, used when no caller-owned scratch was
  /// donated. Must precede `agg`, which captures a reference.
  std::vector<std::vector<int64_t>> own_scratch;
  /// Per-thread dense grids; one cell per thread for scalar layouts.
  GridAgg agg;
  std::vector<SparseGrid> sparse_grids;
  /// Serializes shared_sparse access to sparse_grids[0]. Degraded-floor
  /// only — per-thread rungs never touch it.
  std::mutex sparse_mu;
  /// One scan thread's aggregation state beside its grid or table.
  struct alignas(64) ThreadState {
    /// The aggregate program's scratch vectors (pipe.agg.num_vectors x
    /// kVector; EstimateFootprint charges them).
    std::vector<int64_t> vecs;
    /// Rows this thread has folded into its own sink so far: with every
    /// SUM/COUNT accumulator starting at 0, (rows + m) x a slot's input
    /// bound caps every partial sum the next vector can produce.
    int64_t rows = 0;
  };
  std::vector<ThreadState> per_thread;

  /// Failure latch: set by the first failing RunMorsel, read (relaxed) on
  /// every later morsel to short-circuit a doomed member's remaining
  /// work. Exact visibility of first_error comes from error_mu.
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error;
};

FusedQuery::FusedQuery() = default;

FusedQuery::~FusedQuery() = default;

StatusOr<std::unique_ptr<FusedQuery>> FusedQuery::Create(
    const query::QuerySpec& spec, const Database& db, int threads,
    ThreadPool& build_pool,
    std::vector<std::vector<int64_t>>* grid_scratch, BuildStats* stats) {
  std::string error;
  if (!query::Validate(spec, &error)) return InvalidArgumentError(error);
  CRYSTAL_RETURN_IF_ERROR(fault::Check("fused.build"));
  std::unique_ptr<FusedQuery> fused(new FusedQuery());
  try {
    // Lowering: the spec resolved to raw column pointers and bound
    // build-side descriptors once, before any per-row work (Validate
    // passed, so lowering cannot abort on input).
    query::QueryPipeline pipe = query::LowerToPipeline(spec, db);
    const query::FootprintEstimate footprint =
        query::EstimateAggFootprint(pipe, threads);
    MemoryBudget& budget = MemoryBudget::Process();
    const std::string generation = query::GenerationKey(db);

    // Claim helper: on a rejected claim, ask the build cache to shed idle
    // entries and retry once — a cold cache entry is always cheaper to
    // re-earn than a failed query.
    const auto claim = [&budget, &generation](
                           MemCategory cat,
                           int64_t bytes) -> StatusOr<TrackedCharge> {
      StatusOr<TrackedCharge> charge =
          TrackedCharge::Acquire(budget, cat, bytes);
      if (charge.ok() ||
          charge.status().code() != StatusCode::kResourceExhausted) {
        return charge;
      }
      cpu::BuildCache::Process().EvictForPressure(bytes, generation);
      return TrackedCharge::Acquire(budget, cat, bytes);
    };

    // The degradation ladder: preferred shape first, then each cheaper
    // rung. Every rung keeps results bit-identical — sparse emission
    // feeds the same Normalize ordering the dense grid's EmitDenseGroups
    // produces, and the accumulation plan never changes.
    const bool prefer_sparse =
        !pipe.scalar() && pipe.layout.cells > query::kDenseGridMaxCells;
    bool use_sparse = prefer_sparse;
    bool use_shared = false;
    bool degraded = false;
    StatusOr<TrackedCharge> charge =
        pipe.scalar() || !prefer_sparse
            ? claim(MemCategory::kAggScratch, footprint.dense_agg_bytes)
            : claim(MemCategory::kSparseTables, footprint.sparse_agg_bytes);
    if (!charge.ok() && !pipe.scalar() && !prefer_sparse) {
      // Rung 2: per-thread sparse tables instead of dense grids.
      use_sparse = true;
      degraded = true;
      charge = claim(MemCategory::kSparseTables, footprint.sparse_agg_bytes);
    }
    if (!charge.ok() && !pipe.scalar()) {
      // Rung 3 (floor): one shared table, all threads serialized on it.
      use_sparse = true;
      use_shared = true;
      degraded = true;
      charge = claim(MemCategory::kSparseTables, footprint.shared_agg_bytes);
    }
    CRYSTAL_RETURN_IF_ERROR(charge.status());

    fused->impl_ = std::make_unique<Impl>(
        std::move(pipe), db, threads, grid_scratch, use_sparse, use_shared,
        degraded, footprint.result_bytes, std::move(charge).value());
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("query setup allocation failed");
  }
  CRYSTAL_RETURN_IF_ERROR(
      fused->impl_->FetchTables(spec, db, build_pool, stats));
  return fused;
}

FusedQuery::AggMode FusedQuery::agg_mode() const {
  const Impl& s = *impl_;
  if (s.scalar) return AggMode::kScalar;
  if (s.shared_sparse) return AggMode::kSharedSparse;
  if (s.sparse) return AggMode::kSparse;
  return AggMode::kDense;
}

bool FusedQuery::degraded() const { return impl_->degraded; }

bool FusedQuery::failed() const {
  return impl_->failed.load(std::memory_order_relaxed);
}

Status FusedQuery::RunMorsel(int t, int64_t begin, int64_t end) {
  Impl& s = *impl_;
  if (s.failed.load(std::memory_order_relaxed)) return s.FirstError();
  {
    Status status = fault::Check("fused.morsel");
    if (!status.ok()) return s.LatchError(std::move(status));
  }
  try {
    Status status = s.Run(t, begin, end);
    if (!status.ok()) return s.LatchError(std::move(status));
  } catch (const std::bad_alloc&) {
    return s.LatchError(
        ResourceExhaustedError("aggregation allocation failed"));
  }
  return Status();
}

Status FusedQuery::Impl::Run(int t, int64_t begin, int64_t end) {
  Impl& s = *this;
  const query::QueryPipeline& pipe = s.pipe;
  const query::AggStage& stage = pipe.agg;
  const query::AggPlan& plan = stage.plan;
  const int num_slots = plan.num_slots();
  const query::GroupLayout& layout = pipe.layout;
  int32_t sel[kVector];
  int32_t pos[kVector];
  int32_t group[3][kVector];
  // One kVector slice per packed probe/aggregate column, by FactCol.
  int32_t packed_scratch[query::kNumFactCols][kVector];
  int64_t off[kVector];
  ThreadState& state = s.per_thread[static_cast<size_t>(t)];
  int64_t* const vecs = state.vecs.data();
  for (int64_t base = begin; base < end; base += kVector) {
    const int n = static_cast<int>(std::min<int64_t>(kVector, end - base));
    // Fact predicates: the first fills the selection vector, the rest
    // compact it in place (AVX2 compare + movemask + perm-table selective
    // store under the hood, scalar predication otherwise). Packed columns
    // run the same stages fused with the unpack, comparing raw codes — no
    // decompressed slice ever touches memory.
    bool have_sel = false;
    int m = n;
    for (const query::FilterStage& f : pipe.filters) {
      if (!f.view.packed()) {
        const int32_t* col = f.view.plain_data() + base;
        if (!have_sel) {
          m = cpu::SelectRange(col, n, f.lo, f.hi, sel);
          have_sel = true;
        } else {
          m = cpu::RefineRange(col, sel, m, f.lo, f.hi, sel);
        }
      } else {
        const uint32_t* words = f.view.words();
        const int bits = f.view.bits();
        const int32_t ref = f.view.reference();
        if (!have_sel) {
          m = cpu::SelectRangePacked(words, bits, ref, base, n, f.lo, f.hi,
                                     sel);
          have_sel = true;
        } else {
          m = cpu::RefineRangePacked(words, bits, ref, base, sel, m, f.lo,
                                     f.hi, sel);
        }
      }
    }
    // Decodes a packed column's survivors into its scratch slice and
    // returns a pointer indexable exactly like a plain column slice at
    // this vector's base; plain columns pass through untouched. A column
    // read by a probe and the aggregate shares one slice. UnpackSurvivors
    // keeps sparse survivors' cost proportional to the survivors.
    auto resolve = [&](const storage::ColumnView& v,
                       query::FactCol col) -> const int32_t* {
      if (!v.packed()) return v.plain_data() + base;
      int32_t* buf = packed_scratch[static_cast<int>(col)];
      if (have_sel) {
        cpu::UnpackSurvivors(v.words(), v.bits(), v.reference(), base, sel,
                             m, buf);
      } else {
        cpu::UnpackRange(v.words(), v.bits(), v.reference(), base, n, buf);
      }
      return buf;
    };
    // Probe cascade on the selection vector; each stage is a batched
    // lookup — one bounds-masked gather per 8 keys (bitmap, narrow
    // payload array, or bitmap then a survivor-only payload gather) —
    // whose pos output compacts the group keys carried from earlier
    // stages.
    int carried = 0;
    int carried_slots[3];
    for (size_t p = 0; p < pipe.probes.size(); ++p) {
      const query::ProbeStage& probe = pipe.probes[p];
      const int32_t* keys = resolve(probe.fact_keys, probe.fact_key);
      int32_t* val_out =
          probe.group_slot >= 0 ? group[probe.group_slot] : nullptr;
      int32_t* pos_out = carried > 0 ? pos : nullptr;
      m = cpu::ProbeDirect(s.tables[p]->direct(), keys,
                           have_sel ? sel : nullptr, m, sel, val_out,
                           pos_out);
      have_sel = true;
      for (int c = 0; c < carried && pos_out != nullptr; ++c) {
        cpu::CompactInPlace(group[carried_slots[c]], pos, m);
      }
      if (probe.group_slot >= 0) {
        carried_slots[carried++] = probe.group_slot;
      }
    }
    const auto cell_of = [&](int i) {
      int64_t cell = 0;
      for (int k = 0; k < layout.num_keys; ++k) {
        cell = cell * layout.span[k] + (group[k][i] - layout.lo[k]);
      }
      return cell;
    };
    if (m == 0) continue;
    // Slot inputs, column-at-a-time over the survivors (query/agg_program.h):
    // every aggregate column is resolved and widened once, every distinct
    // subexpression computed once. Only filter/probe survivors are ever
    // evaluated.
    const int32_t* const row_sel = have_sel ? sel : nullptr;
    const bool evaluated = query::RunProgram(
        stage, vecs, m, [&](int c, int rows, int64_t* d) {
          const int32_t* col = resolve(stage.views[static_cast<size_t>(c)],
                                       stage.cols[static_cast<size_t>(c)]);
          if (row_sel != nullptr) {
            for (int i = 0; i < rows; ++i) d[i] = col[row_sel[i]];
          } else {
            for (int i = 0; i < rows; ++i) d[i] = col[i];
          }
        });
    if (!evaluated) return OutOfRangeError(query::kOverflowMsg);
    // Sink pass: each survivor's accumulator-row offset, once per vector —
    // a dense grid cell, a sparse-table pool offset (the shared table is
    // locked through this pass and the folds), or none for scalar
    // queries, which accumulate into the thread's one-cell grid.
    std::unique_lock<std::mutex> lock(s.sparse_mu, std::defer_lock);
    int64_t* acc;
    const int64_t* offsets = nullptr;
    if (s.scalar) {
      acc = s.agg.Grid(t);
    } else if (s.sparse) {
      if (s.shared_sparse) lock.lock();
      SparseGrid& grid =
          s.sparse_grids[s.shared_sparse ? 0 : static_cast<size_t>(t)];
      for (int i = 0; i < m; ++i) off[i] = grid.Offset(cell_of(i));
      acc = grid.values();
      offsets = off;
    } else {
      acc = s.agg.Grid(t);
      for (int i = 0; i < m; ++i) off[i] = cell_of(i) * num_slots;
      offsets = off;
    }
    // Per-slot accumulate loops. `state.rows` counts every row this
    // thread's private sink has seen; the shared table at the degradation
    // floor is fed by every thread, so it always checks.
    const bool ok = query::FoldSlots(stage, vecs, m, acc, offsets, state.rows,
                                     s.shared_sparse);
    state.rows += m;
    if (!ok) return OutOfRangeError(query::kOverflowMsg);
  }
  return Status();
}

StatusOr<QueryResult> FusedQuery::Finish(ThreadPool& pool) {
  // Result emission allocates (group rows, Normalize's sort scratch, the
  // dense grid's merged copy): claim the footprint model's estimate for
  // the duration and convert exhaustion into Status here — the same gap
  // fix aligned.h got, so a huge result can never leak std::bad_alloc
  // into a scheduler thread.
  const TrackedCharge result_charge = TrackedCharge::AcquireUnchecked(
      MemoryBudget::Process(), MemCategory::kResultBuffers,
      impl_->result_bytes_estimate);
  try {
    return FinishImpl(pool);
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("result emission allocation failed");
  }
}

StatusOr<QueryResult> FusedQuery::FinishImpl(ThreadPool& pool) {
  Impl& s = *impl_;
  if (s.failed.load(std::memory_order_relaxed)) return s.FirstError();
  const query::AggPlan& plan = s.pipe.agg.plan;
  QueryResult r;
  if (s.sparse) {
    for (size_t t = 1; t < s.sparse_grids.size(); ++t) {
      if (!s.sparse_grids[0].Absorb(s.sparse_grids[t])) {
        return OutOfRangeError(query::kOverflowMsg);
      }
    }
    s.sparse_grids[0].Emit(s.pipe.layout, &r);
    r.num_values = plan.num_emitted;
    r.Normalize();
    return r;
  }
  bool ok = true;
  const std::vector<int64_t>& grid = s.agg.Merge(pool, &ok);
  if (!ok) return OutOfRangeError(query::kOverflowMsg);
  if (s.scalar) {
    EmitScalars(plan, grid.data(), &r);
  } else {
    EmitDenseGroups(s.pipe.layout, plan, grid.data(), &r);
  }
  return r;
}

}  // namespace crystal::ssb
