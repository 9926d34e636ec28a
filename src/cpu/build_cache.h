#ifndef CRYSTAL_CPU_BUILD_CACHE_H_
#define CRYSTAL_CPU_BUILD_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/aligned.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/value_range.h"
#include "cpu/vector_ops.h"

namespace crystal::cpu {

/// Direct payload arrays larger than this (half the 2 MiB per-core L2)
/// get a presence bitmap in front: every probe row tests the bitmap, and
/// only survivors gather their payload (the two-level form). Smaller
/// arrays stay one gather per probe. The footprint model plans with the
/// same constant (query::EstimateFootprint via PlanJoinLayout).
inline constexpr int64_t kMaxSingleLevelBytes = int64_t{1} << 20;

/// The widest key domain a build side can address: DirectTable's slot
/// offsets are int32 lanes. Planning is total (PlanJoinLayout sizes any
/// span); engines reject a wider dimension before building it.
inline constexpr int64_t kMaxJoinSpan = INT32_MAX;

/// Representation of one build side: key k lives at slot k - base of a
/// span-slot domain (the degenerate perfect hash, see DirectTable).
enum class JoinForm : uint8_t {
  kBitmap,    // presence bitmap: the probe reads no payload
  kPayload,   // width-byte payload array, sentinel in absent slots
  kTwoLevel,  // presence bitmap + width-byte payload array
};

/// Geometry of a build side, decided before anything is allocated, so the
/// footprint model and the builder agree byte for byte.
struct JoinLayout {
  JoinForm form = JoinForm::kBitmap;
  int width = 4;      // payload bytes per slot (kPayload, kTwoLevel)
  int32_t base = 0;   // smallest key
  int64_t span = 0;   // key domain size

  bool has_bits() const {
    return form == JoinForm::kBitmap || form == JoinForm::kTwoLevel;
  }
  bool has_payload() const {
    return form == JoinForm::kPayload || form == JoinForm::kTwoLevel;
  }
  int64_t bitmap_words() const { return has_bits() ? (span + 31) / 32 : 0; }
  /// span slots plus the 4 - width tail bytes a 4-byte gather may read.
  int64_t payload_bytes() const {
    return has_payload() ? span * width + (4 - width) : 0;
  }
  int64_t bytes() const { return bitmap_words() * 4 + payload_bytes(); }
};

/// Everything PlanJoinLayout reads of a build side's columns: the row
/// count and the key and payload value ranges over *all* rows (not only
/// those passing a build filter, so a table's geometry is identical
/// across filters). The engine and the footprint model both take them
/// from lowering (query::BoundJoin, ssb::Database::dim_ranges), so
/// neither scans a dimension column; tests build them with ScanRange.
struct JoinDomain {
  int64_t rows = 0;
  ValueRange keys;
  ValueRange payloads;

  /// Slots of the key domain [keys.min, keys.max]; 0 when empty.
  int64_t span() const {
    return rows > 0 ? static_cast<int64_t>(keys.max) - keys.min + 1 : 0;
  }
};

/// Chooses the representation of the build side over keys[i] -> payloads[i]
/// for i in [0, n = domain.rows), from its JoinDomain, over the slots
/// [keys.min, keys.max]:
///  * a presence bitmap when the probe reads no payload
///    (`reads_payload` false — a filter-only join), or when the domain is
///    empty (zero words: every probe misses);
///  * else a payload array at the narrowest width whose all-ones sentinel
///    is free: uint8 for payloads in [0, 255), uint16 in [0, 65535), else
///    int32 with INT32_MIN (DirectSentinel);
///  * two-level instead when that array exceeds kMaxSingleLevelBytes, or when
///    an int32 payload is INT32_MIN itself (the bitmap needs no
///    sentinel).
/// Any span is planned, kMaxJoinSpan or not, so size models stay total.
JoinLayout PlanJoinLayout(const JoinDomain& domain, bool reads_payload);

/// Build side of one dimension join, in the representation the probe
/// kernels consume (JoinLayout). Immutable after BuildJoinTable, so
/// instances can be shared read-only across queries and threads (see
/// BuildCache).
struct JoinTable {
  JoinLayout layout;
  /// Presence bitmap (kBitmap, kTwoLevel): bit k - base set when a build
  /// row passing the filters has key k.
  AlignedVector<uint32_t> bits;
  /// Payload array (kPayload, kTwoLevel): layout.width bytes per slot.
  AlignedVector<uint8_t> payload;

  /// The probe kernels' view (ProbeDirect). An empty domain's bitmap has
  /// no words, but the AVX2 probe reads word 0 in its masked-off lanes:
  /// it sees one zero word instead.
  DirectTable direct() const {
    static constexpr uint32_t kNoBits[1] = {0};
    const uint32_t* words = bits.empty() ? kNoBits : bits.data();
    return {layout.has_bits() ? words : nullptr,
            layout.has_payload() ? payload.data() : nullptr, layout.width,
            layout.span, layout.base};
  }
  /// Bytes actually held; equals layout.bytes() for built tables.
  int64_t bytes() const {
    return static_cast<int64_t>(bits.size()) * 4 +
           static_cast<int64_t>(payload.size());
  }
};

/// Builds the lookup table over keys[i] -> payloads[i] for the rows in
/// [0, domain.rows) where pred(i) is true, in the PlanJoinLayout
/// representation of `domain` (which must be those columns' ranges, with
/// span() <= kMaxJoinSpan), with one parallel pass over the dimension
/// (direct stores, bitmap words merged with atomic ORs; keys must be
/// unique). A table built with `reads_payload` false is a bitmap, which
/// reports each match's probe key as its payload.
JoinTable BuildJoinTable(const int32_t* keys, const int32_t* payloads,
                         const JoinDomain& domain,
                         const std::function<bool(int64_t)>& pred,
                         bool reads_payload, ThreadPool& pool);

/// Cross-query cache of dimension build sides. The 13 SSB flights reuse a
/// handful of distinct (table, build filter, payload) combinations — q2.x
/// share their date build, every repeated Execute of one spec reuses all
/// of them — so the heavy-traffic scenario (one resident database serving
/// many specs back-to-back) builds each table once per database
/// generation instead of once per query.
///
/// Keying: `key` is the canonical build-side identity
/// (query::BuildSideKey — dimension table, payload column, filters);
/// `generation` tags the database generation (query::GenerationKey — seed
/// and scale factor, which fully determine dimension content). Entries are
/// keyed by (generation, key), and whole generations are retained in an
/// LRU of capacity max_generations(): a server holding several databases
/// resident (--sf=1 and --sf=10 side by side) keeps each one's build
/// sides warm, and alternating between resident generations never evicts
/// — eviction drops only the least-recently-used generation, only when a
/// *new* generation would exceed capacity, and never touches entries of
/// any other generation (no cross-generation eviction storms).
///
/// Entries are shared immutable (shared_ptr<const JoinTable>), safe to
/// probe concurrently from any number of threads and engines; a returned
/// table stays valid after Clear()/invalidation for as long as the caller
/// holds the pointer.
///
/// Memory governance (docs/ROBUSTNESS.md): every successfully built table
/// is charged to the process MemoryBudget's build-cache category for its
/// whole lifetime — the charge is attached to the shared_ptr, so it is
/// released when the *last* reference drops, not when the cache forgets
/// the entry — and the cache answers budget pressure by evicting idle
/// entries LRU-first (EvictForPressure). An entry is idle when its build
/// completed and no query currently holds its table; in-use entries are
/// pinned — evicting them would free nothing (callers keep the table
/// alive) and would only force a rebuild mid-batch.
class BuildCache {
 public:
  /// Process-wide instance: every CPU engine bound to the same database
  /// generation shares one set of build sides.
  static BuildCache& Process();

  /// Returns the cached table for (generation, key), or builds it with
  /// `build` and caches the result. Sets *hit (when non-null) to whether
  /// the table came from the cache. The first requester of a key becomes
  /// its builder and runs `build` *outside* the cache lock; concurrent
  /// requests for the same key wait on that build (never building twice),
  /// while hits and builds of unrelated keys proceed without blocking
  /// behind it. Note that `build` runs on the caller's thread and
  /// (via BuildJoinTable) the caller's ThreadPool, whose ParallelFor is
  /// not reentrant: callers that may build concurrently must use distinct
  /// pools — the built-in engines do, each owning a private pool unless
  /// the EngineContext supplies a shared one.
  ///
  /// A build that fails — std::bad_alloc (kResourceExhausted), any other
  /// exception (kInternal), or the "build_cache.build" fault point firing
  /// (kFaultInjected) — resolves every same-key waiter with that Status
  /// and is *not* cached: the next request for the key rebuilds from
  /// scratch, so one transient failure never poisons the cache.
  StatusOr<std::shared_ptr<const JoinTable>> GetOrBuild(
      std::string_view generation, std::string_view key,
      const std::function<JoinTable()>& build, bool* hit);

  /// Drops every entry of every generation (tests; memory pressure).
  /// In-flight builds are detached (their requesters still get their
  /// table); completed tables survive for as long as callers hold their
  /// pointers.
  void Clear();

  /// True when (generation, key) is resident and its build succeeded.
  /// Never blocks (an in-flight build counts as absent).
  bool Contains(std::string_view generation, std::string_view key) const;

  /// Evicts idle entries LRU-first until at least `bytes` of cached table
  /// memory has been dropped or no evictable entry remains; returns the
  /// bytes actually dropped. Entries of generations other than
  /// `keep_generation` go first (idle generations drain before the
  /// current one loses anything); in-use and in-flight entries are never
  /// touched. The `cache.evict` fault point can veto a pass (returns 0).
  int64_t EvictForPressure(int64_t bytes,
                           std::string_view keep_generation = {});

  /// Bytes EvictForPressure could reclaim right now (idle entries only).
  int64_t evictable_bytes() const;

  /// Entries across all resident generations.
  int64_t entries() const;
  /// Total bytes held by the completed cached tables (in-flight builds
  /// are not counted — this accessor never blocks).
  int64_t bytes() const;

  /// Resident generation count.
  int64_t generations() const;
  /// Generations evicted by the LRU since construction/Clear (tests).
  int64_t evictions() const;
  /// Individual entries evicted under memory pressure since
  /// construction/Clear (EvictForPressure; bench + stats reporting).
  int64_t entry_evictions() const;

  int max_generations() const;
  /// Sets the LRU capacity (clamped to >= 1), evicting least-recently-used
  /// generations immediately if already over the new bound.
  void set_max_generations(int n);

  /// Default LRU capacity: enough for a server flipping among a few
  /// resident databases; build sides are MB-scale, so the bound is about
  /// predictability, not survival.
  static constexpr int kDefaultMaxGenerations = 4;

 private:
  /// What a build resolves to: a table on success, a non-OK status on
  /// failure. Carrying the Status through the shared future (instead of
  /// an exception) lets every same-key waiter observe the failure as a
  /// plain value.
  struct Entry {
    Status status;
    std::shared_ptr<const JoinTable> table;
  };
  using TableFuture = std::shared_future<Entry>;

  struct CachedTable {
    TableFuture future;
    uint64_t last_used = 0;  // LRU stamp: ++tick_ on every touch
  };

  struct Generation {
    std::unordered_map<std::string, CachedTable> tables;
    uint64_t last_used = 0;  // LRU stamp: ++tick_ on every touch
  };

  /// Evicts least-recently-used generations (other than `keep`) until at
  /// most max_generations_ remain. Caller holds mu_.
  void EvictOverCapacityLocked(const std::string* keep);

  /// EvictForPressure body; caller holds mu_.
  int64_t EvictForPressureLocked(int64_t bytes,
                                 std::string_view keep_generation);

  mutable std::mutex mu_;
  uint64_t tick_ = 0;
  int max_generations_ = kDefaultMaxGenerations;
  int64_t evictions_ = 0;
  int64_t entry_evictions_ = 0;
  std::unordered_map<std::string, Generation> generations_;
};

}  // namespace crystal::cpu

#endif  // CRYSTAL_CPU_BUILD_CACHE_H_
