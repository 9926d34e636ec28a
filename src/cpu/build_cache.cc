#include "cpu/build_cache.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <iterator>
#include <new>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/macros.h"
#include "common/memory.h"

namespace crystal::cpu {

namespace {

/// Stores the low `width` bytes of v (little-endian) at slot `off`.
void StoreSlot(uint8_t* payload, int width, int64_t off, int32_t v) {
  switch (width) {
    case 1:
      payload[off] = static_cast<uint8_t>(v);
      break;
    case 2:
      std::memcpy(payload + 2 * off, &v, 2);
      break;
    default:
      std::memcpy(payload + 4 * off, &v, 4);
      break;
  }
}

}  // namespace

JoinLayout PlanJoinLayout(const JoinDomain& domain, bool reads_payload) {
  JoinLayout layout;
  layout.span = domain.span();
  if (layout.span == 0) return layout;
  layout.base = domain.keys.min;
  if (!reads_payload) return layout;
  const int32_t min_pay = domain.payloads.min;
  const int32_t max_pay = domain.payloads.max;
  layout.width = min_pay < 0                    ? 4
                 : max_pay < DirectSentinel(1) ? 1
                 : max_pay < DirectSentinel(2) ? 2
                                               : 4;
  const bool sentinel_free = layout.width < 4 || min_pay != DirectSentinel(4);
  const bool fits = layout.span * layout.width <= kMaxSingleLevelBytes;
  layout.form =
      sentinel_free && fits ? JoinForm::kPayload : JoinForm::kTwoLevel;
  return layout;
}

JoinTable BuildJoinTable(const int32_t* keys, const int32_t* payloads,
                         const JoinDomain& domain,
                         const std::function<bool(int64_t)>& pred,
                         bool reads_payload, ThreadPool& pool) {
  const int64_t n = domain.rows;
  JoinTable table;
  table.layout = PlanJoinLayout(domain, reads_payload);
  const JoinLayout& layout = table.layout;
  CRYSTAL_CHECK_MSG(layout.span <= kMaxJoinSpan,
                    "build-side key domain wider than kMaxJoinSpan");
  table.bits.assign(static_cast<size_t>(layout.bitmap_words()), 0);
  table.payload.resize(static_cast<size_t>(layout.payload_bytes()));
  uint32_t* words = layout.has_bits() ? table.bits.data() : nullptr;
  uint8_t* slots = layout.has_payload() ? table.payload.data() : nullptr;
  const int width = layout.width;
  const int32_t base = layout.base;
  if (layout.form == JoinForm::kPayload) {
    const int32_t sentinel = DirectSentinel(width);
    pool.ParallelFor(layout.span, [&](int, int64_t begin, int64_t end) {
      for (int64_t off = begin; off < end; ++off) {
        StoreSlot(slots, width, off, sentinel);
      }
    });
  }
  // Keys are unique, so payload stores hit disjoint slots. Bitmap bits
  // are merged per word: each thread ORs a word in once per run of its
  // rows that land in it (one atomic per 32 rows for dense sorted keys),
  // and runs at a partition edge may share a word with the neighbour.
  pool.ParallelFor(n, [&](int, int64_t begin, int64_t end) {
    int64_t word = -1;
    uint32_t run = 0;
    for (int64_t i = begin; i < end; ++i) {
      if (!pred(i)) continue;
      const int64_t off = static_cast<int64_t>(keys[i]) - base;
      CRYSTAL_DCHECK(off >= 0 && off < layout.span);
      if (slots != nullptr) StoreSlot(slots, width, off, payloads[i]);
      if (words == nullptr) continue;
      if ((off >> 5) != word) {
        if (word >= 0) __atomic_fetch_or(&words[word], run, __ATOMIC_RELAXED);
        word = off >> 5;
        run = 0;
      }
      run |= 1u << (off & 31);
    }
    if (word >= 0) __atomic_fetch_or(&words[word], run, __ATOMIC_RELAXED);
  });
  return table;
}

BuildCache& BuildCache::Process() {
  static BuildCache* cache = new BuildCache();
  return *cache;
}

StatusOr<std::shared_ptr<const JoinTable>> BuildCache::GetOrBuild(
    std::string_view generation, std::string_view key,
    const std::function<JoinTable()>& build, bool* hit) {
  const std::string gen_str(generation);
  const std::string key_str(key);
  std::promise<Entry> promise;
  TableFuture future;
  bool claimed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool fresh = generations_.find(gen_str) == generations_.end();
    Generation& gen = generations_[gen_str];
    gen.last_used = ++tick_;
    if (fresh) EvictOverCapacityLocked(&gen_str);
    auto it = gen.tables.find(key_str);
    if (it != gen.tables.end()) {
      // Hit. The wait below, outside the lock, returns immediately for a
      // ready entry and blocks only on *this key's* in-flight build.
      it->second.last_used = ++tick_;
      future = it->second.future;
    } else {
      claimed = true;
      future = promise.get_future().share();
      gen.tables.emplace(key_str, CachedTable{future, ++tick_});
    }
  }
  if (hit != nullptr) *hit = !claimed;
  if (claimed) {
    // This caller claimed the key: run the (multi-millisecond, parallel)
    // build outside the lock so hits and other builds never queue behind
    // it; same-key requesters block on the shared future instead.
    Entry entry;
    entry.status = fault::Check("build_cache.build");
    if (entry.status.ok()) {
      try {
        auto table = std::make_unique<const JoinTable>(build());
        // Charge the table's bytes to the budget for its whole lifetime:
        // the release rides the shared_ptr deleter, so the claim drops
        // when the last holder (cache or query) lets go — which is when
        // the memory actually returns. The memory already exists, so this
        // is an unconditional charge; over-limit pressure is answered by
        // eviction below, never by throwing away a finished build.
        const int64_t table_bytes = table->bytes();
        MemoryBudget::Process().Charge(MemCategory::kBuildCache,
                                       table_bytes);
        entry.table = std::shared_ptr<const JoinTable>(
            table.release(), [table_bytes](const JoinTable* p) {
              MemoryBudget::Process().Release(MemCategory::kBuildCache,
                                              table_bytes);
              delete p;
            });
      } catch (const std::bad_alloc&) {
        entry.status = ResourceExhaustedError(
            "build-side allocation failed for '" + key_str + "'");
      } catch (const std::exception& e) {
        entry.status = InternalError("build failed for '" + key_str +
                                     "': " + e.what());
      }
    }
    promise.set_value(entry);
    if (entry.status.ok()) {
      // Insert-time pressure check: if this entry pushed the governed
      // total past the budget, shed idle entries (other generations
      // first) until the pressure clears or nothing idle remains.
      MemoryBudget& budget = MemoryBudget::Process();
      const int64_t limit = budget.limit();
      const int64_t over = limit > 0 ? budget.used() - limit : 0;
      if (over > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        EvictForPressureLocked(over, gen_str);
      }
    } else {
      // Don't leave a failed entry cached: same-key waiters see the
      // status once, later requests rebuild from scratch. The generation
      // (or the entry) may have been evicted meanwhile; only the builder
      // un-caches, so whatever is still there under this key is ours.
      std::lock_guard<std::mutex> lock(mu_);
      auto git = generations_.find(gen_str);
      if (git != generations_.end()) {
        auto it = git->second.tables.find(key_str);
        if (it != git->second.tables.end()) git->second.tables.erase(it);
      }
    }
  }
  const Entry& entry = future.get();
  if (!entry.status.ok()) return entry.status;
  return entry.table;
}

void BuildCache::EvictOverCapacityLocked(const std::string* keep) {
  while (static_cast<int>(generations_.size()) > max_generations_) {
    auto victim = generations_.end();
    for (auto it = generations_.begin(); it != generations_.end(); ++it) {
      if (keep != nullptr && it->first == *keep) continue;
      if (victim == generations_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == generations_.end()) return;
    generations_.erase(victim);
    ++evictions_;
  }
}

int64_t BuildCache::EvictForPressureLocked(int64_t bytes,
                                           std::string_view keep_generation) {
  if (bytes <= 0) return 0;
  if (!fault::Check("cache.evict").ok()) return 0;
  // Candidate = ready, successful, and idle: only the cache holds the
  // table (use_count == 1), so dropping our reference frees the memory
  // now. In-use entries are pinned — some query is probing that table —
  // and in-flight builds have no table to drop yet.
  struct Candidate {
    Generation* gen;
    std::string key;
    uint64_t last_used;
    int64_t bytes;
    bool foreign;  // not in keep_generation: evicts first
  };
  std::vector<Candidate> candidates;
  for (auto& [name, gen] : generations_) {
    for (auto& [key, cached] : gen.tables) {
      if (cached.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;
      }
      const Entry& entry = cached.future.get();
      if (entry.table == nullptr || entry.table.use_count() != 1) continue;
      candidates.push_back({&gen, key, cached.last_used,
                            entry.table->bytes(),
                            name != keep_generation});
    }
  }
  // Idle generations drain before the kept (current) one loses anything;
  // within each class, least-recently-used goes first.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.foreign != b.foreign) return a.foreign;
              return a.last_used < b.last_used;
            });
  int64_t freed = 0;
  for (const Candidate& c : candidates) {
    if (freed >= bytes) break;
    c.gen->tables.erase(c.key);
    freed += c.bytes;
    ++entry_evictions_;
  }
  // Generations emptied by the pass stop counting toward the LRU bound.
  for (auto it = generations_.begin(); it != generations_.end();) {
    it = it->second.tables.empty() ? generations_.erase(it) : std::next(it);
  }
  return freed;
}

int64_t BuildCache::EvictForPressure(int64_t bytes,
                                     std::string_view keep_generation) {
  std::lock_guard<std::mutex> lock(mu_);
  return EvictForPressureLocked(bytes, keep_generation);
}

int64_t BuildCache::evictable_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [name, gen] : generations_) {
    for (const auto& [key, cached] : gen.tables) {
      if (cached.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;
      }
      const Entry& entry = cached.future.get();
      if (entry.table != nullptr && entry.table.use_count() == 1) {
        total += entry.table->bytes();
      }
    }
  }
  return total;
}

bool BuildCache::Contains(std::string_view generation,
                          std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto git = generations_.find(std::string(generation));
  if (git == generations_.end()) return false;
  const auto it = git->second.tables.find(std::string(key));
  if (it == git->second.tables.end()) return false;
  if (it->second.future.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return false;
  }
  return it->second.future.get().table != nullptr;
}

void BuildCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  generations_.clear();
  tick_ = 0;
  evictions_ = 0;
  entry_evictions_ = 0;
}

int64_t BuildCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [name, gen] : generations_) {
    total += static_cast<int64_t>(gen.tables.size());
  }
  return total;
}

int64_t BuildCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [name, gen] : generations_) {
    for (const auto& [key, cached] : gen.tables) {
      if (cached.future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const Entry& entry = cached.future.get();
        if (entry.table != nullptr) total += entry.table->bytes();
      }
    }
  }
  return total;
}

int64_t BuildCache::entry_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entry_evictions_;
}

int64_t BuildCache::generations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(generations_.size());
}

int64_t BuildCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

int BuildCache::max_generations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_generations_;
}

void BuildCache::set_max_generations(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_generations_ = std::max(n, 1);
  EvictOverCapacityLocked(nullptr);
}

}  // namespace crystal::cpu
