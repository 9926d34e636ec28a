#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` is the enclosing span's id (0 for a root).
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  const char* name = "";  // static string: a layer's public entry point
  int thread = 0;
  int64_t start_ns = 0;   // since the tracer's epoch
  int64_t end_ns = 0;
};

/// Per-layer self time: span time minus the part of each span's interval
/// its child spans cover (children running in parallel count once).
struct SelfTimeRow {
  std::string name;
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// In-memory span store, written out once at the end of a run. Disabled
/// tracers record nothing, so untraced runs pay one branch per call site.
///
/// Threading: Add() may be called from any thread. Spans recorded from a
/// scan pool's worker `t` go to that worker's own buffer (AddFromWorker),
/// so morsel spans never take a lock.
class Tracer {
 public:
  Tracer(bool enabled, int workers);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  int64_t Now() const { return ToNs(Clock::now()); }
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span with a fresh id, or with `id` when nonzero
  /// (a parent reserves its id so children can name it before it ends).
  int64_t Add(const char* name, int64_t request, int64_t parent,
              int64_t start_ns, int64_t end_ns, int64_t id = 0);
  /// Add() for scan-pool worker `worker` (< workers), lock-free.
  void AddFromWorker(int worker, const char* name, int64_t request,
                     int64_t parent, int64_t start_ns, int64_t end_ns);

  /// All spans recorded so far (call once recording threads are joined).
  std::vector<Span> Spans() const;

  /// Writes spans as JSON lines [id,parent,request,name,thread,start,end].
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> shared_;  // guarded by mu_
  std::vector<std::vector<Span>> per_worker_;
};

/// RAII span on the calling thread; a no-op when tracing is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t request,
             int64_t parent = 0)
      : tracer_(tracer), name_(name), request_(request), parent_(parent) {
    if (tracer_.enabled()) {
      id_ = tracer_.NewId();
      start_ns_ = tracer_.Now();
    }
  }
  ~ScopedSpan() {
    if (tracer_.enabled()) {
      tracer_.Add(name_, request_, parent_, start_ns_, tracer_.Now(), id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  int64_t request_;
  int64_t parent_;
  int64_t id_ = 0;
  int64_t start_ns_ = 0;
};

std::vector<SelfTimeRow> SelfTimes(const std::vector<Span>& spans);

/// Durations in ms of every span called `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
