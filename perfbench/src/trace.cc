#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled, int workers)
    : enabled_(enabled),
      epoch_(Clock::now()),
      per_worker_(static_cast<size_t>(std::max(1, workers))) {}

int64_t Tracer::Add(const char* name, int64_t request, int64_t parent,
                    int64_t start_ns, int64_t end_ns, int64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = NewId();
  std::lock_guard<std::mutex> lock(mu_);
  shared_.push_back(Span{id, parent, request, name, -1, start_ns, end_ns});
  return id;
}

void Tracer::AddFromWorker(int worker, const char* name, int64_t request,
                           int64_t parent, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  per_worker_[static_cast<size_t>(worker)].push_back(
      Span{NewId(), parent, request, name, worker, start_ns, end_ns});
}

std::vector<Span> Tracer::Spans() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all = shared_;
  }
  for (const std::vector<Span>& buffer : per_worker_) {
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  return all;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# [id, parent, request, name, thread, start_ns, end_ns]\n");
  for (const Span& s : Spans()) {
    std::fprintf(f, "[%lld,%lld,%lld,\"%s\",%d,%lld,%lld]\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name, s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<SelfTimeRow> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTimeRow> rows;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t cursor = s.start_ns;
      for (const auto& [begin, end] : kids) {
        const int64_t b = std::max(begin, cursor);
        const int64_t e = std::min(end, s.end_ns);
        if (e > b) {
          covered += e - b;
          cursor = e;
        }
      }
    }
    SelfTimeRow& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    row.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    row.self_ms +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<SelfTimeRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) {
              return a.self_ms > b.self_ms;
            });
  return out;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

}  // namespace perfbench
