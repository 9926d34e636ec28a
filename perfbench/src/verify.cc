#include "verify.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/timer.h"
#include "query/parser.h"

namespace perfbench {

namespace ssb = crystal::ssb;

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void Mix(uint64_t* h, int64_t value) {
  uint64_t v = static_cast<uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    *h = (*h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace

uint64_t Digest(const ssb::QueryResult& result) {
  ssb::QueryResult r = result;
  r.Normalize();
  uint64_t h = kFnvOffset;
  Mix(&h, r.num_values);
  if (r.scalar_values.empty()) {
    Mix(&h, r.scalar);
  } else {
    for (int64_t v : r.scalar_values) Mix(&h, v);
  }
  Mix(&h, static_cast<int64_t>(r.group_keys.size()));
  for (const auto& keys : r.group_keys) {
    for (int32_t k : keys) Mix(&h, k);
  }
  for (int64_t v : r.group_values) Mix(&h, v);
  return h;
}

std::string GenerationTag(const ssb::Database& db) {
  return "sf=" + std::to_string(db.scale_factor) +
         "/div=" + std::to_string(db.fact_divisor) +
         "/seed=" + std::to_string(db.seed);
}

Verifier::Verifier(const std::string& expected_path) {
  std::ifstream in(expected_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t a = line.find('\t');
    const size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) continue;
    const uint64_t digest =
        std::strtoull(line.substr(a + 1, b - a - 1).c_str(), nullptr, 16);
    stored_[{line.substr(0, a), line.substr(b + 1)}] = digest;
  }
}

int Verifier::Register(const crystal::query::QuerySpec& spec) {
  std::string text = crystal::query::FormatQuerySpec(spec);
  auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  const int index = static_cast<int>(entries_.size());
  entries_.push_back(Entry{spec, text, {}, 0, 0});
  index_.emplace(std::move(text), index);
  return index;
}

void Verifier::Observe(int index, uint64_t digest) {
  ++entries_[static_cast<size_t>(index)].seen[digest];
  ++answers_;
}

void Verifier::ObserveFailure(int index) {
  ++entries_[static_cast<size_t>(index)].failures;
}

int64_t Verifier::Finish(const ssb::Database& db,
                         std::vector<std::string>* mismatches,
                         double* reference_ms) {
  const std::string generation = GenerationTag(db);
  int64_t failed = 0;
  crystal::WallTimer timer;
  double reference = 0;
  for (Entry& e : entries_) {
    failed += e.failures;
    if (e.seen.empty()) continue;
    auto it = stored_.find({generation, e.text});
    if (it != stored_.end()) {
      e.expected = it->second;
    } else {
      timer.Reset();
      e.expected = Digest(ssb::RunReference(db, e.spec));
      reference += timer.ElapsedMs();
    }
    for (const auto& [digest, count] : e.seen) {
      if (digest == e.expected) continue;
      failed += count;
      mismatches->push_back(e.spec.name + ": " + std::to_string(count) +
                            " answers with digest " + Hex(digest) +
                            ", expected " + Hex(e.expected) + " (" + e.text +
                            ")");
    }
  }
  *reference_ms = reference;
  return failed;
}

bool Verifier::WriteExpected(const std::string& path,
                             const ssb::Database& db) const {
  std::ofstream out(path, std::ios::app);
  const std::string generation = GenerationTag(db);
  for (const Entry& e : entries_) {
    if (e.seen.empty()) continue;
    out << generation << '\t' << Hex(e.expected) << '\t' << e.text << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
