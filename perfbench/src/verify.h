#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "query/query_spec.h"
#include "ssb/queries.h"
#include "ssb/schema.h"

namespace perfbench {

/// 64-bit FNV-1a digest of a normalized result: value count, scalar values,
/// then every group's keys and values in key order.
uint64_t Digest(const crystal::ssb::QueryResult& result);

/// Identity of a generated database's content: scale factor, fact divisor
/// and seed (storage encoding does not change values).
std::string GenerationTag(const crystal::ssb::Database& db);

/// Checks every answer a run produced. Answers are recorded as digests
/// while the run is timed; Finish() then compares them with the expected
/// digest of each spec — from the digest file when it holds the spec's
/// (generation, canonical text) pair, else from the reference engine.
class Verifier {
 public:
  /// Loads `expected_path` (tab-separated: generation, hex digest,
  /// canonical spec text); a missing file is an empty store.
  explicit Verifier(const std::string& expected_path);

  /// Index of `spec` (registered once per canonical text).
  int Register(const crystal::query::QuerySpec& spec);

  /// One answer for spec `index`.
  void Observe(int index, uint64_t digest);
  /// One request that produced no answer (error, timeout, rejection).
  void ObserveFailure(int index);

  /// Compares every observed answer with the expected digest for `db`.
  /// Returns the number of failed requests; describes each mismatching
  /// spec in *mismatches. `reference_ms` receives the time spent in the
  /// reference engine.
  int64_t Finish(const crystal::ssb::Database& db,
                 std::vector<std::string>* mismatches, double* reference_ms);

  /// Appends the expected digests Finish() used, for `db`, to `path`.
  bool WriteExpected(const std::string& path,
                     const crystal::ssb::Database& db) const;

  int64_t answers() const { return answers_; }

 private:
  struct Entry {
    crystal::query::QuerySpec spec;
    std::string text;
    std::map<uint64_t, int64_t> seen;  // digest -> answers
    int64_t failures = 0;
    uint64_t expected = 0;
  };

  std::map<std::pair<std::string, std::string>, uint64_t> stored_;
  std::vector<Entry> entries_;
  std::map<std::string, int> index_;
  int64_t answers_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
