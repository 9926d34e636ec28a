#ifndef CRYSTAL_SSB_DATAGEN_H_
#define CRYSTAL_SSB_DATAGEN_H_

#include <cstdint>

#include "ssb/schema.h"

namespace crystal {
class ThreadPool;
}  // namespace crystal

namespace crystal::ssb {

/// Options for the deterministic SSB generator. The generated database is
/// a pure function of these fields: it does not depend on the thread count
/// generation runs on.
struct DatagenOptions {
  int scale_factor = 1;
  /// Fact subsampling: lineorder holds 6M*SF/fact_divisor rows while the
  /// dimensions keep full SF cardinality (see Database::fact_divisor).
  int fact_divisor = 1;
  uint64_t seed = 20200302;  // arXiv date of the paper; any fixed value works
  /// Fact-column storage: plain int32 or frame-of-reference bit-packed.
  /// Generated values are identical either way (one RNG stream, one draw
  /// order); only the in-memory layout differs. Packed rows stream straight
  /// into the packed words (no transient plain materialization), so peak
  /// RSS is bounded by the encoded size — see docs/STORAGE.md for SF=10
  /// numbers.
  storage::StorageOptions storage;
};

/// Generates a database with dbgen's cardinalities, uniform foreign keys and
/// the attribute distributions the benchmark queries rely on (uniform
/// quantity 1..50, discount 0..10, part/customer/supplier geography uniform
/// over the dictionary domains). Deterministic for a given options struct.
///
/// Dimensions are generated serially; lineorder is filled on every thread
/// of `pool` in fixed 64Ki-row chunks, each seeking its own copy of the one
/// RNG stream, so the output is bit-identical for any pool size. Must not
/// be called from inside one of `pool`'s tasks.
Database Generate(const DatagenOptions& options, ThreadPool& pool);

/// Generates on ThreadPool::Default().
Database Generate(const DatagenOptions& options);

/// Convenience overload; generates on ThreadPool::Default().
Database Generate(int scale_factor, int fact_divisor = 1,
                  uint64_t seed = 20200302);

/// Days table helper: yyyymmdd key of the i-th day (0-based) after
/// 1992-01-01 on the proleptic Gregorian calendar.
int32_t DateKeyForDay(int day_index);

}  // namespace crystal::ssb

#endif  // CRYSTAL_SSB_DATAGEN_H_
