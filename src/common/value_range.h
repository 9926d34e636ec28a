#ifndef CRYSTAL_COMMON_VALUE_RANGE_H_
#define CRYSTAL_COMMON_VALUE_RANGE_H_

#include <cstdint>

namespace crystal {

/// Smallest and largest value of an int32 column; min > max when it is
/// empty.
struct ValueRange {
  int32_t min = 0;
  int32_t max = -1;
};

/// ValueRange of col[0..n): one pass.
inline ValueRange ScanRange(const int32_t* col, int64_t n) {
  ValueRange r;
  if (n <= 0) return r;
  r.min = r.max = col[0];
  for (int64_t i = 1; i < n; ++i) {
    r.min = col[i] < r.min ? col[i] : r.min;
    r.max = col[i] > r.max ? col[i] : r.max;
  }
  return r;
}

}  // namespace crystal

#endif  // CRYSTAL_COMMON_VALUE_RANGE_H_
