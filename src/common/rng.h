#ifndef CRYSTAL_COMMON_RNG_H_
#define CRYSTAL_COMMON_RNG_H_

#include <cstdint>

namespace crystal {

/// Deterministic 64-bit RNG (splitmix64). Used everywhere instead of
/// std::mt19937 so data generation is fast, portable and reproducible across
/// standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next64() {
    uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Advances the stream as n Next64() calls would, in O(1): splitmix64's
  /// state moves by a fixed gamma per draw (mod 2^64). Lets parallel
  /// generators seek each chunk to its first draw.
  void Skip(uint64_t n) { state_ += n * kGamma; }

  /// Next 32-bit value.
  uint32_t Next32() { return static_cast<uint32_t>(Next64() >> 32); }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next64() % span);
  }

  /// Uniform 32-bit int in [lo, hi] inclusive.
  int32_t UniformInt(int32_t lo, int32_t hi) {
    return static_cast<int32_t>(Uniform(lo, hi));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(NextDouble()); }

  /// Bernoulli draw with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;

  uint64_t state_;
};

}  // namespace crystal

#endif  // CRYSTAL_COMMON_RNG_H_
