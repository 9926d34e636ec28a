// SIMD/scalar parity suite for the vector-ops primitives. Every test runs
// its subject twice — scalar path forced, then the AVX2 path when the host
// has it — and demands bit-identical outputs, across selectivities (0%,
// ~50%, 100%) and tail lengths that are not multiples of 8 or 1024. The
// engine-level counterpart is the conformance suite run with CRYSTAL_SIMD=0
// (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "cpu/vector_ops.h"

namespace crystal::cpu {
namespace {

/// Restores the SIMD toggle on scope exit so tests cannot leak state.
class SimdGuard {
 public:
  SimdGuard() : saved_(SimdEnabled()) {}
  ~SimdGuard() { SetSimdEnabled(saved_); }

 private:
  bool saved_;
};

/// Runs `fn` with the scalar path forced and, when available, with the
/// SIMD path forced. `fn` receives a label for failure messages.
template <typename Fn>
void ForBothPaths(Fn fn) {
  SimdGuard guard;
  SetSimdEnabled(false);
  fn("scalar");
  if (SimdAvailable()) {
    SetSimdEnabled(true);
    fn("simd");
  }
}

std::vector<int32_t> RandomColumn(int n, uint64_t seed, int32_t max_value) {
  Rng rng(seed);
  std::vector<int32_t> col(static_cast<size_t>(n));
  for (auto& v : col) v = rng.UniformInt(0, max_value - 1);
  return col;
}

std::vector<int32_t> ReferenceSelect(const std::vector<int32_t>& col,
                                     int32_t lo, int32_t hi) {
  std::vector<int32_t> want;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col[i] >= lo && col[i] <= hi) want.push_back(static_cast<int32_t>(i));
  }
  return want;
}

// Tail lengths deliberately off the 8-lane and 1024-vector grids.
const int kLengths[] = {0, 1, 7, 8, 9, 63, 100, 1000, 1023, 1024, 1025};

// (lo, hi) windows over values in [0, 100): empty, ~half, everything.
const int32_t kRanges[][2] = {{200, 300}, {0, 49}, {25, 24}, {0, 99}};

TEST(VectorOpsSelectTest, MatchesReferenceAcrossSelectivitiesAndTails) {
  for (int n : kLengths) {
    const auto col = RandomColumn(n, 17 + static_cast<uint64_t>(n), 100);
    for (const auto& range : kRanges) {
      const auto want = ReferenceSelect(col, range[0], range[1]);
      ForBothPaths([&](const char* label) {
        // Room for whole-register stores past the match count.
        std::vector<int32_t> sel(static_cast<size_t>(n) + 8, -1);
        const int m =
            SelectRange(col.data(), n, range[0], range[1], sel.data());
        ASSERT_EQ(static_cast<size_t>(m), want.size())
            << label << " n=" << n << " [" << range[0] << "," << range[1]
            << "]";
        for (int i = 0; i < m; ++i) {
          ASSERT_EQ(sel[static_cast<size_t>(i)], want[static_cast<size_t>(i)])
              << label << " n=" << n << " i=" << i;
        }
      });
    }
  }
}

TEST(VectorOpsRefineTest, InPlaceRefineMatchesReference) {
  for (int n : kLengths) {
    const auto col = RandomColumn(n, 23 + static_cast<uint64_t>(n), 100);
    const auto first = ReferenceSelect(col, 0, 59);  // ~60% survive stage 1
    for (const auto& range : kRanges) {
      std::vector<int32_t> want;
      for (int32_t s : first) {
        const int32_t v = col[static_cast<size_t>(s)];
        if (v >= range[0] && v <= range[1]) want.push_back(s);
      }
      ForBothPaths([&](const char* label) {
        std::vector<int32_t> sel(first.begin(), first.end());
        sel.resize(first.size() + 8, -1);
        const int m =
            RefineRange(col.data(), sel.data(),
                        static_cast<int>(first.size()), range[0], range[1],
                        sel.data());
        ASSERT_EQ(static_cast<size_t>(m), want.size()) << label << " n=" << n;
        for (int i = 0; i < m; ++i) {
          ASSERT_EQ(sel[static_cast<size_t>(i)], want[static_cast<size_t>(i)])
              << label << " n=" << n << " i=" << i;
        }
      });
    }
  }
}

struct ProbeReference {
  std::vector<int32_t> sel, val, pos;
};

/// What a probe of `map` for keys[sel[i]] (or keys[i]) must emit: an
/// oracle independent of every probe kernel.
ProbeReference ReferenceProbe(const std::unordered_map<int32_t, int32_t>& map,
                              const std::vector<int32_t>& keys,
                              const std::vector<int32_t>* sel) {
  ProbeReference want;
  const int m = static_cast<int>(sel != nullptr ? sel->size() : keys.size());
  for (int i = 0; i < m; ++i) {
    const int32_t row = sel != nullptr ? (*sel)[static_cast<size_t>(i)] : i;
    const auto it = map.find(keys[static_cast<size_t>(row)]);
    if (it != map.end()) {
      want.sel.push_back(row);
      want.val.push_back(it->second);
      want.pos.push_back(i);
    }
  }
  return want;
}

constexpr int32_t kDirectBase = 1000;
constexpr int64_t kDirectSpan = 3001;  // not a multiple of 32

/// One hand-built direct-address table plus a map holding the same
/// key -> payload pairs (payload = key for the presence bitmap).
struct DirectFixture {
  std::vector<uint32_t> bits;
  std::vector<uint8_t> payload;
  DirectTable view;
  std::unordered_map<int32_t, int32_t> map;
};

/// Present keys are a random ~half of [base, base + span); payloads span
/// the width's whole sentinel-free range, and the int32 two-level form also
/// stores INT32_MIN (it needs no sentinel).
DirectFixture MakeDirect(bool bits, int width, uint64_t seed) {
  const int32_t base = kDirectBase;
  const int64_t span = kDirectSpan;
  DirectFixture f;
  f.view.base = base;
  f.view.span = span;
  f.view.width = width;
  const bool has_payload = width > 0;
  if (bits) f.bits.assign(static_cast<size_t>((span + 31) / 32), 0);
  if (has_payload) {
    f.payload.assign(static_cast<size_t>(span * width + (4 - width)), 0);
    for (int64_t off = 0; off < span; ++off) {
      const int32_t sentinel = DirectSentinel(width);
      std::memcpy(&f.payload[static_cast<size_t>(off * width)], &sentinel,
                  static_cast<size_t>(width));
    }
  }
  Rng rng(seed);
  for (int64_t off = 0; off < span; ++off) {
    if (rng.UniformInt(0, 1) == 0) continue;
    const int32_t key = base + static_cast<int32_t>(off);
    int32_t value = key;
    if (width == 1) value = rng.UniformInt(0, 254);
    if (width == 2) value = rng.UniformInt(0, 65534);
    if (width == 4) {
      value = rng.UniformInt(INT32_MIN + 1, INT32_MAX);
      if (bits && off % 7 == 0) value = INT32_MIN;
    }
    if (bits) f.bits[static_cast<size_t>(off / 32)] |= 1u << (off % 32);
    if (has_payload) {
      std::memcpy(&f.payload[static_cast<size_t>(off * width)], &value,
                  static_cast<size_t>(width));
    }
    f.map.emplace(key, value);
  }
  f.view.bits = bits ? f.bits.data() : nullptr;
  f.view.payload = has_payload ? f.payload.data() : nullptr;
  if (!has_payload) f.view.width = 4;
  return f;
}

TEST(VectorOpsDirectTest, EveryFormMatchesAMapReferenceOnBothPaths) {
  // Forms: presence bitmap (width 0 here), payload arrays of width 1/2/4,
  // and two-level (bitmap + array) of width 1/2/4. Probe keys mix present
  // and absent in-domain keys with keys below base, negative keys (-1
  // among them), the last slot (base + span - 1), the first key past it
  // (base + span) and the int32 extremes.
  struct Form {
    bool bits;
    int width;
  };
  const Form forms[] = {{true, 0},  {false, 1}, {false, 2}, {false, 4},
                        {true, 1},  {true, 2},  {true, 4}};
  Rng rng(77);
  std::vector<int32_t> keys(1024);
  for (size_t i = 0; i < keys.size(); ++i) {
    switch (i % 8) {
      case 0: keys[i] = rng.UniformInt(0, 999); break;       // below base
      case 1: keys[i] = i % 16 == 1 ? -1 : rng.UniformInt(-5000, -2); break;
      case 2: keys[i] = kDirectBase + kDirectSpan - 1; break;
      case 3: keys[i] = kDirectBase + kDirectSpan; break;
      case 4: keys[i] = i % 16 == 4 ? INT32_MIN : INT32_MAX; break;
      default:
        keys[i] = rng.UniformInt(kDirectBase, kDirectBase + kDirectSpan - 1);
        break;
    }
  }
  std::vector<int32_t> half;
  for (int32_t i = 0; i < 1024; i += 2) half.push_back(i);
  for (const Form& form : forms) {
    const DirectFixture f = MakeDirect(form.bits, form.width, 5 + form.width);
    for (const int m : {0, 7, 8, 1023, 1024}) {
      for (const bool with_sel : {false, true}) {
        const int rows = with_sel ? std::min<int>(m, 512) : m;
        const int32_t* sel = with_sel ? half.data() : nullptr;
        const std::vector<int32_t> sel_copy(
            half.begin(), half.begin() + (with_sel ? rows : 0));
        const std::vector<int32_t> probed(
            keys.begin(), with_sel ? keys.end() : keys.begin() + rows);
        const ProbeReference want =
            ReferenceProbe(f.map, probed, with_sel ? &sel_copy : nullptr);
        for (const bool with_val : {false, true}) {
          for (const bool with_pos : {false, true}) {
            ForBothPaths([&](const char* path) {
              std::vector<int32_t> out(1024 + 8), val(1024 + 8, -7),
                  pos(1024 + 8, -7);
              int32_t* v = with_val ? val.data() : nullptr;
              int32_t* p = with_pos ? pos.data() : nullptr;
              const int got =
                  ProbeDirect(f.view, keys.data(), sel, rows, out.data(), v, p);
              const std::string ctx =
                  std::string(path) + " bits=" + std::to_string(form.bits) +
                  " width=" + std::to_string(form.width) +
                  " m=" + std::to_string(m) +
                  " sel=" + std::to_string(with_sel) +
                  " val=" + std::to_string(with_val) +
                  " pos=" + std::to_string(with_pos);
              ASSERT_EQ(got, static_cast<int>(want.sel.size())) << ctx;
              for (int i = 0; i < got; ++i) {
                ASSERT_EQ(out[i], want.sel[i]) << ctx << " i=" << i;
                if (with_val) {
                  ASSERT_EQ(val[i], want.val[i]) << ctx;
                }
                if (with_pos) {
                  ASSERT_EQ(pos[i], want.pos[i]) << ctx;
                }
              }
            });
          }
        }
      }
    }
  }
}

TEST(VectorOpsDirectTest, SelectionMayAliasTheOutput) {
  // The engine idiom: probe in place over the stage's selection vector.
  const DirectFixture f = MakeDirect(true, 2, 11);
  std::vector<int32_t> keys(1024);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = 990 + static_cast<int32_t>(i * 3);
  }
  std::vector<int32_t> base_sel;
  for (int32_t i = 0; i < 1024; i += 3) base_sel.push_back(i);
  const ProbeReference want = ReferenceProbe(f.map, keys, &base_sel);
  ForBothPaths([&](const char* path) {
    std::vector<int32_t> sel = base_sel;
    std::vector<int32_t> val(sel.size() + 8);
    const int got = ProbeDirect(f.view, keys.data(), sel.data(),
                                static_cast<int>(sel.size()), sel.data(),
                                val.data(), nullptr);
    ASSERT_EQ(got, static_cast<int>(want.sel.size())) << path;
    for (int i = 0; i < got; ++i) {
      EXPECT_EQ(sel[i], want.sel[i]) << path;
      EXPECT_EQ(val[i], want.val[i]) << path;
    }
  });
}

TEST(VectorOpsCompactTest, CompactsCarriedVectorsInPlace) {
  std::vector<int32_t> v = {10, 11, 12, 13, 14, 15, 16, 17};
  const std::vector<int32_t> pos = {0, 2, 3, 7};
  CompactInPlace(v.data(), pos.data(), static_cast<int>(pos.size()));
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 12);
  EXPECT_EQ(v[2], 13);
  EXPECT_EQ(v[3], 17);
}

TEST(VectorOpsDispatchTest, ToggleIsStickyAndSafe) {
  SimdGuard guard;
  SetSimdEnabled(false);
  EXPECT_FALSE(SimdEnabled());
  SetSimdEnabled(true);
  // Enabling succeeds exactly when the host + build support AVX2.
  EXPECT_EQ(SimdEnabled(), SimdAvailable());
}

}  // namespace
}  // namespace crystal::cpu
