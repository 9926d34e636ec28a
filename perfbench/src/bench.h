#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line settings of one benchmark run (see main.cc for the flags).
struct Options {
  std::string workload;
  uint64_t data_seed = 20200302;  // ssb::DatagenOptions' canonical seed
  uint64_t workload_seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Size overrides for the self-check; 0 keeps the workload's own size.
  int sf = 0;
  int fact_divisor = 0;
  /// Scan pool threads: nproc.
  int threads = 0;
  /// Set-ups per run; 0 = the workload's default.
  int setups = 0;
  std::string expected_path;
  std::string record_expected_path;
  std::string trace_out;
  /// The first set-up is timed from here, so setup_s covers process start.
  Clock::time_point process_start = Clock::now();
};

/// One reported number: its value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

/// Everything a workload reports. Metrics absent on a workload are still
/// present (value 0) so every run prints the same names; `absent` says why.
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> absent;
  std::map<std::string, std::string> settings;  // fingerprint entries
  std::vector<std::string> notes;
  std::vector<std::string> mismatches;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool valid = true;

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Absent(const std::string& name, const std::string& unit,
              const std::string& reason) {
    metrics[name] = Metric{0, unit, 0};
    absent[name] = reason;
  }
};

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// splitmix64: the seeded stream behind every schedule and shuffle here.
struct SplitMix {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double Unit() {
    return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Next() % i]);
    }
  }
};

/// Processors this process may run on (what `nproc` prints).
int Nproc();

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// Runs the workload; fills `report` and returns false only on a set-up
/// error it already explained on stderr.
bool RunSolo(const Options& options, Tracer& tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
