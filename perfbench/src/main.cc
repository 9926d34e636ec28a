// perfbench: the repository benchmark's measuring binary. perfbench/run.py
// builds and runs it; it runs one workload and prints one JSON object on
// stdout (progress goes to stderr).
//
//   perfbench --workload=NAME [--data-seed=N] [--workload-seed=N]
//             [--seconds=S] [--trace=0|1] [--trace-out=FILE]
//             [--expected=FILE] [--record-expected=FILE]
//             [--sf=N] [--fact-divisor=N] [--setups=N]
//
// Exit codes: 0 ok; 1 usage or set-up error; 2 a request failed or gave a
// wrong answer; 3 the run is invalid (the traced serving phase's load
// generator fell behind).
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/memory.h"
#include "cpu/vector_ops.h"
#include "trace.h"

namespace perfbench {

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full precision; a non-finite value (a latency percentile that landed on
/// a failed request) is written as null.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintJson(const Options& o, const Report& r,
               const std::vector<SelfTimeRow>& self_time) {
  std::ostringstream out;
  out << "{\"workload\": " << Quote(o.workload)
      << ", \"correct\": " << (r.failed == 0 ? "true" : "false")
      << ", \"valid\": " << (r.valid ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"settings\": {";
  const char* sep = "";
  for (const auto& [k, v] : r.settings) {
    out << sep << Quote(k) << ": " << Quote(v);
    sep = ", ";
  }
  out << "}, \"metrics\": {";
  sep = "";
  for (const auto& [name, m] : r.metrics) {
    out << sep << Quote(name) << ": {\"value\": " << Number(m.value)
        << ", \"unit\": " << Quote(m.unit) << ", \"samples\": " << m.samples
        << "}";
    sep = ", ";
  }
  out << "}, \"absent\": {";
  sep = "";
  for (const auto& [name, why] : r.absent) {
    out << sep << Quote(name) << ": " << Quote(why);
    sep = ", ";
  }
  out << "}, \"notes\": [";
  sep = "";
  for (const std::string& n : r.notes) {
    out << sep << Quote(n);
    sep = ", ";
  }
  out << "], \"mismatches\": [";
  sep = "";
  for (const std::string& m : r.mismatches) {
    out << sep << Quote(m);
    sep = ", ";
  }
  out << "], \"self_time\": [";
  sep = "";
  for (const SelfTimeRow& row : self_time) {
    out << sep << "{\"layer\": " << Quote(row.name)
        << ", \"count\": " << row.count
        << ", \"total_ms\": " << Number(row.total_ms)
        << ", \"self_ms\": " << Number(row.self_ms) << "}";
    sep = ", ";
  }
  out << "]}";
  std::printf("%s\n", out.str().c_str());
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload=ssb13-sf10-solo|gen-packed-solo "
               "[--data-seed=N] [--workload-seed=N] "
               "[--seconds=S] [--trace=0|1] [--trace-out=FILE] "
               "[--expected=FILE] [--record-expected=FILE] [--sf=N] "
               "[--fact-divisor=N] [--setups=N]\n",
               problem);
  return 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    const char* a = argv[i];
    if (ParseFlag(a, "--workload", &v)) {
      o.workload = v;
    } else if (ParseFlag(a, "--data-seed", &v)) {
      o.data_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(a, "--workload-seed", &v)) {
      o.workload_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(a, "--seconds", &v)) {
      o.seconds = std::atof(v.c_str());
    } else if (ParseFlag(a, "--trace", &v)) {
      o.trace = v == "1";
    } else if (ParseFlag(a, "--trace-out", &v)) {
      o.trace_out = v;
    } else if (ParseFlag(a, "--expected", &v)) {
      o.expected_path = v;
    } else if (ParseFlag(a, "--record-expected", &v)) {
      o.record_expected_path = v;
    } else if (ParseFlag(a, "--sf", &v)) {
      o.sf = std::atoi(v.c_str());
    } else if (ParseFlag(a, "--fact-divisor", &v)) {
      o.fact_divisor = std::atoi(v.c_str());
    } else if (ParseFlag(a, "--setups", &v)) {
      o.setups = std::atoi(v.c_str());
    } else {
      return Usage((std::string("unknown flag ") + a).c_str());
    }
  }
  if (o.workload != "ssb13-sf10-solo" && o.workload != "gen-packed-solo") {
    return Usage("unknown --workload");
  }
  if (!(o.seconds > 0)) return Usage("--seconds must be positive");
  o.threads = Nproc();

  Report report;
  report.settings["workload"] = o.workload;
  report.settings["data_seed"] = std::to_string(o.data_seed);
  report.settings["workload_seed"] = std::to_string(o.workload_seed);
  report.settings["seconds"] = std::to_string(o.seconds);
  report.settings["trace"] = o.trace ? "1" : "0";
  report.settings["threads"] = std::to_string(o.threads);
  report.settings["nproc"] = std::to_string(Nproc());
  report.settings["simd"] = crystal::cpu::SimdEnabled() ? "on" : "off";
  report.settings["build_type"] = PERFBENCH_BUILD_TYPE;
  report.settings["compiler"] = __VERSION__;

  Tracer tracer(o.trace, o.threads);
  if (!RunSolo(o, tracer, &report)) return 1;
  report.Set("peak_rss_mb", PeakRssMb(), "MB", 1);

  std::vector<SelfTimeRow> self_time;
  if (o.trace) {
    report.Set("memory.peak_governed_bytes",
               static_cast<double>(crystal::MemoryBudget::Process().peak()),
               "B", 1);
    const std::vector<Span> spans = tracer.Spans();
    self_time = SelfTimes(spans);
    if (!o.trace_out.empty() && !tracer.Write(o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                   o.trace_out.c_str());
      return 1;
    }
    report.notes.push_back(std::to_string(spans.size()) + " spans recorded");
  }
  PrintJson(o, report, self_time);
  for (const std::string& m : report.mismatches) {
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", m.c_str());
  }
  if (report.failed > 0) return 2;
  if (!report.valid) return 3;
  return 0;
}
