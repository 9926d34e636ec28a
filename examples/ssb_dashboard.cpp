// Scenario: a BI dashboard fires Star Schema Benchmark queries against the
// same data held by two deployments — a vectorized CPU server and a
// GPU-resident engine — and compares answers and predicted latencies.
// This is the paper's core "what should I deploy?" question in ~80 lines.
//
// Run: ./build/examples/ssb_dashboard [scale_factor]
#include <cstdio>
#include <cstdlib>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "sim/device.h"
#include "ssb/crystal_engine.h"
#include "ssb/datagen.h"
#include "ssb/queries.h"
#include "ssb/vectorized_cpu_engine.h"

using namespace crystal;  // examples only

int main(int argc, char** argv) {
  const int sf = argc > 1 ? std::atoi(argv[1]) : 2;
  std::printf("Generating SSB scale factor %d ...\n", sf);
  const ssb::Database db = ssb::Generate(sf, /*fact_divisor=*/10);

  // Functional engine on the host (answers are real).
  ThreadPool& pool = ThreadPool::Default();
  ssb::VectorizedCpuEngine host_engine(db, pool);

  // Simulated deployments: identical kernels, different hardware profiles.
  sim::Device gpu(sim::DeviceProfile::V100());
  sim::Device cpu(sim::DeviceProfile::SkylakeI7());
  ssb::CrystalEngine gpu_engine(gpu, db);
  ssb::CrystalEngine cpu_engine(cpu, db);

  std::printf("%-6s %-14s %12s %12s %8s\n", "query", "answer", "CPU (ms)",
              "GPU (ms)", "speedup");
  for (ssb::QueryId id :
       {ssb::QueryId::kQ11, ssb::QueryId::kQ21, ssb::QueryId::kQ31,
        ssb::QueryId::kQ41, ssb::QueryId::kQ43}) {
    WallTimer timer;
    const ssb::QueryResult truth = host_engine.Run(id);
    const double host_ms = timer.ElapsedMs();

    const ssb::EngineRun g = gpu_engine.Run(id).value();
    const ssb::EngineRun c = cpu_engine.Run(id).value();
    if (!(g.result == truth) || !(c.result == truth)) {
      std::printf("%-6s ANSWER MISMATCH\n", ssb::QueryName(id).c_str());
      return 1;
    }
    char answer[32];
    if (truth.group_keys.empty()) {
      std::snprintf(answer, sizeof(answer), "%lld",
                    static_cast<long long>(truth.scalar));
    } else {
      std::snprintf(answer, sizeof(answer), "%zu groups",
                    truth.group_keys.size());
    }
    const double cpu_ms = c.ScaledTotalMs(db.fact_divisor);
    const double gpu_ms = g.ScaledTotalMs(db.fact_divisor);
    std::printf("%-6s %-14s %12.2f %12.2f %7.1fx   (host ran in %.0f ms)\n",
                ssb::QueryName(id).c_str(), answer, cpu_ms, gpu_ms,
                cpu_ms / gpu_ms, host_ms);
  }
  std::printf("\nAll engines agreed on every answer. Predicted latencies use "
              "the paper's Table 2 hardware at SF %d.\n", sf);
  return 0;
}
