// Reproduces the Section 5.3 case study: the r1+r2+r3 cost model for SSB
// Q2.1 on GPU and CPU vs the observed runtimes (paper: model 3.7/47 ms,
// actual 3.86/125 ms — GPUs hide probe latency, CPUs stall).
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "model/query_models.h"
#include "sim/device.h"
#include "sim/timing.h"
#include "ssb/crystal_engine.h"
#include "ssb/datagen.h"

namespace {

using crystal::TablePrinter;
namespace bench = crystal::bench;
namespace sim = crystal::sim;
namespace ssb = crystal::ssb;
namespace model = crystal::model;

}  // namespace

int main() {
  const int sf = static_cast<int>(bench::EnvInt("CRYSTAL_SSB_SF", 20));
  const int divisor =
      static_cast<int>(bench::EnvInt("CRYSTAL_SSB_FACT_DIVISOR", 20));
  bench::PrintHeader(
      "Section 5.3 case study: SSB Q2.1 model vs observed",
      "Section 5.3 (Fig. 17 query)",
      "Model: closed-form r1+r2+r3 with Table 2 numbers. Observed: the "
      "simulated Crystal engine at SF" + std::to_string(sf) + ".");

  const model::Q21Params params;
  const model::Q21Breakdown gpu_model =
      model::Q21Model(params, sim::DeviceProfile::V100());
  const model::Q21Breakdown cpu_model =
      model::Q21Model(params, sim::DeviceProfile::SkylakeI7());
  const double cpu_actual_model =
      model::Q21CpuActualMs(params, sim::DeviceProfile::SkylakeI7());

  const ssb::Database db = ssb::Generate(sf, divisor);
  sim::Device gpu_dev(sim::DeviceProfile::V100());
  sim::Device cpu_dev(sim::DeviceProfile::SkylakeI7());
  ssb::CrystalEngine gpu_engine(gpu_dev, db);
  ssb::CrystalEngine cpu_engine(cpu_dev, db);
  const double gpu_sim =
      gpu_engine.Run(ssb::QueryId::kQ21)->ScaledTotalMs(divisor);
  const double cpu_sim =
      cpu_engine.Run(ssb::QueryId::kQ21)->ScaledTotalMs(divisor);

  TablePrinter t({"device", "model (ms)", "observed (ms)", "paper model",
                  "paper actual"});
  t.AddRow({"GPU (V100)", TablePrinter::Fmt(gpu_model.total_ms, 2),
            TablePrinter::Fmt(gpu_sim, 2), "3.7", "3.86"});
  t.AddRow({"CPU (i7-6900)", TablePrinter::Fmt(cpu_model.total_ms, 1),
            TablePrinter::Fmt(cpu_sim, 1), "47", "125"});
  t.Print();

  std::printf("\nGPU model breakdown: fact columns %.2f ms, probes %.2f ms, "
              "result %.2f ms; part-HT L2 hit ratio pi = %.2f (paper: "
              "5.7/8 = 0.71)\n",
              gpu_model.fact_column_ms, gpu_model.probe_ms,
              gpu_model.result_ms, gpu_model.part_ht_l2_hit);
  std::printf("CPU actual (stall model): %.1f ms\n", cpu_actual_model);

  // The closed form sums DRAM terms only; the simulator also serializes the
  // ~146M L2-served probe sectors across the 2.2 TBps L2 fabric, landing
  // slightly above the paper's measured 3.86 ms.
  bench::ShapeCheck("GPU observed within 1.9x of the GPU model (latency "
                    "hiding works)",
                    gpu_sim < 1.9 * gpu_model.total_ms &&
                        gpu_sim > 0.5 * gpu_model.total_ms);
  bench::ShapeCheck("CPU observed far above the CPU model (memory stalls)",
                    cpu_sim > 1.6 * cpu_model.total_ms);
  bench::ShapeCheck("part hash table only partially L2-resident on GPU",
                    gpu_model.part_ht_l2_hit > 0.5 &&
                        gpu_model.part_ht_l2_hit < 0.9);
  bench::ShapeCheck("end-to-end Q2.1 gain above the bandwidth ratio",
                    cpu_sim / gpu_sim > 16.2);
  return 0;
}
