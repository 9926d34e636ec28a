// Golden modeled costs of the two simulated engines. Every row pins one
// (engine, profile, storage, spec) run on the conformance database (SF1
// dimensions, 6k-row fact sample): the predicted build and probe times and
// the device's traffic totals. The engines' numbers are the model — a
// refactor must leave every row unchanged, and an intended model change
// edits sim_cost_golden.inc by hand (a mismatch prints the actual row in
// the table's own syntax).
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "query/parser.h"
#include "query/ssb_specs.h"
#include "sim/device.h"
#include "sim/profile.h"
#include "ssb/crystal_engine.h"
#include "ssb/datagen.h"
#include "ssb/materializing_engine.h"

namespace crystal::ssb {
namespace {

struct GoldenRow {
  const char* engine;
  const char* profile;
  const char* storage;
  const char* spec;
  double build_ms;
  double probe_ms;
  uint64_t seq_read_bytes;
  uint64_t seq_write_bytes;
  uint64_t rand_read_lines_dram;
  uint64_t rand_read_lines_cache;
  uint64_t rand_write_sectors;
  uint64_t atomic_ops;
  uint64_t arithmetic_ops;
  uint64_t kernel_launches;
};

constexpr GoldenRow kGolden[] = {
#include "sim_cost_golden.inc"
};

const Database& GoldenDb(storage::Encoding encoding) {
  const auto make = [](storage::Encoding e) {
    DatagenOptions gen;
    gen.scale_factor = 1;
    gen.fact_divisor = 1000;
    gen.storage.encoding = e;
    return new Database(Generate(gen));
  };
  static const Database* plain = make(storage::Encoding::kPlain);
  static const Database* packed = make(storage::Encoding::kPacked);
  return encoding == storage::Encoding::kPacked ? *packed : *plain;
}

// The 13 canonical specs, both TPC-H analogs, and the ad-hoc specs the CI
// driver step runs.
std::vector<query::QuerySpec> GoldenSpecs() {
  std::vector<query::QuerySpec> specs;
  for (QueryId id : kAllQueries) specs.push_back(query::SsbSpec(id));
  specs.push_back(query::TpchQ1Analog());
  specs.push_back(query::TpchQ6Analog());
  constexpr const char* kAdhoc[] = {
      "sum revenue join supplier on suppkey filter s_region = 2 "
      "group by s_nation",
      "sum extendedprice*discount where quantity in 10..20",
      "sum revenue-supplycost join customer on custkey filter c_region = 3 "
      "join part on partkey filter p_mfgr = 5 group by c_nation, p_category",
  };
  for (size_t i = 0; i < std::size(kAdhoc); ++i) {
    query::QuerySpec spec;
    std::string error;
    EXPECT_TRUE(query::ParseQuerySpec(kAdhoc[i], &spec, &error)) << error;
    spec.name = "adhoc" + std::to_string(i + 1);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string FormatRow(const GoldenRow& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", \"%s\", \"%s\", %.17g, %.17g, %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "},",
                r.engine, r.profile, r.storage, r.spec, r.build_ms,
                r.probe_ms, r.seq_read_bytes, r.seq_write_bytes,
                r.rand_read_lines_dram, r.rand_read_lines_cache,
                r.rand_write_sectors, r.atomic_ops, r.arithmetic_ops,
                r.kernel_launches);
  return buf;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
}

bool Matches(const GoldenRow& want, const GoldenRow& got) {
  return NearlyEqual(want.build_ms, got.build_ms) &&
         NearlyEqual(want.probe_ms, got.probe_ms) &&
         want.seq_read_bytes == got.seq_read_bytes &&
         want.seq_write_bytes == got.seq_write_bytes &&
         want.rand_read_lines_dram == got.rand_read_lines_dram &&
         want.rand_read_lines_cache == got.rand_read_lines_cache &&
         want.rand_write_sectors == got.rand_write_sectors &&
         want.atomic_ops == got.atomic_ops &&
         want.arithmetic_ops == got.arithmetic_ops &&
         want.kernel_launches == got.kernel_launches;
}

const GoldenRow* FindGolden(const GoldenRow& key) {
  for (const GoldenRow& row : kGolden) {
    if (std::string(row.engine) == key.engine &&
        std::string(row.profile) == key.profile &&
        std::string(row.storage) == key.storage &&
        std::string(row.spec) == key.spec) {
      return &row;
    }
  }
  return nullptr;
}

TEST(SimCostGoldenTest, ModeledCostsMatchTable) {
  const std::vector<query::QuerySpec> specs = GoldenSpecs();
  struct Profile {
    const char* name;
    sim::DeviceProfile profile;
  };
  const Profile profiles[] = {{"V100", sim::DeviceProfile::V100()},
                              {"SkylakeI7", sim::DeviceProfile::SkylakeI7()}};
  const storage::Encoding encodings[] = {storage::Encoding::kPlain,
                                         storage::Encoding::kPacked};
  size_t checked = 0;
  for (const char* engine : {"crystal-gpu-sim", "materializing"}) {
    for (const Profile& profile : profiles) {
      for (storage::Encoding encoding : encodings) {
        const Database& db = GoldenDb(encoding);
        for (const query::QuerySpec& spec : specs) {
          // A fresh device per run: notional buffer addresses (and so the
          // cache model's set mapping) depend only on this run.
          sim::Device device(profile.profile);
          EngineRun run;
          if (std::string(engine) == "materializing") {
            run = MaterializingEngine(device, db).Run(spec).value();
          } else {
            run = CrystalEngine(device, db).Run(spec).value();
          }
          const sim::MemStats& s = device.stats();
          const GoldenRow got = {engine,
                                 profile.name,
                                 encoding == storage::Encoding::kPacked
                                     ? "packed"
                                     : "plain",
                                 spec.name.c_str(),
                                 run.build_ms,
                                 run.probe_ms,
                                 s.seq_read_bytes,
                                 s.seq_write_bytes,
                                 s.rand_read_lines_dram,
                                 s.rand_read_lines_cache,
                                 s.rand_write_sectors,
                                 s.atomic_ops,
                                 s.arithmetic_ops,
                                 s.kernel_launches};
          const GoldenRow* want = FindGolden(got);
          if (want == nullptr) {
            ADD_FAILURE() << "no golden row; actual:\n" << FormatRow(got);
          } else if (!Matches(*want, got)) {
            ADD_FAILURE() << "golden mismatch\n  want: " << FormatRow(*want)
                          << "\n  got:  " << FormatRow(got);
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden)) << "table rows without a run";
}

}  // namespace
}  // namespace crystal::ssb
