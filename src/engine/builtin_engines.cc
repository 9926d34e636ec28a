// Registry adapters for the four pre-existing execution models. Each class
// binds one engine implementation (src/ssb/) to the uniform QueryEngine
// contract: construct from an EngineContext, return per-query RunStats with
// full-scale predicted times. Descriptions and capability flags live in one
// shared constant per engine, used by both the class and its registration.
#include <memory>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "engine/builtin_engines.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "ssb/crystal_engine.h"
#include "ssb/materializing_engine.h"
#include "ssb/vectorized_cpu_engine.h"

namespace crystal::engine {

namespace {

constexpr std::string_view kReferenceDescription =
    "tuple-at-a-time reference evaluation on one host thread "
    "(ground truth; the Hyper-like compiled-pipeline model)";
constexpr EngineCapabilities kReferenceCaps = {/*simulated=*/false,
                                               /*uses_host_threads=*/true,
                                               /*models_transfer=*/false};

constexpr std::string_view kMaterializingDescription =
    "operator-at-a-time with full materialization on the simulated "
    "device (Omnisci-like on V100, MonetDB-like on Skylake)";
constexpr std::string_view kCrystalDescription =
    "fused Crystal tile kernels on the simulated V100 (the paper's "
    "Standalone GPU; profile-agnostic for CPU modeling)";
constexpr EngineCapabilities kSimulatedCaps = {/*simulated=*/true,
                                               /*uses_host_threads=*/false,
                                               /*models_transfer=*/false};

constexpr std::string_view kVectorizedCpuDescription =
    "real multi-threaded vectorized host execution (the paper's "
    "Standalone CPU; honest wall-clock, no model)";
constexpr EngineCapabilities kVectorizedCpuCaps = {
    /*simulated=*/false, /*uses_host_threads=*/true,
    /*models_transfer=*/false};

/// Tuple-at-a-time reference evaluation (the Hyper-like compiled-pipeline
/// baseline). Ground truth for the conformance suite.
class ReferenceEngine final : public QueryEngine {
 public:
  explicit ReferenceEngine(const EngineContext& context)
      : db_(*context.db) {}

  std::string_view name() const override { return "reference"; }
  std::string_view description() const override {
    return kReferenceDescription;
  }
  EngineCapabilities capabilities() const override { return kReferenceCaps; }

 protected:
  RunStats ExecuteImpl(const query::QuerySpec& spec) override {
    RunStats stats;
    stats.result = ssb::RunReference(db_, spec);
    return stats;
  }

 private:
  const ssb::Database& db_;
};

/// Shared shape of the two simulated-device engines: owns the device built
/// from the context profile and converts EngineRun into full-scale
/// RunStats.
class SimulatedEngineBase : public QueryEngine {
 public:
  EngineCapabilities capabilities() const override { return kSimulatedCaps; }

 protected:
  explicit SimulatedEngineBase(const EngineContext& context)
      : device_(context.profile), fact_divisor_(context.db->fact_divisor) {}

  /// A failed run stops here: QueryEngine has no error path yet.
  RunStats ToStats(StatusOr<ssb::EngineRun> result) const {
    CRYSTAL_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    ssb::EngineRun run = std::move(result).value();
    RunStats stats;
    stats.predicted_build_ms = run.build_ms;
    stats.predicted_probe_ms = run.probe_ms * fact_divisor_;
    stats.predicted_total_ms = run.ScaledTotalMs(fact_divisor_);
    stats.result = std::move(run.result);
    return stats;
  }

  sim::Device device_;
  const int fact_divisor_;
};

/// Operator-at-a-time with full materialization (Omnisci-like on the V100
/// profile, MonetDB-like on the Skylake profile).
class MaterializingQueryEngine final : public SimulatedEngineBase {
 public:
  explicit MaterializingQueryEngine(const EngineContext& context)
      : SimulatedEngineBase(context), engine_(device_, *context.db) {}

  std::string_view name() const override { return "materializing"; }
  std::string_view description() const override {
    return kMaterializingDescription;
  }

 protected:
  RunStats ExecuteImpl(const query::QuerySpec& spec) override {
    return ToStats(engine_.Run(spec));
  }

 private:
  ssb::MaterializingEngine engine_;
};

/// Fused Crystal tile kernels on the simulated device (the paper's
/// Standalone GPU on V100; Standalone-CPU model on the Skylake profile).
class CrystalQueryEngine final : public SimulatedEngineBase {
 public:
  explicit CrystalQueryEngine(const EngineContext& context)
      : SimulatedEngineBase(context),
        launch_(context.launch),
        engine_(device_, *context.db) {}

  std::string_view name() const override { return "crystal-gpu-sim"; }
  std::string_view description() const override { return kCrystalDescription; }

 protected:
  RunStats ExecuteImpl(const query::QuerySpec& spec) override {
    return ToStats(engine_.Run(spec, launch_));
  }

 private:
  const sim::LaunchConfig launch_;
  ssb::CrystalEngine engine_;
};

/// Real multi-threaded vectorized host execution (the paper's Standalone
/// CPU implementation; honest wall-clock, no timing model).
class VectorizedCpuQueryEngine final : public QueryEngine {
 public:
  explicit VectorizedCpuQueryEngine(const EngineContext& context) {
    ThreadPool* pool = context.pool;
    if (pool == nullptr) {
      owned_pool_.emplace(context.threads);
      pool = &*owned_pool_;
    }
    engine_.emplace(*context.db, *pool);
  }

  std::string_view name() const override { return "vectorized-cpu"; }
  std::string_view description() const override {
    return kVectorizedCpuDescription;
  }
  EngineCapabilities capabilities() const override {
    return kVectorizedCpuCaps;
  }

 protected:
  RunStats ExecuteImpl(const query::QuerySpec& spec) override {
    RunStats stats;
    ssb::VectorizedCpuEngine::RunInfo info;
    stats.result = engine_->Run(spec, &info);
    stats.host_build_ms = info.build_ms;
    stats.host_probe_ms = info.probe_ms;
    stats.build_cache_hits = info.cache_hits;
    stats.build_cache_builds = info.cache_builds;
    return stats;
  }

 private:
  std::optional<ThreadPool> owned_pool_;
  std::optional<ssb::VectorizedCpuEngine> engine_;
};

}  // namespace

void RegisterReferenceEngine(EngineRegistry& registry) {
  EngineRegistration reg;
  reg.name = "reference";
  reg.description = std::string(kReferenceDescription);
  reg.aliases = {"ref", "hyper", "tuple-at-a-time"};
  reg.capabilities = kReferenceCaps;
  reg.factory = [](const EngineContext& context) {
    return std::make_unique<ReferenceEngine>(context);
  };
  registry.Register(std::move(reg));
}

void RegisterMaterializingEngine(EngineRegistry& registry) {
  EngineRegistration reg;
  reg.name = "materializing";
  reg.description = std::string(kMaterializingDescription);
  reg.aliases = {"mat", "omnisci", "monetdb"};
  reg.capabilities = kSimulatedCaps;
  reg.factory = [](const EngineContext& context) {
    return std::make_unique<MaterializingQueryEngine>(context);
  };
  registry.Register(std::move(reg));
}

void RegisterVectorizedCpuEngine(EngineRegistry& registry) {
  EngineRegistration reg;
  reg.name = "vectorized-cpu";
  reg.description = std::string(kVectorizedCpuDescription);
  reg.aliases = {"vectorized", "vec", "cpu"};
  reg.capabilities = kVectorizedCpuCaps;
  reg.factory = [](const EngineContext& context) {
    return std::make_unique<VectorizedCpuQueryEngine>(context);
  };
  registry.Register(std::move(reg));
}

void RegisterCrystalEngine(EngineRegistry& registry) {
  EngineRegistration reg;
  reg.name = "crystal-gpu-sim";
  reg.description = std::string(kCrystalDescription);
  reg.aliases = {"crystal", "gpu"};
  reg.capabilities = kSimulatedCaps;
  reg.factory = [](const EngineContext& context) {
    return std::make_unique<CrystalQueryEngine>(context);
  };
  registry.Register(std::move(reg));
}

void RegisterBuiltinEngines(EngineRegistry& registry) {
  RegisterMaterializingEngine(registry);
  RegisterVectorizedCpuEngine(registry);
  RegisterCrystalEngine(registry);
  RegisterReferenceEngine(registry);
  RegisterCoprocessorEngine(registry);
}

}  // namespace crystal::engine
