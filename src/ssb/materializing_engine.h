#ifndef CRYSTAL_SSB_MATERIALIZING_ENGINE_H_
#define CRYSTAL_SSB_MATERIALIZING_ENGINE_H_

#include "sim/device.h"
#include "ssb/crystal_engine.h"
#include "ssb/queries.h"

namespace crystal::ssb {

/// Operator-at-a-time engine with full intermediate materialization: every
/// operator reads whole input columns (or materialized intermediates) and
/// writes its result back to memory before the next operator starts. The
/// operator chain is assembled generically from the QuerySpec — select +
/// refine for the fact filters, fetch + probe per dimension join (with
/// payload realignment after each), fetch for the aggregate inputs, one
/// aggregate kernel at the end that runs the shared evaluator
/// (query/agg_program.h) over the fetched columns.
///
/// This is the execution model the paper's two weak baselines share:
///  * run on the Skylake profile it stands in for MonetDB (Section 2.3:
///    "operator-at-a-time ... running each operator to completion before
///    moving on to the next"),
///  * run on the V100 profile it stands in for Omnisci (Section 5.2:
///    "treats each GPU thread as an independent unit ... does not realize
///    benefits of blocked loading"), with the per-operator kernel launches
///    and uncoalesced scattered writes that entails.
/// Results are identical to the reference engine; only the traffic (and
/// hence predicted time) differs from CrystalEngine.
class MaterializingEngine {
 public:
  MaterializingEngine(sim::Device& device, const Database& db);

  /// Runs a spec; an aggregate overflow fails the run with kOutOfRange
  /// (query::kOverflowMsg).
  StatusOr<EngineRun> Run(const query::QuerySpec& spec);
  StatusOr<EngineRun> Run(QueryId id) { return Run(query::SsbSpec(id)); }

 private:
  // Operator-at-a-time primitives. Selection vectors, fetched columns and
  // join results are all materialized in device memory.
  struct Oids {
    sim::DeviceBuffer<int32_t> rows;  // row ids of surviving tuples
    int64_t count = 0;
  };

  /// SELECT: scans `col` fully, writes surviving row ids. Fact columns
  /// arrive as storage::ColumnView so packed inputs are consumed in place:
  /// the CPU scan moves the encoded bytes (ceil(rows*bits/8)) and pays the
  /// per-element unpack arithmetic; the GPU independent-threads model keeps
  /// its per-element sector charge (chunked threads defeat sub-sector
  /// savings, the same reason its plain loads are uncoalesced).
  template <typename Pred>
  Oids ScanSelect(const storage::ColumnView& col, const char* name, Pred pred);
  /// Refine: gathers `col` at oids, writes the surviving oids.
  template <typename Pred>
  Oids Refine(const storage::ColumnView& col, const Oids& in, const char* name,
              Pred pred);
  /// Fetch: gathers `col` at oids into a materialized value column.
  sim::DeviceBuffer<int32_t> Fetch(const storage::ColumnView& col,
                                   const Oids& in, const char* name);
  /// Join: probes `ht` with the materialized keys; outputs surviving oids
  /// and their payloads (both materialized).
  Oids ProbeJoin(const gpu::DeviceHashTable& ht,
                 const sim::DeviceBuffer<int32_t>& keys, const Oids& in,
                 const char* name, sim::DeviceBuffer<int32_t>* payloads);

  sim::Device& device_;
  const Database& db_;
};

}  // namespace crystal::ssb

#endif  // CRYSTAL_SSB_MATERIALIZING_ENGINE_H_
