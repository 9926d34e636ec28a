#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "query/query_spec.h"
#include "ssb/schema.h"
#include "trace.h"
#include "verify.h"

namespace perfbench {

/// Runs `specs` through a server::QueryServer over `db` as seeded open-loop
/// traffic for `seconds`, traced, and reports the server-layer metrics
/// (server.*, and degraded executions into ssb.degraded). Every answer is
/// checked through `verifier` (`vindex` gives each spec's index there).
/// Returns the number of requests sent.
int64_t ServeLayers(const Options& o, const crystal::ssb::Database& db,
                    const std::vector<crystal::query::QuerySpec>& specs,
                    const std::vector<int>& vindex, double seconds,
                    Verifier& verifier, Tracer& tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
