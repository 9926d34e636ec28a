// The serving phase of gen-packed-solo's traced run: open-loop traffic
// against server::QueryServer, so the server layers (parsing, admission,
// queueing, batch formation, dedup, shared scans) are measured too.
//
// One generator thread (the caller) walks a seeded Poisson schedule: at
// each request's due time it parses the request line and calls
// QueryServer::Submit; the completion callback stamps the finish time.
// Requests are the suite's specs with dashboard-cohort repetition: kCohort
// consecutive arrivals ask for the same panel. The server runs under an
// enforced memory budget, so footprint admission is on every request's
// path.
#include "serve.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "query/footprint.h"
#include "query/parser.h"
#include "query/pipeline.h"
#include "server/query_server.h"

namespace perfbench {

namespace {

namespace query = crystal::query;
namespace server = crystal::server;
namespace ssb = crystal::ssb;

/// About a third of the server's time busy with the generated suite: low
/// enough that queueing does not amplify host noise, high enough that
/// requests meet in batches.
constexpr double kRateQps = 25;
/// Dashboards per cohort: consecutive arrivals that request one panel.
constexpr int kCohort = 4;
/// Accounting budget and queue bound: far above what the phase commits,
/// so nothing is refused, while admission still prices every request.
constexpr int64_t kMemBudgetBytes = int64_t{64} << 30;
constexpr int kMaxQueue = 1 << 16;
/// The phase measured the generator, not the server, when more than
/// kMaxLateShare of its requests were submitted over kLateMs late. Single
/// scheduling hiccups of a few ms (a virtual machine's) stay below it; a
/// generator-bound phase is measured again up to kRetries times.
constexpr double kLateMs = 2;
constexpr double kMaxLateShare = 0.05;
constexpr int kRetries = 2;

struct Record {
  Clock::time_point due;
  Clock::time_point submitted;
  Clock::time_point done;
  std::future<server::QueryOutcome> future;
  int64_t submit_start_ns = 0;
  int64_t root = 0;  // the request's root span id
};

/// What one phase of traffic measured.
struct Phase {
  int64_t requests = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;  // from due time
  std::vector<double> lag_ms;
  std::vector<double> queue_ms, exec_ms, build_ms;
  std::vector<double> parse_us, submit_us;
  int64_t backlog_max = 0;
  int64_t degraded = 0;
  int64_t completed = 0, batches = 0, scans_saved = 0, dedup_hits = 0;
  int64_t rejected = 0, timeouts = 0;

  bool generator_bound() const {
    int64_t late = 0;
    for (double lag : lag_ms) late += lag > kLateMs ? 1 : 0;
    return static_cast<double>(late) >
           kMaxLateShare * static_cast<double>(lag_ms.size());
  }
};

Phase RunPhase(server::QueryServer& qserver, const ssb::Database& db,
               const std::vector<std::string>& lines,
               const std::vector<int>& vindex, double seconds, uint64_t seed,
               Verifier& verifier, Tracer& tracer) {
  // Poisson arrivals; panel j of a seeded rotation serves arrivals
  // [j*kCohort, (j+1)*kCohort).
  SplitMix rng{seed};
  std::vector<int> panels(lines.size());
  for (size_t i = 0; i < panels.size(); ++i) panels[i] = static_cast<int>(i);
  rng.Shuffle(&panels);
  std::vector<double> due_ms;
  std::vector<int> panel_of;
  for (double t = -std::log(rng.Unit()) * 1000.0 / kRateQps;
       t < seconds * 1000.0; t += -std::log(rng.Unit()) * 1000.0 / kRateQps) {
    panel_of.push_back(panels[(due_ms.size() / kCohort) % panels.size()]);
    due_ms.push_back(t);
  }

  Phase phase;
  phase.requests = static_cast<int64_t>(due_ms.size());
  std::vector<Record> records(due_ms.size());
  std::atomic<int64_t> completed{0};
  const server::ServerStats before = qserver.stats();
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < due_ms.size(); ++i) {
    Record& r = records[i];
    r.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(due_ms[i]));
    std::this_thread::sleep_until(r.due);
    r.submitted = Clock::now();
    phase.lag_ms.push_back(MsBetween(r.due, r.submitted));
    phase.backlog_max = std::max(
        phase.backlog_max, static_cast<int64_t>(i) -
                               completed.load(std::memory_order_relaxed));

    const int64_t request = static_cast<int64_t>(i) + 1;
    r.root = tracer.NewId();
    query::QuerySpec spec;
    std::string error;
    const bool parsed =
        query::ParseQuerySpec(lines[static_cast<size_t>(panel_of[i])], &spec,
                              &error);
    const Clock::time_point parsed_at = Clock::now();
    phase.parse_us.push_back(1000.0 * MsBetween(r.submitted, parsed_at));
    tracer.Add("query.ParseQuerySpec", request, r.root,
               tracer.ToNs(r.submitted), tracer.ToNs(parsed_at));
    if (parsed) {
      const int64_t t0 = tracer.Now();
      const query::QueryPipeline pipe = query::LowerToPipeline(spec, db);
      const int64_t t1 = tracer.Now();
      tracer.Add("query.LowerToPipeline", request, r.root, t0, t1);
      query::EstimateFootprint(pipe, qserver.threads());
      tracer.Add("query.EstimateFootprint", request, r.root, t1,
                 tracer.Now());
    }
    const Clock::time_point t0 = Clock::now();
    r.submit_start_ns = tracer.ToNs(t0);
    // An unparsable line is submitted as an empty spec, which the server
    // refuses like any invalid request.
    r.future = qserver.Submit(
        std::move(spec), server::QueryServer::SubmitOptions(),
        [&records, &completed, i](const server::QueryOutcome&) {
          records[i].done = Clock::now();
          completed.fetch_add(1, std::memory_order_release);
        });
    phase.submit_us.push_back(1000.0 * MsBetween(t0, Clock::now()));
  }
  while (completed.load(std::memory_order_acquire) < phase.requests) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  qserver.Drain();  // outcomes are delivered before their batch's counters
  const server::ServerStats after = qserver.stats();
  phase.completed = after.completed - before.completed;
  phase.batches = after.batches - before.batches;
  phase.scans_saved = after.scans_saved - before.scans_saved;
  phase.dedup_hits = after.dedup_hits - before.dedup_hits;
  phase.rejected = after.rejected - before.rejected;
  phase.timeouts = after.timeouts - before.timeouts;

  for (size_t i = 0; i < records.size(); ++i) {
    Record& r = records[i];
    const int vi = vindex[static_cast<size_t>(panel_of[i])];
    const server::QueryOutcome outcome = r.future.get();
    if (outcome.status != server::QueryOutcome::Status::kOk) {
      ++phase.failed;
      verifier.ObserveFailure(vi);
      continue;
    }
    verifier.Observe(vi, Digest(outcome.result));
    phase.latency_ms.push_back(MsBetween(r.due, r.done));
    phase.queue_ms.push_back(outcome.queue_ms);
    phase.exec_ms.push_back(outcome.exec_ms);
    phase.build_ms.push_back(outcome.build_ms);
    phase.degraded += outcome.degraded ? 1 : 0;
    // Server-side phases, placed from the outcome's own timings.
    const int64_t request = static_cast<int64_t>(i) + 1;
    const int64_t queued_end =
        r.submit_start_ns + static_cast<int64_t>(outcome.queue_ms * 1e6);
    const int64_t exec = tracer.Add(
        "server.exec", request, r.root, queued_end,
        queued_end + static_cast<int64_t>(outcome.exec_ms * 1e6));
    tracer.Add("server.build", request, exec, queued_end,
               queued_end + static_cast<int64_t>(outcome.build_ms * 1e6));
    tracer.Add("server.queue", request, r.root, r.submit_start_ns,
               queued_end);
    tracer.Add("server.QueryServer.Submit", request, r.root,
               r.submit_start_ns,
               r.submit_start_ns +
                   static_cast<int64_t>(phase.submit_us[i] * 1e3));
    tracer.Add("bench.gen_lag", request, r.root, tracer.ToNs(r.due),
               tracer.ToNs(r.submitted));
    tracer.Add("bench.request", request, 0, tracer.ToNs(r.due),
               tracer.ToNs(r.done), r.root);
  }
  return phase;
}

}  // namespace

int64_t ServeLayers(const Options& o, const ssb::Database& db,
                    const std::vector<query::QuerySpec>& specs,
                    const std::vector<int>& vindex, double seconds,
                    Verifier& verifier, Tracer& tracer, Report* report) {
  server::ServerOptions options;
  // Leave one processor to the generator; the scan pool's calling thread
  // (the scheduler) is one of its workers.
  options.threads = std::max(1, Nproc() - 1);
  options.memory_budget_bytes = kMemBudgetBytes;
  options.max_queue = kMaxQueue;
  server::QueryServer qserver(options);
  qserver.AddDatabase("db", &db);
  std::vector<std::string> lines;
  for (const query::QuerySpec& spec : specs) {
    lines.push_back(query::FormatQuerySpec(spec));
  }

  SplitMix rng{o.workload_seed};
  int64_t attempted = 0;
  Phase phase;
  for (int attempt = 0; attempt <= kRetries; ++attempt) {
    phase = RunPhase(qserver, db, lines, vindex, seconds, rng.Next(),
                     verifier, tracer);
    attempted += phase.requests;
    if (!phase.generator_bound()) break;
    report->notes.push_back(
        "serving phase generator-bound: over 5% of requests were submitted "
        "more than 2 ms late; it measured the generator, not the server");
  }
  if (phase.generator_bound()) report->valid = false;

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "serving phase %.0f qps, %d threads: %lld requests, p50 "
                "%.2f ms, p99 %.2f ms from due time, failed %lld",
                kRateQps, qserver.threads(),
                static_cast<long long>(phase.requests),
                Percentile(phase.latency_ms, 0.50),
                Percentile(phase.latency_ms, 0.99),
                static_cast<long long>(phase.failed));
  report->notes.push_back(buf);
  report->settings["serve_qps"] = std::to_string(kRateQps);
  report->settings["serve_threads"] = std::to_string(qserver.threads());
  report->settings["serve_cohort"] = std::to_string(kCohort);

  const int64_t n = phase.requests;
  const double completed = static_cast<double>(phase.completed);
  report->Set("server.submit_us", Median(phase.submit_us), "us", n);
  report->Set("server.queue_ms.p50", Percentile(phase.queue_ms, 0.50), "ms",
              phase.queue_ms.size());
  report->Set("server.queue_ms.p99", Percentile(phase.queue_ms, 0.99), "ms",
              phase.queue_ms.size());
  report->Set("server.exec_ms.p50", Percentile(phase.exec_ms, 0.50), "ms",
              phase.exec_ms.size());
  report->Set("server.build_ms.p50", Percentile(phase.build_ms, 0.50), "ms",
              phase.build_ms.size());
  report->Set("server.avg_batch",
              phase.batches > 0
                  ? completed / static_cast<double>(phase.batches)
                  : 0,
              "count", phase.batches);
  report->Set("server.scan_share",
              completed > 0 ? phase.scans_saved / completed : 0, "frac",
              phase.completed);
  report->Set("server.dedup_share",
              completed > 0 ? phase.dedup_hits / completed : 0, "frac",
              phase.completed);
  report->Set("server.rejected", static_cast<double>(phase.rejected),
              "count", n);
  report->Set("server.timeouts", static_cast<double>(phase.timeouts),
              "count", n);
  report->Set("server.gen_lag_ms.p99", Percentile(phase.lag_ms, 0.99), "ms",
              n);
  report->Set("server.backlog_max", static_cast<double>(phase.backlog_max),
              "count", n);
  report->metrics["ssb.degraded"].value += static_cast<double>(phase.degraded);
  return attempted;
}

}  // namespace perfbench
