// QueryServer + serve-protocol suite. The load-bearing property is result
// parity: a batch of N concurrent queries fused into ONE shared morsel
// pass must be bit-identical to N sequential runs (the reference
// interpreter), across storage encodings and SIMD dispatch paths. Around
// that: in-batch dedup, admission control, deadline handling (queued and
// mid-scan), multi-database routing, and the line protocol behind
// `crystaldb --serve`.
#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/memory.h"
#include "cpu/build_cache.h"
#include "cpu/vector_ops.h"
#include "query/parser.h"
#include "query/ssb_specs.h"
#include "server/query_server.h"
#include "server/serve.h"
#include "ssb/datagen.h"
#include "ssb/queries.h"

namespace crystal::server {
namespace {

const ssb::Database& TestDb() {
  static const ssb::Database* db = new ssb::Database(ssb::Generate(1, 200));
  return *db;
}

const ssb::Database& PackedDb() {
  static const ssb::Database* db = [] {
    ssb::DatagenOptions options;
    options.scale_factor = 1;
    options.fact_divisor = 200;
    options.storage.encoding = storage::Encoding::kPacked;
    return new ssb::Database(ssb::Generate(options));
  }();
  return *db;
}

query::QuerySpec Adhoc(const std::string& text) {
  query::QuerySpec spec;
  std::string error;
  EXPECT_TRUE(query::ParseQuerySpec(text, &spec, &error)) << error;
  return spec;
}

/// Restores SIMD dispatch, uninstalls any fault rules, and clears the
/// process build cache between sections (cached sides built under a
/// scoped dispatch state must not leak into the next test).
class DispatchGuard {
 public:
  DispatchGuard() : simd_(cpu::SimdEnabled()) {}
  ~DispatchGuard() {
    cpu::SetSimdEnabled(simd_);
    fault::Clear();
    cpu::BuildCache::Process().Clear();
  }

 private:
  bool simd_;
};

/// A mixed six-query batch: one per structural shape (scalar aggregate,
/// grouped cascades, sparse grid) plus an ad-hoc spec, with q2.1 twice to
/// exercise dedup inside the parity batch.
std::vector<query::QuerySpec> BatchSpecs() {
  return {
      query::SsbSpec(ssb::QueryId::kQ11),
      query::SsbSpec(ssb::QueryId::kQ21),
      query::SsbSpec(ssb::QueryId::kQ33),
      query::SsbSpec(ssb::QueryId::kQ43),
      Adhoc("sum revenue join supplier on suppkey filter s_region = 2 "
            "join date on orderdate group by s_nation, d_year"),
      query::SsbSpec(ssb::QueryId::kQ21),
  };
}

struct BatchParityParam {
  bool packed;
  bool simd;
};

class BatchParityTest : public ::testing::TestWithParam<BatchParityParam> {};

TEST_P(BatchParityTest, SharedScanMatchesSequentialReference) {
  const BatchParityParam p = GetParam();
  if (p.simd && !cpu::SimdAvailable()) GTEST_SKIP() << "no AVX2 host";
  DispatchGuard guard;
  cpu::BuildCache::Process().Clear();
  cpu::SetSimdEnabled(p.simd);
  const ssb::Database& db = p.packed ? PackedDb() : TestDb();

  ServerOptions options;
  options.start_paused = true;  // all six land in one deterministic batch
  options.threads = 2;
  QueryServer server(options);
  server.AddDatabase("db", &db);

  const std::vector<query::QuerySpec> specs = BatchSpecs();
  std::vector<std::future<QueryOutcome>> futures;
  for (const query::QuerySpec& spec : specs) {
    futures.push_back(server.Submit(spec));
  }
  server.Resume();

  for (size_t i = 0; i < specs.size(); ++i) {
    const QueryOutcome outcome = futures[i].get();
    ASSERT_EQ(outcome.status, QueryOutcome::Status::kOk) << outcome.error;
    EXPECT_EQ(outcome.batch_size, 6);
    EXPECT_TRUE(outcome.shared_scan);
    EXPECT_TRUE(outcome.result == ssb::RunReference(db, specs[i]))
        << "batch member " << i << " diverged from its sequential run";
  }
  server.Drain();  // outcomes land before batch counters; settle first
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.scans_saved, 5);   // six members, one scan
  EXPECT_EQ(stats.dedup_hits, 1);    // the repeated q2.1
  EXPECT_EQ(stats.max_batch_seen, 6);
}

INSTANTIATE_TEST_SUITE_P(
    StorageAndSimd, BatchParityTest,
    ::testing::Values(BatchParityParam{false, true},
                      BatchParityParam{false, false},
                      BatchParityParam{true, true},
                      BatchParityParam{true, false}),
    [](const ::testing::TestParamInfo<BatchParityParam>& info) {
      return std::string(info.param.packed ? "packed" : "plain") +
             (info.param.simd ? "Simd" : "Scalar");
    });

TEST(QueryServerTest, DedupCollapsesIdenticalSpecsOntoOneExecution) {
  DispatchGuard guard;
  ServerOptions options;
  options.start_paused = true;
  options.threads = 2;
  QueryServer server(options);
  server.AddDatabase("db", &TestDb());

  const query::QuerySpec spec = query::SsbSpec(ssb::QueryId::kQ22);
  const ssb::QueryResult want = ssb::RunReference(TestDb(), spec);
  std::vector<std::future<QueryOutcome>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.Submit(spec));
  server.Resume();

  int dedup = 0;
  for (auto& f : futures) {
    const QueryOutcome outcome = f.get();
    ASSERT_EQ(outcome.status, QueryOutcome::Status::kOk) << outcome.error;
    EXPECT_TRUE(outcome.result == want);
    dedup += outcome.dedup ? 1 : 0;
  }
  EXPECT_EQ(dedup, 3);  // one primary execution, three twins
  server.Drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.dedup_hits, 3);
}

TEST(QueryServerTest, AdmissionQueueBoundRejects) {
  DispatchGuard guard;
  ServerOptions options;
  options.start_paused = true;  // nothing drains, so the bound is exact
  options.max_queue = 2;
  options.threads = 2;
  QueryServer server(options);
  server.AddDatabase("db", &TestDb());

  auto f1 = server.Submit(query::SsbSpec(ssb::QueryId::kQ11));
  auto f2 = server.Submit(query::SsbSpec(ssb::QueryId::kQ12));
  auto f3 = server.Submit(query::SsbSpec(ssb::QueryId::kQ13));
  const QueryOutcome rejected = f3.get();  // immediate, pre-queue
  EXPECT_EQ(rejected.status, QueryOutcome::Status::kRejected);
  EXPECT_FALSE(rejected.error.empty());

  server.Resume();
  EXPECT_EQ(f1.get().status, QueryOutcome::Status::kOk);
  EXPECT_EQ(f2.get().status, QueryOutcome::Status::kOk);
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST(QueryServerTest, QueuedDeadlineExpiresWithoutExecuting) {
  DispatchGuard guard;
  ServerOptions options;
  options.start_paused = true;
  options.threads = 2;
  QueryServer server(options);
  server.AddDatabase("db", &TestDb());

  QueryServer::SubmitOptions submit;
  submit.timeout_ms = 1;
  auto doomed = server.Submit(query::SsbSpec(ssb::QueryId::kQ11), submit);
  auto fine = server.Submit(query::SsbSpec(ssb::QueryId::kQ12));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Resume();

  const QueryOutcome timed_out = doomed.get();
  EXPECT_EQ(timed_out.status, QueryOutcome::Status::kTimeout);
  EXPECT_NE(timed_out.error.find("queued"), std::string::npos)
      << timed_out.error;
  // The batch still executes its surviving member correctly.
  EXPECT_EQ(fine.get().status, QueryOutcome::Status::kOk);
  EXPECT_EQ(server.stats().timeouts, 1);
}

TEST(QueryServerTest, InvalidSpecAndUnknownDatabaseFailFast) {
  DispatchGuard guard;
  QueryServer server;  // default options: running, but nothing enqueues
  server.AddDatabase("db", &TestDb());

  // Group key without its join: fails Validate before ever queueing.
  query::QuerySpec invalid = query::SsbSpec(ssb::QueryId::kQ11);
  invalid.group_by.push_back(query::DimCol::kDYear);
  const QueryOutcome bad_spec = server.ExecuteSync(invalid);
  EXPECT_EQ(bad_spec.status, QueryOutcome::Status::kError);
  EXPECT_FALSE(bad_spec.error.empty());

  QueryServer::SubmitOptions submit;
  submit.database = "nope";
  const QueryOutcome bad_db =
      server.ExecuteSync(query::SsbSpec(ssb::QueryId::kQ11), submit);
  EXPECT_EQ(bad_db.status, QueryOutcome::Status::kError);
  EXPECT_NE(bad_db.error.find("nope"), std::string::npos) << bad_db.error;
  EXPECT_EQ(server.stats().errors, 2);
  EXPECT_EQ(server.stats().batches, 0);
}

TEST(QueryServerTest, RoutesToResidentDatabases) {
  DispatchGuard guard;
  const ssb::Database small = ssb::Generate(1, 1000, /*seed=*/777);
  ServerOptions options;
  options.threads = 2;
  QueryServer server(options);
  server.AddDatabase("big", &TestDb());
  server.AddDatabase("small", &small);
  EXPECT_EQ(server.database_names(),
            (std::vector<std::string>{"big", "small"}));

  const query::QuerySpec spec = query::SsbSpec(ssb::QueryId::kQ31);
  QueryServer::SubmitOptions to_small;
  to_small.database = "small";
  const QueryOutcome a = server.ExecuteSync(spec);  // default = first
  const QueryOutcome b = server.ExecuteSync(spec, to_small);
  ASSERT_EQ(a.status, QueryOutcome::Status::kOk) << a.error;
  ASSERT_EQ(b.status, QueryOutcome::Status::kOk) << b.error;
  EXPECT_EQ(a.database, "big");
  EXPECT_EQ(b.database, "small");
  EXPECT_TRUE(a.result == ssb::RunReference(TestDb(), spec));
  EXPECT_TRUE(b.result == ssb::RunReference(small, spec));
  EXPECT_FALSE(a.result == b.result);  // really two different databases
}

// ----------------------------------------------------------- robustness

TEST(QueryServerTest, BuildFailureIsIsolatedToItsBatchMember) {
  DispatchGuard guard;
  ServerOptions options;
  options.start_paused = true;  // both members land in one batch
  options.threads = 2;
  QueryServer server(options);
  server.AddDatabase("db", &TestDb());

  // The first distinct spec's build fails (injected); its batch-mate
  // shares the scan and must still produce a bit-identical result.
  ASSERT_TRUE(fault::Install("fused.build=fail@1").ok());
  const query::QuerySpec doomed_spec = query::SsbSpec(ssb::QueryId::kQ21);
  const query::QuerySpec fine_spec = query::SsbSpec(ssb::QueryId::kQ34);
  auto doomed = server.Submit(doomed_spec);
  auto doomed_twin = server.Submit(doomed_spec);  // dedups onto the same
  auto fine = server.Submit(fine_spec);           // execution as `doomed`
  server.Resume();

  const QueryOutcome failed = doomed.get();
  EXPECT_EQ(failed.status, QueryOutcome::Status::kError);
  EXPECT_NE(failed.error.find("fused.build"), std::string::npos)
      << failed.error;
  EXPECT_TRUE(failed.retryable);  // kFaultInjected is transient
  EXPECT_EQ(doomed_twin.get().status, QueryOutcome::Status::kError);

  const QueryOutcome ok = fine.get();
  ASSERT_EQ(ok.status, QueryOutcome::Status::kOk) << ok.error;
  EXPECT_EQ(ok.batch_size, 3);
  EXPECT_TRUE(ok.result == ssb::RunReference(TestDb(), fine_spec));

  server.Drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.errors, 2);
  // The failed build was not cached: re-running the doomed spec with the
  // fault exhausted (it fired on hit 1 only) must now succeed.
  const QueryOutcome retry = server.ExecuteSync(doomed_spec);
  ASSERT_EQ(retry.status, QueryOutcome::Status::kOk) << retry.error;
  EXPECT_TRUE(retry.result == ssb::RunReference(TestDb(), doomed_spec));
}

TEST(QueryServerTest, MorselFaultFailsOnlyThatExecution) {
  DispatchGuard guard;
  ServerOptions options;
  options.start_paused = true;
  options.threads = 2;
  options.morsel_rows = 1024;  // many morsels, so the fault lands mid-scan
  QueryServer server(options);
  server.AddDatabase("db", &TestDb());

  // Executions run in submission order within each morsel, so hit 1 of
  // fused.morsel belongs to the first submitted spec.
  ASSERT_TRUE(fault::Install("fused.morsel=fail@1").ok());
  const query::QuerySpec fine_spec = query::SsbSpec(ssb::QueryId::kQ13);
  auto doomed = server.Submit(query::SsbSpec(ssb::QueryId::kQ12));
  auto fine = server.Submit(fine_spec);
  server.Resume();

  const QueryOutcome failed = doomed.get();
  EXPECT_EQ(failed.status, QueryOutcome::Status::kError);
  EXPECT_NE(failed.error.find("fused.morsel"), std::string::npos)
      << failed.error;
  const QueryOutcome ok = fine.get();
  ASSERT_EQ(ok.status, QueryOutcome::Status::kOk) << ok.error;
  EXPECT_TRUE(ok.result == ssb::RunReference(TestDb(), fine_spec));
}

TEST(QueryServerTest, OverflowFailsOnlyThatBatchMember) {
  // An overflowing aggregate shares one scan with q1.1: the overflowing
  // member completes as a non-retryable error (its input will overflow
  // again), and q1.1's answer is bit-identical to its solo run.
  DispatchGuard guard;
  ServerOptions options;
  options.start_paused = true;
  options.threads = 2;
  QueryServer server(options);
  server.AddDatabase("db", &TestDb());

  const query::QuerySpec overflow_spec = Adhoc(
      "sum extendedprice*extendedprice*extendedprice*extendedprice");
  const query::QuerySpec fine_spec = query::SsbSpec(ssb::QueryId::kQ11);
  auto doomed = server.Submit(overflow_spec);
  auto fine = server.Submit(fine_spec);
  server.Resume();

  const QueryOutcome failed = doomed.get();
  EXPECT_EQ(failed.status, QueryOutcome::Status::kError);
  EXPECT_NE(failed.error.find("kOutOfRange"), std::string::npos)
      << failed.error;
  EXPECT_FALSE(failed.retryable);
  const QueryOutcome ok = fine.get();
  ASSERT_EQ(ok.status, QueryOutcome::Status::kOk) << ok.error;
  EXPECT_EQ(ok.batch_size, 2);
  EXPECT_TRUE(ok.shared_scan);

  const QueryOutcome solo = server.ExecuteSync(fine_spec);
  ASSERT_EQ(solo.status, QueryOutcome::Status::kOk) << solo.error;
  EXPECT_EQ(solo.batch_size, 1);
  EXPECT_TRUE(ok.result == solo.result);
  EXPECT_TRUE(ok.result == ssb::RunReference(TestDb(), fine_spec));
}

TEST(QueryServerTest, RejectionsCarryTheRetryContract) {
  DispatchGuard guard;
  ServerOptions options;
  options.start_paused = true;
  options.max_queue = 1;
  options.threads = 2;
  QueryServer server(options);
  server.AddDatabase("db", &TestDb());

  auto queued = server.Submit(query::SsbSpec(ssb::QueryId::kQ11));
  const QueryOutcome overflow =
      server.Submit(query::SsbSpec(ssb::QueryId::kQ12)).get();
  EXPECT_EQ(overflow.status, QueryOutcome::Status::kRejected);
  EXPECT_TRUE(overflow.retryable);  // queue-full is transient by definition

  query::QuerySpec invalid = query::SsbSpec(ssb::QueryId::kQ11);
  invalid.group_by.push_back(query::DimCol::kDYear);
  const QueryOutcome bad = server.ExecuteSync(invalid);
  EXPECT_EQ(bad.status, QueryOutcome::Status::kError);
  EXPECT_FALSE(bad.retryable);  // invalid input never succeeds on retry

  server.Resume();
  EXPECT_EQ(queued.get().status, QueryOutcome::Status::kOk);
}

TEST(QueryServerTest, MemoryAdmissionRejectsOversizedAndRunsScalar) {
  DispatchGuard guard;
  ServerOptions options;
  options.threads = 2;
  // ~1/4 of the workload's unbudgeted peak: far too small for any join
  // query's build sides, plenty for a scalar aggregate's state.
  options.memory_budget_bytes = 128 << 10;
  {
    QueryServer server(options);
    server.AddDatabase("db", &TestDb());

    // Scalar shape: no build sides, tiny footprint — always admitted.
    const QueryOutcome scalar =
        server.ExecuteSync(query::SsbSpec(ssb::QueryId::kQ11));
    EXPECT_EQ(scalar.status, QueryOutcome::Status::kOk);
    EXPECT_TRUE(scalar.result ==
                ssb::RunReference(TestDb(), query::SsbSpec(ssb::QueryId::kQ11)));

    // Join shape: the date build side alone (~244 KiB direct) exceeds the
    // whole budget, so the predicted minimum can never fit — a retryable
    // kResourceExhausted with a backoff hint, decided at admission
    // (batch_size 0: it never reached the scheduler).
    const QueryOutcome rejected =
        server.ExecuteSync(query::SsbSpec(ssb::QueryId::kQ21));
    EXPECT_EQ(rejected.status, QueryOutcome::Status::kRejected);
    EXPECT_TRUE(rejected.retryable);
    EXPECT_GT(rejected.retry_after_ms, 0);
    EXPECT_NE(rejected.error.find("kResourceExhausted"), std::string::npos)
        << rejected.error;
    EXPECT_EQ(rejected.batch_size, 0);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.mem_rejected, 1);
    EXPECT_EQ(stats.completed, 2);
  }
  MemoryBudget::Process().set_limit(0);
  cpu::BuildCache::Process().Clear();
  EXPECT_EQ(MemoryBudget::Process().used(), 0);  // drained ledger
}

TEST(QueryServerTest, DestructionWhileLoadedFulfillsEveryPromise) {
  DispatchGuard guard;
  // Paused server with queued work: destruction must resolve every
  // outstanding future (kRejected), never leave a waiter hung.
  std::vector<std::future<QueryOutcome>> futures;
  {
    ServerOptions options;
    options.start_paused = true;
    options.threads = 2;
    QueryServer server(options);
    server.AddDatabase("db", &TestDb());
    for (int i = 0; i < 8; ++i) {
      futures.push_back(server.Submit(query::SsbSpec(ssb::QueryId::kQ21)));
    }
  }
  for (auto& future : futures) {
    const QueryOutcome outcome = future.get();  // must not block forever
    EXPECT_EQ(outcome.status, QueryOutcome::Status::kRejected);
    EXPECT_NE(outcome.error.find("shutting down"), std::string::npos);
  }

  // Running server destructed right after submission: whatever the
  // scheduler already started completes normally; the rest is rejected.
  futures.clear();
  {
    ServerOptions options;
    options.threads = 2;
    QueryServer server(options);
    server.AddDatabase("db", &TestDb());
    for (int i = 0; i < 8; ++i) {
      futures.push_back(server.Submit(query::SsbSpec(ssb::QueryId::kQ11)));
    }
  }
  for (auto& future : futures) {
    const QueryOutcome outcome = future.get();
    EXPECT_TRUE(outcome.status == QueryOutcome::Status::kOk ||
                outcome.status == QueryOutcome::Status::kRejected)
        << StatusName(outcome.status) << ": " << outcome.error;
  }
}

TEST(QueryServerTest, WatchdogFlagsAStalledHeartbeat) {
  DispatchGuard guard;
  ServerOptions options;
  options.threads = 2;
  options.morsel_rows = 1024;
  options.watchdog_ms = 40;  // fast watchdog against a 250 ms morsel stall
  QueryServer server(options);
  server.AddDatabase("db", &TestDb());

  ASSERT_TRUE(fault::Install("fused.morsel=delay:250ms@1").ok());
  const QueryOutcome outcome =
      server.ExecuteSync(query::SsbSpec(ssb::QueryId::kQ11));
  ASSERT_EQ(outcome.status, QueryOutcome::Status::kOk) << outcome.error;
  server.Drain();
  EXPECT_GE(server.stats().watchdog_stalls, 1);
}

// ------------------------------------------------------------- protocol

/// Runs the serve loop over a script and returns (exit code, output).
std::pair<int, std::string> RunServe(const std::string& script,
                                     ServeConfig config = ServeConfig()) {
  std::istringstream in(script);
  std::ostringstream out;
  std::vector<std::pair<std::string, const ssb::Database*>> dbs;
  dbs.emplace_back("sf1", &TestDb());
  const int exit_code = Serve(in, out, dbs, config);
  return {exit_code, out.str()};
}

TEST(ServeProtocolTest, AnswersCanonicalAdhocAndErrorLines) {
  DispatchGuard guard;
  ServeConfig config;
  config.server.threads = 2;
  config.check = true;  // every result re-validated against the reference
  const auto [exit_code, out] = RunServe(
      "# comment, then a blank line, are ignored\n"
      "\n"
      "q2.1\n"
      "sum revenue join date on orderdate group by d_year\n"
      "this is not a query\n"
      "@sf1 timeout=60000 q1.1\n",
      config);
  EXPECT_EQ(exit_code, 0) << out;
  EXPECT_NE(out.find("\"query\": \"q2.1\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"query\": \"adhoc2\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"query\": \"q1.1\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"status\": \"error\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"input\": \"this is not a query\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"match\": true"), std::string::npos) << out;
  EXPECT_EQ(out.find("\"match\": false"), std::string::npos) << out;
  EXPECT_NE(out.find("\"event\": \"server_stats\""), std::string::npos)
      << out;
  // Three answered queries + one parse error; the error line never
  // reaches the server.
  EXPECT_NE(out.find("\"submitted\": 3"), std::string::npos) << out;
}

TEST(ServeProtocolTest, UnknownDatabaseDirectiveIsAnError) {
  DispatchGuard guard;
  ServeConfig config;
  config.server.threads = 2;
  const auto [exit_code, out] = RunServe("@sf9 q1.1\n", config);
  EXPECT_EQ(exit_code, 0) << out;
  EXPECT_NE(out.find("\"status\": \"error\""), std::string::npos) << out;
  EXPECT_NE(out.find("sf9"), std::string::npos) << out;
}

TEST(ServeProtocolTest, GroupRowsAreEmittedAndTruncatable) {
  DispatchGuard guard;
  ServeConfig config;
  config.server.threads = 2;
  const auto [exit_code, out] = RunServe("q2.1\n", config);
  EXPECT_EQ(exit_code, 0) << out;
  EXPECT_NE(out.find("\"rows\": ["), std::string::npos) << out;

  ServeConfig tiny = config;
  tiny.max_result_rows = 1;  // q2.1 groups by (d_year, p_brand1): many rows
  const auto [exit2, out2] = RunServe("q2.1\n", tiny);
  EXPECT_EQ(exit2, 0) << out2;
  EXPECT_NE(out2.find("\"rows_truncated\": true"), std::string::npos)
      << out2;
  EXPECT_EQ(out2.find("\"rows\": ["), std::string::npos) << out2;
}

}  // namespace
}  // namespace crystal::server
