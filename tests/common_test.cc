#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/bitutil.h"
#include "common/fault.h"
#include "common/memory.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace crystal {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next64() == b.Next64() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int32_t v = rng.UniformInt(5, 17);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<int32_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, SkipMatchesRepeatedDraws) {
  // The last seed wraps the state past 2^64 within the first draws.
  for (const uint64_t seed : {uint64_t{20200302}, ~uint64_t{0} - 5}) {
    for (const uint64_t n : {0ull, 1ull, 9ull, 1'000'003ull}) {
      Rng stepped(seed);
      for (uint64_t i = 0; i < n; ++i) stepped.Next64();
      Rng skipped(seed);
      skipped.Skip(n);
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(skipped.Next64(), stepped.Next64())
            << "seed=" << seed << " n=" << n;
      }
    }
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(BitUtilTest, PowersOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(48));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(64), 64u);
  EXPECT_EQ(NextPowerOfTwo(65), 128u);
  EXPECT_EQ(Log2(1), 0);
  EXPECT_EQ(Log2(1024), 10);
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
}

TEST(BitUtilTest, HashIsStableAndMixed) {
  EXPECT_EQ(HashMurmur32(12345), HashMurmur32(12345));
  std::set<uint32_t> outputs;
  for (uint32_t k = 0; k < 1000; ++k) outputs.insert(HashMurmur32(k));
  EXPECT_EQ(outputs.size(), 1000u);  // no collisions on tiny domain
}

TEST(AlignedTest, VectorIs64ByteAligned) {
  AlignedVector<float> v(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % 64, 0u);
  AlignedVector<uint64_t> w(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(w.data()) % 64, 0u);
}

TEST(AlignedTest, LargeBlocksAreAlignedAndZeroed) {
  // Blocks past the mmap threshold take the page-mapping path; they must
  // keep the 64-byte alignment and vector value-initialization, also when
  // a just-freed block of the same size was dirty.
  constexpr size_t kLarge = (AlignedAllocator<int32_t>::kMmapThreshold /
                             sizeof(int32_t)) + 17;
  {
    AlignedVector<int32_t> dirty(kLarge);
    std::fill(dirty.begin(), dirty.end(), -1);
  }
  AlignedVector<int32_t> v(kLarge);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % 64, 0u);
  EXPECT_TRUE(
      std::all_of(v.begin(), v.end(), [](int32_t x) { return x == 0; }));
}

TEST(ThreadPoolTest, CoversWholeRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, [&](int, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, EmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int, int64_t begin, int64_t end) {
    calls += static_cast<int>(end - begin);
  });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int64_t sum = 0;
  pool.ParallelFor(10, [&](int t, int64_t begin, int64_t end) {
    EXPECT_EQ(t, 0);
    for (int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, ThreadIndexWithinBounds) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.ParallelFor(100, [&](int t, int64_t, int64_t) {
    if (t < 0 || t >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolMorselTest, CoversWholeRangeExactlyOnce) {
  ThreadPool pool(4);
  // Sizes straddling every boundary case: morsel > n, morsel == 1, odd
  // morsels with non-multiple tails, exact multiples.
  const struct { int64_t n, morsel; } cases[] = {
      {1000, 64}, {1000, 1}, {1000, 1000}, {1000, 5000},
      {1000, 7},  {64, 64},  {1, 3},       {1023, 256}};
  for (const auto& c : cases) {
    std::vector<std::atomic<int>> touched(static_cast<size_t>(c.n));
    pool.ParallelForMorsels(c.n, c.morsel,
                            [&](int, int64_t begin, int64_t end) {
                              for (int64_t i = begin; i < end; ++i)
                                touched[static_cast<size_t>(i)].fetch_add(1);
                            });
    for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  }
}

TEST(ThreadPoolMorselTest, MorselsNeverExceedRequestedSize) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.ParallelForMorsels(10000, 128, [&](int t, int64_t begin, int64_t end) {
    if (end - begin > 128 || begin >= end) ok = false;
    if (t < 0 || t >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolMorselTest, EmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelForMorsels(0, 64, [&](int, int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolMorselTest, PerThreadMorselsAscendOnSingleThread) {
  // With one thread the claim order is the full morsel sequence; it must
  // ascend and partition the range (the fused engine's per-thread scans
  // rely on forward-only progression).
  ThreadPool pool(1);
  int64_t expected_begin = 0;
  pool.ParallelForMorsels(1000, 300, [&](int, int64_t begin, int64_t end) {
    EXPECT_EQ(begin, expected_begin);
    expected_begin = end;
  });
  EXPECT_EQ(expected_begin, 1000);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int, int64_t begin, int64_t end) {
      sum.fetch_add(end - begin);
    });
    EXPECT_EQ(sum.load(), 100);
  }
}

TEST(TablePrinterTest, FormatsAlignedTable) {
  TablePrinter t({"a", "bb"});
  t.AddRow({"1", "2"});
  t.AddRow({"333", "4"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

TEST(StatusTest, DefaultIsOkAndFactoriesCarryCodeAndMessage) {
  const Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.ToString(), "OK");

  const Status bad = ResourceExhaustedError("out of slots");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(bad.message(), "out of slots");
  EXPECT_EQ(bad.ToString(), "kResourceExhausted: out of slots");
  EXPECT_EQ(bad, ResourceExhaustedError("out of slots"));
  EXPECT_FALSE(bad == Status());
}

TEST(StatusTest, StatusOrHoldsValueOrStatus) {
  StatusOr<int> with_value(7);
  EXPECT_TRUE(with_value.ok());
  EXPECT_EQ(with_value.value(), 7);
  EXPECT_EQ(*with_value, 7);

  StatusOr<int> with_error(NotFoundError("nope"));
  EXPECT_FALSE(with_error.ok());
  EXPECT_EQ(with_error.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  const auto passthrough = [](Status inner) -> Status {
    CRYSTAL_RETURN_IF_ERROR(inner);
    return InternalError("reached the end");
  };
  EXPECT_EQ(passthrough(UnavailableError("x")).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(passthrough(Status()).code(), StatusCode::kInternal);
}

/// Uninstalls every fault rule on scope exit, so a failing assertion
/// can't leak an active schedule into unrelated tests.
struct FaultGuard {
  ~FaultGuard() { fault::Clear(); }
};

TEST(FaultTest, DisabledByDefaultAndAfterClear) {
  FaultGuard guard;
  EXPECT_FALSE(fault::Enabled());
  EXPECT_TRUE(fault::Check("fused.morsel").ok());
  ASSERT_TRUE(fault::Install("fused.morsel=fail").ok());
  EXPECT_TRUE(fault::Enabled());
  fault::Clear();
  EXPECT_FALSE(fault::Enabled());
  EXPECT_TRUE(fault::Check("fused.morsel").ok());
}

TEST(FaultTest, FailRuleTriggersAndCounts) {
  FaultGuard guard;
  ASSERT_TRUE(fault::Install("fused.build=fail").ok());
  const Status status = fault::Check("fused.build");
  EXPECT_EQ(status.code(), StatusCode::kFaultInjected);
  EXPECT_NE(status.message().find("fused.build"), std::string::npos);
  EXPECT_EQ(fault::Hits("fused.build"), 1);
  EXPECT_EQ(fault::Triggers("fused.build"), 1);
  // Uninstalled points are evaluated (counted) but never fire.
  EXPECT_TRUE(fault::Check("fused.morsel").ok());
  EXPECT_EQ(fault::Hits("fused.morsel"), 1);
  EXPECT_EQ(fault::Triggers("fused.morsel"), 0);
}

TEST(FaultTest, NthEveryAndAfterTriggers) {
  FaultGuard guard;
  ASSERT_TRUE(fault::Install("fused.build=fail@3").ok());
  EXPECT_TRUE(fault::Check("fused.build").ok());
  EXPECT_TRUE(fault::Check("fused.build").ok());
  EXPECT_FALSE(fault::Check("fused.build").ok());  // the 3rd hit
  EXPECT_TRUE(fault::Check("fused.build").ok());

  ASSERT_TRUE(fault::Install("fused.build=fail@every:2").ok());
  int fired = 0;
  for (int i = 0; i < 6; ++i) fired += fault::Check("fused.build").ok() ? 0 : 1;
  EXPECT_EQ(fired, 3);

  ASSERT_TRUE(fault::Install("fused.build=fail@after:4").ok());
  fired = 0;
  for (int i = 0; i < 6; ++i) fired += fault::Check("fused.build").ok() ? 0 : 1;
  EXPECT_EQ(fired, 3);  // hits 4, 5, 6
}

TEST(FaultTest, ChanceTriggerIsDeterministicPerSeed) {
  FaultGuard guard;
  const auto run = [](const std::string& spec) {
    EXPECT_TRUE(fault::Install(spec).ok());
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(!fault::Check("server.admit").ok());
    }
    return fires;
  };
  const std::vector<bool> a = run("server.admit=fail@chance:0.5:9");
  const std::vector<bool> b = run("server.admit=fail@chance:0.5:9");
  const std::vector<bool> c = run("server.admit=fail@chance:0.5:10");
  EXPECT_EQ(a, b);  // same seed, same schedule
  EXPECT_NE(a, c);  // different seed, different schedule
  const int fired = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 8);   // ~32 expected of 64
  EXPECT_LT(fired, 56);
}

TEST(FaultTest, DelayRuleSleepsAndReturnsOk) {
  FaultGuard guard;
  ASSERT_TRUE(fault::Install("serve.read=delay:30ms@1").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(fault::Check("serve.read").ok());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 25.0);
  EXPECT_TRUE(fault::Check("serve.read").ok());  // only the 1st hit delays
}

TEST(FaultTest, InstallRejectsMalformedSpecsAtomically) {
  FaultGuard guard;
  EXPECT_FALSE(fault::Install("not-a-point=fail").ok());
  EXPECT_FALSE(fault::Install("fused.build").ok());
  EXPECT_FALSE(fault::Install("fused.build=explode").ok());
  EXPECT_FALSE(fault::Install("fused.build=fail@every:0").ok());
  EXPECT_FALSE(fault::Install("fused.build=fail@chance:2:1").ok());
  // A bad rule anywhere installs nothing — Enabled() stays false.
  EXPECT_FALSE(
      fault::Install("fused.build=fail,also-not-a-point=fail").ok());
  EXPECT_FALSE(fault::Enabled());
  EXPECT_TRUE(fault::Check("fused.build").ok());
  // The active spec is echoed back (bench JSON provenance).
  ASSERT_TRUE(fault::Install("fused.build=fail@2,serve.read=delay:1ms").ok());
  EXPECT_EQ(fault::ActiveSpec(), "fused.build=fail@2,serve.read=delay:1ms");
}

TEST(FaultTest, KnownPointsAreDocumentedAndInstallable) {
  FaultGuard guard;
  for (const fault::PointInfo& point : fault::KnownPoints()) {
    EXPECT_NE(point.name, nullptr);
    EXPECT_NE(point.description, nullptr);
    EXPECT_TRUE(fault::Install(std::string(point.name) + "=fail").ok())
        << point.name;
  }
}

TEST(MemoryBudgetTest, ChargeReleaseTracksTotalAndCategories) {
  MemoryBudget budget;
  EXPECT_EQ(budget.used(), 0);
  ASSERT_TRUE(budget.TryCharge(MemCategory::kBuildCache, 100).ok());
  ASSERT_TRUE(budget.TryCharge(MemCategory::kAggScratch, 50).ok());
  EXPECT_EQ(budget.used(), 150);
  EXPECT_EQ(budget.used(MemCategory::kBuildCache), 100);
  EXPECT_EQ(budget.used(MemCategory::kAggScratch), 50);
  EXPECT_EQ(budget.used(MemCategory::kSparseTables), 0);
  budget.Release(MemCategory::kBuildCache, 100);
  EXPECT_EQ(budget.used(), 50);
  budget.Release(MemCategory::kAggScratch, 50);
  EXPECT_EQ(budget.used(), 0);
}

TEST(MemoryBudgetTest, LimitEnforcedWithRollback) {
  MemoryBudget budget;
  budget.set_limit(1000);
  ASSERT_TRUE(budget.TryCharge(MemCategory::kSparseTables, 800).ok());
  const Status over = budget.TryCharge(MemCategory::kSparseTables, 300);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  // The failed claim rolled back completely: headroom is intact and a
  // fitting claim still succeeds.
  EXPECT_EQ(budget.used(), 800);
  EXPECT_EQ(budget.available(), 200);
  EXPECT_TRUE(budget.TryCharge(MemCategory::kSparseTables, 200).ok());
  EXPECT_EQ(budget.available(), 0);
}

TEST(MemoryBudgetTest, ZeroLimitAccountsButNeverRejects) {
  MemoryBudget budget;
  EXPECT_EQ(budget.limit(), 0);
  EXPECT_EQ(budget.available(), std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(
      budget.TryCharge(MemCategory::kResultBuffers, int64_t{1} << 40).ok());
  EXPECT_EQ(budget.peak(), int64_t{1} << 40);
  budget.Release(MemCategory::kResultBuffers, int64_t{1} << 40);
  // Negative limits clamp to "unenforced", matching set_limit's contract.
  budget.set_limit(-5);
  EXPECT_EQ(budget.limit(), 0);
}

TEST(MemoryBudgetTest, PeakIsHighWaterMarkAndResets) {
  MemoryBudget budget;
  ASSERT_TRUE(budget.TryCharge(MemCategory::kAggScratch, 500).ok());
  budget.Release(MemCategory::kAggScratch, 400);
  ASSERT_TRUE(budget.TryCharge(MemCategory::kAggScratch, 100).ok());
  EXPECT_EQ(budget.used(), 200);
  EXPECT_EQ(budget.peak(), 500);
  budget.ResetPeak();
  EXPECT_EQ(budget.peak(), 200);  // reset re-seeds from current usage
}

TEST(MemoryBudgetTest, UnconditionalChargeMayExceedLimit) {
  MemoryBudget budget;
  budget.set_limit(100);
  // Charge() is for memory that already exists (a finished build side):
  // it never fails, and the overshoot is the eviction pressure signal.
  budget.Charge(MemCategory::kBuildCache, 250);
  EXPECT_EQ(budget.used(), 250);
  EXPECT_EQ(budget.available(), 0);
  EXPECT_EQ(budget.TryCharge(MemCategory::kAggScratch, 1).code(),
            StatusCode::kResourceExhausted);
  budget.Release(MemCategory::kBuildCache, 250);
}

TEST(MemoryBudgetTest, TryChargeHitsTheFaultPoint) {
  FaultGuard guard;
  MemoryBudget budget;
  ASSERT_TRUE(fault::Install("memory.charge=fail").ok());
  const Status status = budget.TryCharge(MemCategory::kAggScratch, 10);
  EXPECT_EQ(status.code(), StatusCode::kFaultInjected);
  EXPECT_EQ(budget.used(), 0);  // a vetoed claim charges nothing
}

TEST(MemoryBudgetTest, AlignedLedgerIsSeparateFromGovernedLedger) {
  MemoryBudget budget;
  budget.set_limit(64);
  budget.NoteAligned(1 << 20);
  // Allocator traffic is observability only: it never consumes the
  // governed limit (enforcing it would reject the database columns).
  EXPECT_EQ(budget.aligned_bytes(), 1 << 20);
  EXPECT_EQ(budget.aligned_peak_bytes(), 1 << 20);
  EXPECT_EQ(budget.used(), 0);
  EXPECT_TRUE(budget.TryCharge(MemCategory::kAggScratch, 64).ok());
  budget.NoteAligned(-(1 << 20));
  EXPECT_EQ(budget.aligned_bytes(), 0);
  EXPECT_EQ(budget.aligned_peak_bytes(), 1 << 20);
}

TEST(MemoryBudgetTest, AlignedAllocatorReportsTraffic) {
  MemoryBudget& budget = MemoryBudget::Process();
  const int64_t before = budget.aligned_bytes();
  {
    AlignedVector<int32_t> v(1024);  // 4096 bytes, already 64-aligned
    EXPECT_GE(budget.aligned_bytes(), before + 4096);
  }
  EXPECT_EQ(budget.aligned_bytes(), before);  // free returns every byte

  // Blocks allocated on a pool worker and freed on this thread (how
  // parallel datagen's columns live), below and above the mmap threshold.
  ThreadPool pool(2);
  for (const size_t n : {size_t{1024}, size_t{1} << 20}) {
    AlignedVector<int32_t> v;
    pool.ParallelFor(2, [&](int thread, int64_t, int64_t) {
      if (thread == 1) v = AlignedVector<int32_t>(n);
    });
    EXPECT_GE(budget.aligned_bytes(),
              before + static_cast<int64_t>(n * sizeof(int32_t)));
    v = AlignedVector<int32_t>();
    EXPECT_EQ(budget.aligned_bytes(), before) << n;
  }
}

TEST(MemoryBudgetTest, ConcurrentChargeReleaseReconciles) {
  // TSan coverage for the atomic ledgers: hammer TryCharge/Release from
  // several threads; the budget must reconcile to zero and the peak must
  // be a value some interleaving actually reached.
  MemoryBudget budget;
  budget.set_limit(1 << 20);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&budget, t] {
      const MemCategory cat = static_cast<MemCategory>(t % kNumMemCategories);
      for (int i = 0; i < kIters; ++i) {
        const int64_t bytes = 64 + (i % 7) * 8;
        if (budget.TryCharge(cat, bytes).ok()) {
          budget.NoteAligned(bytes);
          budget.NoteAligned(-bytes);
          budget.Release(cat, bytes);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(budget.used(), 0);
  EXPECT_EQ(budget.aligned_bytes(), 0);
  for (int c = 0; c < kNumMemCategories; ++c) {
    EXPECT_EQ(budget.used(static_cast<MemCategory>(c)), 0);
  }
  EXPECT_GT(budget.peak(), 0);
  EXPECT_LE(budget.peak(), budget.limit());
}

TEST(TrackedChargeTest, ReleasesOnDestructionAndOnDemand) {
  MemoryBudget budget;
  {
    StatusOr<TrackedCharge> charge =
        TrackedCharge::Acquire(budget, MemCategory::kAggScratch, 128);
    ASSERT_TRUE(charge.ok());
    EXPECT_TRUE(charge->active());
    EXPECT_EQ(charge->bytes(), 128);
    EXPECT_EQ(budget.used(), 128);
    charge->Release();
    EXPECT_EQ(budget.used(), 0);
    charge->Release();  // idempotent
    EXPECT_EQ(budget.used(), 0);
  }
  {
    StatusOr<TrackedCharge> charge =
        TrackedCharge::Acquire(budget, MemCategory::kResultBuffers, 64);
    ASSERT_TRUE(charge.ok());
  }
  EXPECT_EQ(budget.used(), 0);  // destructor released
}

TEST(TrackedChargeTest, MoveTransfersOwnership) {
  MemoryBudget budget;
  StatusOr<TrackedCharge> acquired =
      TrackedCharge::Acquire(budget, MemCategory::kSparseTables, 256);
  ASSERT_TRUE(acquired.ok());
  TrackedCharge a = std::move(acquired).value();
  TrackedCharge b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_EQ(budget.used(), 256);  // exactly one live claim
  TrackedCharge c;
  c = std::move(b);
  EXPECT_EQ(budget.used(), 256);
  c.Release();
  EXPECT_EQ(budget.used(), 0);
}

TEST(TrackedChargeTest, FailedAcquireChargesNothing) {
  MemoryBudget budget;
  budget.set_limit(100);
  StatusOr<TrackedCharge> charge =
      TrackedCharge::Acquire(budget, MemCategory::kAggScratch, 200);
  EXPECT_FALSE(charge.ok());
  EXPECT_EQ(charge.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 0);
  // AcquireUnchecked is the already-allocated escape hatch: it always
  // claims, even past the limit.
  TrackedCharge forced =
      TrackedCharge::AcquireUnchecked(budget, MemCategory::kAggScratch, 200);
  EXPECT_EQ(budget.used(), 200);
  forced.Release();
  EXPECT_EQ(budget.used(), 0);
}

TEST(ParseMemBytesTest, GrammarAndSuffixes) {
  int64_t bytes = -1;
  EXPECT_TRUE(ParseMemBytes("0", &bytes));
  EXPECT_EQ(bytes, 0);
  EXPECT_TRUE(ParseMemBytes("131072", &bytes));
  EXPECT_EQ(bytes, 131072);
  EXPECT_TRUE(ParseMemBytes("512k", &bytes));
  EXPECT_EQ(bytes, int64_t{512} << 10);
  EXPECT_TRUE(ParseMemBytes("256m", &bytes));
  EXPECT_EQ(bytes, int64_t{256} << 20);
  EXPECT_TRUE(ParseMemBytes("2g", &bytes));
  EXPECT_EQ(bytes, int64_t{2} << 30);
  EXPECT_TRUE(ParseMemBytes("2G", &bytes));  // suffix is case-insensitive
  EXPECT_EQ(bytes, int64_t{2} << 30);
}

TEST(ParseMemBytesTest, RejectsMalformedAndOverflow) {
  int64_t bytes = 0;
  EXPECT_FALSE(ParseMemBytes("", &bytes));
  EXPECT_FALSE(ParseMemBytes("k", &bytes));
  EXPECT_FALSE(ParseMemBytes("-1", &bytes));
  EXPECT_FALSE(ParseMemBytes("1.5m", &bytes));
  EXPECT_FALSE(ParseMemBytes("12x", &bytes));
  EXPECT_FALSE(ParseMemBytes("256 m", &bytes));
  EXPECT_FALSE(ParseMemBytes("99999999999999999999", &bytes));
  EXPECT_FALSE(ParseMemBytes("99999999999g", &bytes));
}

}  // namespace
}  // namespace crystal
