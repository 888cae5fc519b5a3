// Graceful-degradation suite (ISSUE 7): every library layer that gained
// a failpoint is driven through its injected-failure path and must
// degrade — never abort, never lose data:
//
//   rewiring   create falls back to anonymous mappings; failed remap
//              publications restore the old mappings, publish by copy
//              and stick the region in copy mode
//   storage    TryCreate surfaces ResourceExhausted instead of aborting
//   threadpool spawn failures run the pool degraded (inline at worst)
//   epoch_gc   slot-chunk allocation failure installs the emergency
//              reserve chunk; registration still succeeds
//   rebalancer resize allocation failure retries, degrades, and on
//              exhaustion requeues every drained op (exact final state
//              after recovery), reporting through the error callback;
//              the stall watchdog trips on an injected master stall
//
// All tests skip when failpoints are compiled out
// (CPMA_ENABLE_FAILPOINTS=OFF).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch_gc.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "concurrent/concurrent_pma.h"
#include "pma/storage.h"
#include "rewiring/rewiring.h"

namespace cpma {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "failpoints compiled out (CPMA_ENABLE_FAILPOINTS=OFF)";
    }
    failpoint::ClearAll();
  }
  void TearDown() override { failpoint::ClearAll(); }
};

// ------------------------------------------------------------- rewiring

// Create's use_rewiring argument: the ladder under test starts at the
// memfd backend.
constexpr bool kRewire = true;

// Fill the buffer with `fill`, swap one page, and check it arrived.
void SwapOnePageAndVerify(RewiredRegion* region, char fill) {
  const size_t page = region->page_size();
  std::memset(region->buffer(), fill, page);
  std::memset(region->data(), '.', page);
  region->SwapPages(0, 0, page);
  for (size_t i = 0; i < page; ++i) {
    ASSERT_EQ(region->data()[i], fill) << "byte " << i;
  }
}

TEST_F(FaultInjectionTest, RegionCreateFallsBackOnMemfdFailure) {
  ASSERT_TRUE(failpoint::Set("rewiring.memfd", "once"));
  Status st;
  auto region = RewiredRegion::Create(1 << 20, 1 << 20, kRewire, &st);
  ASSERT_NE(region, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(region->rewiring_enabled());
  SwapOnePageAndVerify(region.get(), 'A');
  EXPECT_GE(region->num_fallback_copies(), 1u);
}

TEST_F(FaultInjectionTest, RegionCreateFallsBackOnFtruncateFailure) {
  ASSERT_TRUE(failpoint::Set("rewiring.ftruncate", "once"));
  auto region = RewiredRegion::Create(1 << 20, 1 << 20, kRewire);
  ASSERT_NE(region, nullptr);
  EXPECT_FALSE(region->rewiring_enabled());
  SwapOnePageAndVerify(region.get(), 'B');
}

TEST_F(FaultInjectionTest, RegionCreateFallsBackOnMmapFailure) {
  ASSERT_TRUE(failpoint::Set("rewiring.mmap", "once"));
  auto region = RewiredRegion::Create(1 << 20, 1 << 20, kRewire);
  ASSERT_NE(region, nullptr);
  EXPECT_FALSE(region->rewiring_enabled());
  SwapOnePageAndVerify(region.get(), 'C');
}

TEST_F(FaultInjectionTest, RegionCreateFailsOnlyWhenLastRungFails) {
  ASSERT_TRUE(failpoint::Set("rewiring.memfd", "always"));
  ASSERT_TRUE(failpoint::Set("rewiring.fallback_alloc", "always"));
  Status st;
  auto region = RewiredRegion::Create(1 << 20, 1 << 20, kRewire, &st);
  EXPECT_EQ(region, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted);
  // Disarm the last rung: creation recovers (still no memfd).
  failpoint::Clear("rewiring.fallback_alloc");
  st = Status::OK();
  region = RewiredRegion::Create(1 << 20, 1 << 20, kRewire, &st);
  ASSERT_NE(region, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(region->rewiring_enabled());
}

TEST_F(FaultInjectionTest, RemapPublicationFailureDegradesToCopy) {
  auto region = RewiredRegion::Create(1 << 20, 1 << 20, kRewire);
  ASSERT_NE(region, nullptr);
  if (!region->rewiring_enabled()) {
    GTEST_SKIP() << "no memfd rewiring in this environment";
  }
  ASSERT_TRUE(failpoint::Set("rewiring.remap", "once"));
  // The failed publication must still publish (by copy) and the region
  // must permanently switch to copy mode.
  SwapOnePageAndVerify(region.get(), 'D');
  EXPECT_TRUE(region->degraded_to_copy());
  EXPECT_FALSE(region->rewiring_enabled());
  EXPECT_EQ(region->num_remap_failures(), 1u);
  EXPECT_GE(region->num_fallback_copies(), 1u);
  // Later swaps keep working in copy mode.
  SwapOnePageAndVerify(region.get(), 'E');
}

TEST_F(FaultInjectionTest, RemapRunTransientFailureRecoversInPlace) {
  auto region = RewiredRegion::Create(1 << 20, 1 << 20, kRewire);
  ASSERT_NE(region, nullptr);
  if (!region->rewiring_enabled()) {
    GTEST_SKIP() << "no memfd rewiring in this environment";
  }
  // A single transient per-run mmap failure is absorbed by the backoff
  // retry: the publication still lands as a remap, nothing degrades.
  ASSERT_TRUE(failpoint::Set("rewiring.remap_run", "once"));
  SwapOnePageAndVerify(region.get(), 'F');
  EXPECT_FALSE(region->degraded_to_copy());
  EXPECT_TRUE(region->rewiring_enabled());
  EXPECT_EQ(region->num_remap_failures(), 0u);
  EXPECT_GE(region->num_remaps(), 1u);
}

TEST_F(FaultInjectionTest, RemapRunExhaustionRestoresThenDegrades) {
  auto region = RewiredRegion::Create(1 << 20, 1 << 20, kRewire);
  ASSERT_NE(region, nullptr);
  if (!region->rewiring_enabled()) {
    GTEST_SKIP() << "no memfd rewiring in this environment";
  }
  // Every attempt of every run fails: the swap must restore the original
  // mappings (the restore path runs with failpoints suppressed, as a
  // real recovery would reuse already-reserved resources) and publish by
  // copy.
  ASSERT_TRUE(failpoint::Set("rewiring.remap_run", "always"));
  SwapOnePageAndVerify(region.get(), 'G');
  failpoint::Clear("rewiring.remap_run");
  EXPECT_TRUE(region->degraded_to_copy());
  EXPECT_EQ(region->num_remap_failures(), 1u);
  SwapOnePageAndVerify(region.get(), 'H');
}

// -------------------------------------------------------------- storage

TEST_F(FaultInjectionTest, StorageTryCreateSurfacesStatus) {
  ASSERT_TRUE(failpoint::Set("storage.create", "once"));
  Status st;
  auto storage = Storage::TryCreate(8, 32, false, &st);
  EXPECT_EQ(storage, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted);
  // The failpoint has recovered: the retry succeeds.
  st = Status::OK();
  storage = Storage::TryCreate(8, 32, false, &st);
  ASSERT_NE(storage, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(storage->num_segments(), 8u);
}

// ----------------------------------------------------------- threadpool

TEST_F(FaultInjectionTest, ThreadPoolRunsInlineWhenNoThreadSpawns) {
  ASSERT_TRUE(failpoint::Set("threadpool.spawn", "always"));
  ThreadPool pool(3);
  failpoint::Clear("threadpool.spawn");
  EXPECT_EQ(pool.num_threads(), 0u);
  EXPECT_EQ(pool.num_spawn_failures(), 3u);
  // Submit must still execute the task (inline on the caller).
  std::atomic<int> ran{0};
  WaitGroup wg;
  wg.Add(4);
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      ran.fetch_add(1);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(ran.load(), 4);
}

TEST_F(FaultInjectionTest, ThreadPoolRunsDegradedOnPartialSpawn) {
  ASSERT_TRUE(failpoint::Set("threadpool.spawn", "times:1"));
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 2u);
  EXPECT_EQ(pool.num_spawn_failures(), 1u);
  std::atomic<int> ran{0};
  WaitGroup wg;
  wg.Add(8);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      ran.fetch_add(1);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(ran.load(), 8);
}

// ------------------------------------------------------------- epoch GC

TEST_F(FaultInjectionTest, EpochGCInstallsEmergencyChunkOnGrowthFailure) {
  EpochGC::Options opts;
  opts.initial_threads = 1;  // one slot chunk; slot 33 forces growth
  EpochGC gc(opts);
  ASSERT_TRUE(failpoint::Set("epoch_gc.slot_chunk", "always"));
  std::vector<EpochSlot*> slots;
  std::set<EpochSlot*> distinct;
  for (int i = 0; i < 40; ++i) {
    EpochSlot* s = gc.RegisterThread();
    ASSERT_NE(s, nullptr) << "registration " << i;
    slots.push_back(s);
    distinct.insert(s);
  }
  EXPECT_EQ(distinct.size(), slots.size());
  EXPECT_GE(failpoint::Fires("epoch_gc.slot_chunk"), 1u);
  // The emergency-backed slots are fully functional.
  std::atomic<int> freed{0};
  gc.Enter(slots.back());
  gc.Retire([](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
            &freed, 8);
  gc.Collect();
  EXPECT_EQ(freed.load(), 0) << "pinned epoch must block reclamation";
  gc.Exit(slots.back());
  gc.Collect();
  EXPECT_EQ(freed.load(), 1);
  for (auto* s : slots) gc.UnregisterThread(s);
}

// ----------------------------------------------------------- rebalancer

ConcurrentConfig SmallConfig(ConcurrentConfig::AsyncMode mode) {
  ConcurrentConfig cfg;
  cfg.pma.use_rewiring = true;  // the ladder under test starts at memfd
  cfg.pma.segment_capacity = 32;
  cfg.segments_per_gate = 4;
  cfg.rebalancer_workers = 2;
  cfg.async_mode = mode;
  cfg.t_delay_ms = 1;
  cfg.strict_async_order = true;
  return cfg;
}

TEST_F(FaultInjectionTest, ResizeRetriesThroughTransientAllocFailure) {
  ConcurrentPMA pma(SmallConfig(ConcurrentConfig::AsyncMode::kSync));
  // Two transient failures: the in-resize retry rungs absorb them
  // without ever surfacing an error.
  ASSERT_TRUE(failpoint::Set("storage.create", "times:2"));
  constexpr Key kKeys = 4000;
  for (Key k = 0; k < kKeys; ++k) pma.Insert(k, k + 1);
  pma.Flush();
  ASSERT_GE(pma.num_resizes(), 1u);
  EXPECT_GE(pma.num_rebalance_retries(), 2u);
  EXPECT_TRUE(pma.last_error().ok()) << pma.last_error().ToString();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kKeys));
  for (Key k = 0; k < kKeys; ++k) {
    Value v = 0;
    ASSERT_TRUE(pma.Find(k, &v)) << "key " << k;
    ASSERT_EQ(v, k + 1);
  }
}

struct ResizeExhaustionCase {
  ConcurrentConfig::AsyncMode mode;
  const char* name;
};

class ResizeExhaustionTest
    : public FaultInjectionTest,
      public ::testing::WithParamInterface<ResizeExhaustionCase> {};

TEST_P(ResizeExhaustionTest, RequeuesOpsAndRecoversExactState) {
  ConcurrentPMA pma(SmallConfig(GetParam().mode));
  std::atomic<int> errors{0};
  Status first_error;
  std::mutex first_error_mu;
  pma.SetErrorCallback([&](const Status& s) {
    errors.fetch_add(1);
    std::lock_guard<std::mutex> lk(first_error_mu);
    if (first_error.ok()) first_error = s;
  });
  // Enough consecutive failures to exhaust a whole resize ladder (3
  // attempts per resize at this size) at least twice — exercising the
  // requeue + deferred-retry path — before recovering for good.
  ASSERT_TRUE(failpoint::Set("storage.create", "times:8"));
  constexpr Key kKeys = 4000;
  for (Key k = 0; k < kKeys; ++k) pma.Insert(k, k * 2 + 1);
  pma.Flush();
  failpoint::ClearAll();
  // The storm is over and Flush drained everything: the final state must
  // be exact — no lost or duplicated op — and the failure must have been
  // reported.
  EXPECT_GE(errors.load(), 1);
  {
    std::lock_guard<std::mutex> lk(first_error_mu);
    EXPECT_EQ(first_error.code(), Status::Code::kResourceExhausted)
        << first_error.ToString();
  }
  EXPECT_FALSE(pma.last_error().ok());
  EXPECT_GE(pma.num_rebalance_retries(), 3u);
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kKeys));
  for (Key k = 0; k < kKeys; ++k) {
    Value v = 0;
    ASSERT_TRUE(pma.Find(k, &v)) << "key " << k;
    ASSERT_EQ(v, k * 2 + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ResizeExhaustionTest,
    ::testing::Values(
        ResizeExhaustionCase{ConcurrentConfig::AsyncMode::kSync, "sync"},
        ResizeExhaustionCase{ConcurrentConfig::AsyncMode::kOneByOne, "1by1"},
        ResizeExhaustionCase{ConcurrentConfig::AsyncMode::kBatch, "batch"}),
    [](const ::testing::TestParamInfo<ResizeExhaustionCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(FaultInjectionTest, WatchdogTripsOnInjectedStall) {
  ConcurrentConfig cfg = SmallConfig(ConcurrentConfig::AsyncMode::kSync);
  cfg.watchdog_ms = 20;
  ConcurrentPMA pma(cfg);
  EXPECT_EQ(pma.num_watchdog_trips(), 0u);
  // Stall the master's next dispatch for ~2.5 watchdog intervals: the
  // checker must observe a frozen stamp at least once.
  ASSERT_TRUE(failpoint::Set("rebalancer.stall", "once"));
  for (Key k = 0; k < 2000; ++k) pma.Insert(k, k);
  pma.Flush();
  // The stall is synchronous inside a dispatch that Flush waited for, so
  // the trip (if any is ever going to happen) has been recorded by now.
  EXPECT_GE(pma.num_watchdog_trips(), 1u);
  EXPECT_EQ(failpoint::Fires("rebalancer.stall"), 1u);
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), 2000u);
}

TEST_F(FaultInjectionTest, WatchdogStaysQuietOnHealthyRun) {
  ConcurrentConfig cfg = SmallConfig(ConcurrentConfig::AsyncMode::kBatch);
  cfg.watchdog_ms = 200;  // generous vs. millisecond-scale rebalances
  ConcurrentPMA pma(cfg);
  for (Key k = 0; k < 4000; ++k) pma.Insert(k, k);
  pma.Flush();
  EXPECT_EQ(pma.num_watchdog_trips(), 0u);
}

TEST_F(FaultInjectionTest, FallbackBackendReported) {
  // Rewiring requested, memfd denied: the anonymous backend stands in
  // and reports itself as a fallback.
  ConcurrentConfig cfg = SmallConfig(ConcurrentConfig::AsyncMode::kSync);
  ASSERT_TRUE(failpoint::Set("rewiring.memfd", "always"));
  ConcurrentPMA pma(cfg);
  EXPECT_TRUE(pma.fallback_backend_active());
  for (Key k = 0; k < 1000; ++k) pma.Insert(k, k);
  pma.Flush();
  failpoint::ClearAll();
  EXPECT_TRUE(pma.fallback_backend_active());
  EXPECT_EQ(pma.Size(), 1000u);
  EXPECT_EQ(pma.storage_num_remaps(), 0u);
  EXPECT_GT(pma.storage_num_fallback_copies(), 0u);
}

TEST_F(FaultInjectionTest, CopyBackendByChoiceIsNotAFallback) {
  // use_rewiring = false picks the anonymous backend on purpose: it
  // publishes by copy and is not reported as degraded.
  ConcurrentConfig cfg = SmallConfig(ConcurrentConfig::AsyncMode::kSync);
  cfg.pma.use_rewiring = false;
  ConcurrentPMA pma(cfg);
  EXPECT_FALSE(pma.fallback_backend_active());
  EXPECT_FALSE(pma.storage_rewiring_enabled());
  for (Key k = 0; k < 1000; ++k) pma.Insert(k, k);
  pma.Flush();
  EXPECT_FALSE(pma.fallback_backend_active());
  EXPECT_EQ(pma.Size(), 1000u);
  EXPECT_EQ(pma.storage_num_remaps(), 0u);
  EXPECT_GT(pma.storage_num_fallback_copies(), 0u);
}

}  // namespace
}  // namespace cpma
