// Allocation-free hot paths: once warmed up, a client thread's point
// updates into segments with room, point reads, short scans and SumAll
// neither allocate nor free heap memory, in every async mode.
//
// The executable replaces the global operator new/delete family with
// malloc-backed versions that count calls per thread, so the background
// threads (rebalancer master and workers, EBR collector) do not show up
// in the calling thread's count.
//
//  - UpdatesIntoRoom: for every stored key k, Insert k+1 (it lands right
//    after k, in k's segment), Remove it again, and upsert k, in a large
//    PMA with shrinking off. A round leaves the layout as it found it;
//    warm-up rounds run until one needs no rebalance (a segment filled
//    by the ascending load spreads once), and the measured round must
//    then run none either — checked, or a zero count would prove
//    nothing.
//  - Reads: Find hits and misses, a Scan that stops after a few items,
//    and SumAll.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "concurrent/concurrent_pma.h"

namespace {

thread_local uint64_t t_allocs = 0;
thread_local uint64_t t_frees = 0;

void* CountedAlloc(std::size_t n, std::size_t align) {
  ++t_allocs;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n == 0 ? 1 : n);
  } else if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  ++t_frees;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace cpma {
namespace {

using AsyncMode = ConcurrentConfig::AsyncMode;

constexpr Key kKeys = 2000;
constexpr Key kStride = 1000;

/// Heap calls made by the calling thread while `fn` runs.
struct HeapCalls {
  uint64_t allocs;
  uint64_t frees;
};

template <typename Fn>
HeapCalls CountHeapCalls(Fn&& fn) {
  const uint64_t a0 = t_allocs, f0 = t_frees;
  fn();
  return HeapCalls{t_allocs - a0, t_frees - f0};
}

class AllocFree : public ::testing::TestWithParam<AsyncMode> {
 protected:
  static ConcurrentConfig MakeConfig(AsyncMode mode) {
    ConcurrentConfig cfg;
    cfg.async_mode = mode;
    cfg.t_delay_ms = 1;
    cfg.rebalancer_workers = 1;
    // 128K slots for 2000 keys: every segment keeps room, so the
    // measured updates stay inside their segments. No shrink either: a
    // shrink resize is a rebalance, which the measured ops must not run.
    cfg.pma.initial_num_segments = 1024;
    cfg.pma.shrink_density = 0.0;
    return cfg;
  }

  void SetUp() override {
    pma_ = std::make_unique<ConcurrentPMA>(MakeConfig(GetParam()));
    for (Key i = 0; i < kKeys; ++i) pma_->Insert(i * kStride, i);
    pma_->Flush();
  }

  /// Insert and remove a key next to every stored key, then upsert it.
  void UpdateRound(Value v) {
    for (Key i = 0; i < kKeys; ++i) {
      pma_->Insert(i * kStride + 1, v);
      pma_->Remove(i * kStride + 1);
      pma_->Insert(i * kStride, v);
    }
  }

  uint64_t Rebalances() const {
    return pma_->num_local_rebalances() + pma_->num_global_rebalances() +
           pma_->num_resizes();
  }

  std::unique_ptr<ConcurrentPMA> pma_;
};

TEST_P(AllocFree, UpdatesIntoRoom) {
  // Warm-up: EBR slot registration, and the layout settles.
  uint64_t rebalances = Rebalances();
  for (int round = 0; round < 8; ++round) {
    UpdateRound(10);
    pma_->Flush();
    if (Rebalances() == rebalances) break;
    rebalances = Rebalances();
  }

  const HeapCalls calls = CountHeapCalls([&] { UpdateRound(20); });
  pma_->Flush();

  ASSERT_EQ(Rebalances(), rebalances) << "the measured round rebalanced";
  EXPECT_EQ(calls.allocs, 0u) << "over " << 3 * kKeys << " updates";
  EXPECT_EQ(calls.frees, 0u) << "over " << 3 * kKeys << " updates";
  Value v = 0;
  ASSERT_TRUE(pma_->Find((kKeys / 2) * kStride, &v));
  EXPECT_EQ(v, 20u);
  EXPECT_FALSE(pma_->Find((kKeys / 2) * kStride + 1, &v));
  EXPECT_EQ(pma_->Size(), kKeys);
}

TEST_P(AllocFree, Reads) {
  uint64_t seen = 0;
  const ScanCallback stop_after_ten = [&seen](Key, Value) {
    return ++seen % 10 != 0;
  };
  uint64_t hits = 0, sum = 0;
  auto read_round = [&] {
    for (Key i = 0; i < kKeys; ++i) {
      Value v = 0;
      hits += pma_->Find(i * kStride, &v) ? 1 : 0;
      hits += pma_->Find(i * kStride + 1, &v) ? 1 : 0;  // miss
    }
    for (Key i = 0; i < kKeys; i += 7) {
      pma_->Scan(i * kStride, kKeyMax, stop_after_ten);
    }
    sum += pma_->SumAll();
  };
  read_round();  // warm-up

  hits = 0;
  sum = 0;
  seen = 0;
  const HeapCalls calls = CountHeapCalls(read_round);

  EXPECT_EQ(calls.allocs, 0u);
  EXPECT_EQ(calls.frees, 0u);
  EXPECT_EQ(hits, kKeys);
  EXPECT_EQ(sum, kKeys * (kKeys - 1) / 2);
  EXPECT_GT(seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AllocFree,
    ::testing::Values(AsyncMode::kSync, AsyncMode::kOneByOne,
                      AsyncMode::kBatch),
    [](const ::testing::TestParamInfo<AsyncMode>& info) -> std::string {
      switch (info.param) {
        case AsyncMode::kSync: return "sync";
        case AsyncMode::kOneByOne: return "one_by_one";
        case AsyncMode::kBatch: return "batch";
      }
      return "unknown";
    });

}  // namespace
}  // namespace cpma
