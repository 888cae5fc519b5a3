// Tests for the concurrent PMA: single-threaded semantics first (against
// a std::map oracle), then multi-threaded stress across all async modes,
// with invariants validated at quiesce points. Resize storms are forced
// with tiny segments.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/rebalancer.h"

namespace cpma {
namespace {

using AsyncMode = ConcurrentConfig::AsyncMode;

// Pinned to the rewired backend: the default-constructed PMAs below run
// the default anonymous one, and the `norewire` CTest entry
// (CPMA_FORCE_NO_REWIRE=1) sends these to the anonymous fallback too.
ConcurrentConfig SmallConfig(AsyncMode mode, size_t seg_cap = 16,
                             int64_t t_delay = 10) {
  ConcurrentConfig cfg;
  cfg.pma.use_rewiring = true;
  cfg.pma.segment_capacity = seg_cap;
  cfg.segments_per_gate = 4;
  cfg.rebalancer_workers = 2;
  cfg.async_mode = mode;
  cfg.t_delay_ms = t_delay;
  return cfg;
}

// ---------------------------------------------------------- basic single

TEST(ConcurrentPma, InsertFindSmoke) {
  ConcurrentPMA pma;
  pma.Insert(10, 100);
  pma.Insert(5, 50);
  pma.Insert(20, 200);
  pma.Flush();
  Value v = 0;
  EXPECT_TRUE(pma.Find(10, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(pma.Find(5, &v));
  EXPECT_FALSE(pma.Find(15, &v));
  EXPECT_EQ(pma.Size(), 3u);
}

TEST(ConcurrentPma, UpsertAndRemove) {
  ConcurrentPMA pma;
  pma.Insert(1, 10);
  pma.Insert(1, 20);
  pma.Remove(1);
  pma.Remove(99);  // absent
  pma.Flush();
  EXPECT_FALSE(pma.Find(1, nullptr));
  EXPECT_EQ(pma.Size(), 0u);
}

TEST(ConcurrentPma, EmptyStructureBehaves) {
  ConcurrentPMA pma;
  EXPECT_EQ(pma.SumAll(), 0u);
  EXPECT_FALSE(pma.Find(7, nullptr));
  int n = 0;
  pma.Scan(0, kKeyMax, [&](Key, Value) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 0);
  std::string err;
  EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
}

TEST(ConcurrentPma, NameReflectsMode) {
  EXPECT_NE(ConcurrentPMA(SmallConfig(AsyncMode::kSync)).Name().find("sync"),
            std::string::npos);
  EXPECT_NE(ConcurrentPMA(SmallConfig(AsyncMode::kOneByOne))
                .Name()
                .find("1by1"),
            std::string::npos);
  EXPECT_NE(ConcurrentPMA(SmallConfig(AsyncMode::kBatch)).Name().find("batch"),
            std::string::npos);
}

class ConcurrentPmaModes : public ::testing::TestWithParam<AsyncMode> {};

TEST_P(ConcurrentPmaModes, SingleThreadMatchesOracle) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  std::map<Key, Value> oracle;
  Random rng(42);
  for (int op = 0; op < 30000; ++op) {
    Key k = rng.NextBounded(4000);
    if (rng.NextBounded(10) < 7) {
      Value v = rng.Next();
      pma.Insert(k, v);
      oracle[k] = v;
    } else {
      pma.Remove(k);
      oracle.erase(k);
    }
    if (op % 10000 == 9999) {
      pma.Flush();
      std::string err;
      ASSERT_TRUE(pma.CheckInvariants(&err)) << err << " at op " << op;
      ASSERT_EQ(pma.Size(), oracle.size()) << "at op " << op;
    }
  }
  pma.Flush();
  std::vector<std::pair<Key, Value>> got;
  pma.Scan(0, kKeyMax, [&](Key k, Value v) {
    got.emplace_back(k, v);
    return true;
  });
  ASSERT_EQ(got.size(), oracle.size());
  auto it = oracle.begin();
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_EQ(got[i].first, it->first);
    ASSERT_EQ(got[i].second, it->second);
  }
}

TEST_P(ConcurrentPmaModes, GrowAndShrinkThroughResizes) {
  ConcurrentPMA pma(SmallConfig(GetParam(), /*seg_cap=*/8, /*t_delay=*/5));
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) pma.Insert(static_cast<Key>(i), i);
  pma.Flush();
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kN));
  EXPECT_GT(pma.num_resizes(), 0u) << "tiny segments must force resizes";
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  const size_t grown = pma.capacity();
  for (int i = 0; i < kN; ++i) pma.Remove(static_cast<Key>(i));
  pma.Flush();
  EXPECT_EQ(pma.Size(), 0u);
  EXPECT_LT(pma.capacity(), grown);
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  // Still usable after the storm.
  pma.Insert(1, 2);
  pma.Flush();
  EXPECT_TRUE(pma.Find(1, nullptr));
}

TEST_P(ConcurrentPmaModes, SequentialKeysWorstCase) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  for (Key k = 0; k < 30000; ++k) pma.Insert(k, k * 2);
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  Value v;
  for (Key k = 0; k < 30000; k += 977) {
    ASSERT_TRUE(pma.Find(k, &v));
    ASSERT_EQ(v, k * 2);
  }
}

TEST_P(ConcurrentPmaModes, ScanBoundsAndEarlyStop) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  for (Key k = 0; k < 2000; ++k) pma.Insert(k * 10, k);
  pma.Flush();
  std::vector<Key> seen;
  pma.Scan(95, 205, [&](Key k, Value) {
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), 11u);
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 200u);
  int visited = 0;
  pma.Scan(0, kKeyMax, [&](Key, Value) { return ++visited < 5; });
  EXPECT_EQ(visited, 5);
}

// A key between segment s-1's last key and segment s's first key fits
// either segment. When s-1 is full the key goes to the front of s
// instead of rebalancing, so removing and re-inserting every stored key
// of a sparse PMA settles: in the point-op modes every round after the
// first runs no local rebalance, and in batch mode (where a drained
// batch may still spread its gate) the count does not grow.
TEST_P(ConcurrentPmaModes, ReinsertBetweenSegmentsSettles) {
  ConcurrentConfig cfg;
  cfg.async_mode = GetParam();
  cfg.t_delay_ms = 1;
  cfg.rebalancer_workers = 1;
  cfg.pma.initial_num_segments = 1024;
  cfg.pma.shrink_density = 0.0;
  ConcurrentPMA pma(cfg);
  constexpr Key kKeys = 2000;
  constexpr Key kStride = 1000;
  for (Key i = 0; i < kKeys; ++i) pma.Insert(i * kStride, i);
  pma.Flush();

  std::vector<uint64_t> per_round;
  for (int round = 0; round < 6; ++round) {
    const uint64_t before = pma.num_local_rebalances();
    for (Key i = 0; i < kKeys; ++i) {
      pma.Remove(i * kStride);
      pma.Insert(i * kStride, i + static_cast<Value>(round));
    }
    pma.Flush();
    per_round.push_back(pma.num_local_rebalances() - before);
  }
  std::string counts;
  for (uint64_t n : per_round) counts += " " + std::to_string(n);
  for (size_t r = 1; r < per_round.size(); ++r) {
    if (GetParam() == AsyncMode::kBatch) {
      EXPECT_LE(per_round[r], per_round[r - 1])
          << "round " << r << "; per round:" << counts;
    } else {
      EXPECT_EQ(per_round[r], 0u) << "round " << r << "; per round:" << counts;
    }
  }
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kKeys));
  Value v = 0;
  ASSERT_TRUE(pma.Find((kKeys / 2) * kStride, &v));
  EXPECT_EQ(v, kKeys / 2 + 5);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ConcurrentPmaModes,
                         ::testing::Values(AsyncMode::kSync,
                                           AsyncMode::kOneByOne,
                                           AsyncMode::kBatch),
                         [](const ::testing::TestParamInfo<AsyncMode>& info) {
                           switch (info.param) {
                             case AsyncMode::kSync: return "Sync";
                             case AsyncMode::kOneByOne: return "OneByOne";
                             case AsyncMode::kBatch: return "Batch";
                           }
                           return "Unknown";
                         });

// ------------------------------------------------------------- concurrent

struct StressParam {
  AsyncMode mode;
  int writers;
  int readers;
  bool skewed;
  size_t seg_cap;
};

class ConcurrentStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(ConcurrentStress, WritersAndScannersConverge) {
  const StressParam p = GetParam();
  ConcurrentPMA pma(SmallConfig(p.mode, p.seg_cap, /*t_delay=*/5));
  constexpr int kOpsPerWriter = 8000;
  const uint64_t key_space = 1 << 16;

  // Per-writer disjoint key ranges let us compute the expected final
  // state without cross-thread op ordering ambiguity.
  std::vector<std::map<Key, Value>> expected(p.writers);
  std::vector<std::thread> threads;
  std::atomic<bool> stop_readers{false};

  for (int w = 0; w < p.writers; ++w) {
    threads.emplace_back([&, w] {
      Random rng(1000 + w);
      ZipfDistribution zipf(key_space, 1.2);
      auto& exp = expected[w];
      for (int i = 0; i < kOpsPerWriter; ++i) {
        uint64_t raw = p.skewed ? zipf.Sample(rng)
                                : 1 + rng.NextBounded(key_space);
        // Disjoint: key = raw * writers + w.
        Key k = raw * static_cast<uint64_t>(p.writers) + w;
        if (rng.NextBounded(10) < 7) {
          pma.Insert(k, k + i);
          exp[k] = k + i;
        } else {
          pma.Remove(k);
          exp.erase(k);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < p.readers; ++r) {
    readers.emplace_back([&] {
      uint64_t sink = 0;
      while (!stop_readers.load()) {
        sink += pma.SumAll();
        Value v;
        pma.Find(12345, &v);
      }
      (void)sink;
    });
  }
  for (auto& t : threads) t.join();
  stop_readers.store(true);
  for (auto& t : readers) t.join();
  pma.Flush();

  std::map<Key, Value> oracle;
  for (auto& exp : expected) oracle.insert(exp.begin(), exp.end());

  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  ASSERT_EQ(pma.Size(), oracle.size());
  std::vector<std::pair<Key, Value>> got;
  pma.Scan(0, kKeyMax, [&](Key k, Value v) {
    got.emplace_back(k, v);
    return true;
  });
  ASSERT_EQ(got.size(), oracle.size());
  auto it = oracle.begin();
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_EQ(got[i].first, it->first) << "at index " << i;
    ASSERT_EQ(got[i].second, it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConcurrentStress,
    ::testing::Values(StressParam{AsyncMode::kSync, 4, 2, false, 16},
                      StressParam{AsyncMode::kSync, 4, 2, true, 16},
                      StressParam{AsyncMode::kOneByOne, 4, 2, false, 16},
                      StressParam{AsyncMode::kOneByOne, 8, 0, true, 16},
                      StressParam{AsyncMode::kOneByOne, 4, 2, true, 8},
                      StressParam{AsyncMode::kBatch, 4, 2, false, 16},
                      StressParam{AsyncMode::kBatch, 8, 0, true, 16},
                      StressParam{AsyncMode::kBatch, 4, 2, true, 8}),
    [](const ::testing::TestParamInfo<StressParam>& info) {
      const auto& p = info.param;
      std::string name;
      switch (p.mode) {
        case AsyncMode::kSync: name = "Sync"; break;
        case AsyncMode::kOneByOne: name = "OneByOne"; break;
        case AsyncMode::kBatch: name = "Batch"; break;
      }
      name += "_w" + std::to_string(p.writers) + "r" +
              std::to_string(p.readers);
      name += p.skewed ? "_zipf" : "_uniform";
      name += "_B" + std::to_string(p.seg_cap);
      return name;
    });

TEST(ConcurrentPmaHeavy, HighSkewSingleHotGate) {
  // All writers hammer the same tiny key range: the worst case for gate
  // contention, exercising the combining queue continuously.
  ConcurrentPMA pma(SmallConfig(AsyncMode::kBatch, 16, /*t_delay=*/2));
  constexpr int kWriters = 8;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOps; ++i) {
        // Insert-only, disjoint keys in a hot range.
        pma.Insert(static_cast<Key>(i * kWriters + w), 7);
      }
    });
  }
  for (auto& t : threads) t.join();
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kWriters * kOps));
  EXPECT_GT(pma.num_queued_ops(), 0u)
      << "hot-gate workload should exercise the combining queue";
}

TEST(ConcurrentPmaHeavy, ResizeStormWithConcurrentScanners) {
  // Tiny capacity + rapid growth and shrink while scanners run: stresses
  // the epoch/invalidation protocol.
  ConcurrentConfig cfg = SmallConfig(AsyncMode::kOneByOne, 8);
  ConcurrentPMA pma(cfg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  for (int r = 0; r < 3; ++r) {
    scanners.emplace_back([&] {
      uint64_t sink = 0;
      while (!stop.load()) sink += pma.SumAll();
      (void)sink;
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 4000; ++i) {
          pma.Insert(static_cast<Key>(i * 4 + w), i);
        }
        for (int i = 0; i < 4000; ++i) {
          pma.Remove(static_cast<Key>(i * 4 + w));
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : scanners) t.join();
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), 0u);
  EXPECT_GT(pma.num_resizes(), 1u);
}

TEST(ConcurrentPmaHeavy, ReadersSeeConsistentValuesForStableKeys) {
  // Keys 0..999 are written once and never touched again; concurrent
  // writers churn a disjoint range. Readers must always see the stable
  // keys with their exact values.
  ConcurrentPMA pma(SmallConfig(AsyncMode::kOneByOne));
  for (Key k = 0; k < 1000; ++k) pma.Insert(2 * k, k + 7);  // even keys
  pma.Flush();
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    // Capture r by value: a [&] capture would read the loop counter while
    // the main thread increments it (a TSan-reported data race).
    readers.emplace_back([&, r] {
      Random rng(r);
      while (!stop.load()) {
        Key k = 2 * rng.NextBounded(1000);
        Value v = 0;
        if (!pma.Find(k, &v) || v != k / 2 + 7) {
          failed.store(true);
          return;
        }
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 3; ++round) {
      for (Key k = 0; k < 30000; ++k) {
        pma.Insert(100000 + 2 * k + 1, k);  // odd keys, far range
      }
      for (Key k = 0; k < 30000; ++k) pma.Remove(100000 + 2 * k + 1);
    }
  });
  writer.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  pma.Flush();
  EXPECT_FALSE(failed.load()) << "a stable key disappeared or changed";
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
}

TEST(ConcurrentPmaHeavy, FlushDrainsBatchQueues) {
  ConcurrentPMA pma(SmallConfig(AsyncMode::kBatch, 16, /*t_delay=*/500));
  // With a long t_delay, updates sit in queues; Flush must force them.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 2000; ++i) {
        pma.Insert(static_cast<Key>(i * 4 + w), 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  pma.Flush();
  EXPECT_EQ(pma.Size(), 8000u);
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
}

TEST(ConcurrentPmaStats, RebalancesAndBatchesAreCounted) {
  ConcurrentPMA pma(SmallConfig(AsyncMode::kBatch, 8, /*t_delay=*/1));
  for (Key k = 0; k < 20000; ++k) pma.Insert(k, k);
  pma.Flush();
  EXPECT_GT(pma.num_local_rebalances(), 0u);
  EXPECT_GT(pma.num_resizes(), 0u);
}

}  // namespace
}  // namespace cpma
