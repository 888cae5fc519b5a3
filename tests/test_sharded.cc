// Sharded front end (ISSUE 8): router, coalescing front door, ordered
// cross-shard scans, and shard-local fault containment.
//
// Dual-labeled unit+concurrent (tests/CMakeLists.txt): the unit pass
// runs the deterministic router/cursor/batch scenarios; the concurrent
// pass re-runs everything under TSan, where the coalescing flush
// hand-off (append lock -> flush lock -> UpdateBatch block stamping)
// and the k-way merged scans against live writers must stay race-free.
//
//  - Router*: range partition edge cases (domain ends, custom splitter
//    boundaries, monotonicity), hash partition coverage + stability.
//  - ScanCursor*: the pull-based chunk cursor underlying the merge —
//    concatenated chunks == the sorted range, trimming, empty ranges.
//  - UpdateBatch*: block stamp reservation applies a producer-ordered
//    run exactly like one-by-one issue (same-key runs: last op wins).
//  - Coalescing*: staged ops are invisible until a size/age/Flush
//    trigger; the age flusher bounds visibility lag without Flush().
//  - FifoThroughCoalescing (storm, x3 async modes): the ISSUE 5 storm
//    driven through the coalescing front door — 3 writers, same-key
//    bursts, tiny segments — per-key last-issued-op must win exactly.
//  - ScanUnderWriters: ordered cross-shard scans (range concatenation
//    AND hash k-way merge) stay strictly ascending while writers mutate
//    every shard.
//  - ChaosShardLocal: with rewiring.memfd failing process-wide, only
//    the shard that resizes degrades to the copy-publish backend; the
//    idle shards stay healthy and every op still applies (containment:
//    a fault amplified by load on one key range cannot take the whole
//    fleet's publish path down).
//  - EnvKnobs: CPMA_SHARDS / CPMA_COALESCE_OPS / CPMA_COALESCE_AGE_MS
//    override the config; garbage values are ignored with a warning.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "concurrent/concurrent_pma.h"
#include "sharded/sharded_pma.h"

namespace cpma {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

/// Tiny per-shard geometry (see test_reroute_order.cc): 4-slot
/// segments, 2 per gate, so fences move and resizes trigger constantly
/// under storm load.
ConcurrentConfig TinyShard(ConcurrentConfig::AsyncMode mode) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 4;
  cfg.pma.initial_num_segments = 4;
  cfg.segments_per_gate = 2;
  cfg.rebalancer_workers = 1;
  cfg.async_mode = mode;
  cfg.t_delay_ms = 1;
  return cfg;
}

ShardedConfig TinySharded(size_t shards, ShardedConfig::Partition part,
                          size_t coalesce = 0,
                          ConcurrentConfig::AsyncMode mode =
                              ConcurrentConfig::AsyncMode::kSync) {
  ShardedConfig cfg;
  cfg.shard = TinyShard(mode);
  cfg.num_shards = shards;
  cfg.partition = part;
  cfg.coalesce_ops = coalesce;
  cfg.coalesce_age_ms = 1;
  return cfg;
}

// ------------------------------------------------------------- router

TEST(Router, RangeDefaultSplittersCoverTheDomain) {
  ShardedPMA pma(TinySharded(4, ShardedConfig::Partition::kRange));
  EXPECT_EQ(pma.ShardOf(kKeyMin), 0u);
  EXPECT_EQ(pma.ShardOf(kKeyMax), 3u);
  // Monotone non-decreasing over an ascending key sweep.
  size_t prev = 0;
  std::set<size_t> seen;
  for (Key k = 0; k < 64; ++k) {
    const Key key = (kKeyMax / 63) * k;
    const size_t s = pma.ShardOf(key);
    ASSERT_GE(s, prev) << "router not monotone at key " << key;
    ASSERT_LT(s, 4u);
    prev = s;
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u) << "uniform split left a shard unreachable";
}

TEST(Router, RangeCustomSplitterBoundaries) {
  ShardedConfig cfg = TinySharded(4, ShardedConfig::Partition::kRange);
  cfg.splitters = {1000, 2000, 3000};
  ShardedPMA pma(cfg);
  // A splitter is the LOWEST key of the right-hand shard.
  EXPECT_EQ(pma.ShardOf(0), 0u);
  EXPECT_EQ(pma.ShardOf(999), 0u);
  EXPECT_EQ(pma.ShardOf(1000), 1u);
  EXPECT_EQ(pma.ShardOf(1999), 1u);
  EXPECT_EQ(pma.ShardOf(2000), 2u);
  EXPECT_EQ(pma.ShardOf(2999), 2u);
  EXPECT_EQ(pma.ShardOf(3000), 3u);
  EXPECT_EQ(pma.ShardOf(kKeyMax), 3u);
}

TEST(Router, SingleShardRoutesEverythingToZero) {
  ShardedPMA pma(TinySharded(1, ShardedConfig::Partition::kRange));
  EXPECT_EQ(pma.ShardOf(kKeyMin), 0u);
  EXPECT_EQ(pma.ShardOf(kKeyMax), 0u);
  EXPECT_EQ(pma.num_shards(), 1u);
}

TEST(Router, HashCoversAllShardsAndIsStable) {
  ShardedPMA pma(TinySharded(4, ShardedConfig::Partition::kHash));
  std::set<size_t> seen;
  for (Key k = 0; k < 4096; ++k) {
    const size_t s = pma.ShardOf(k);
    ASSERT_LT(s, 4u);
    ASSERT_EQ(s, pma.ShardOf(k)) << "router not deterministic";
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u) << "splitmix64 left a shard empty on 4k keys";
}

// --------------------------------------------------------- scan cursor

TEST(ScanCursor, ChunksConcatenateToTheSortedRange) {
  ConcurrentPMA pma(TinyShard(ConcurrentConfig::AsyncMode::kSync));
  std::vector<Key> keys;
  for (Key k = 10; k <= 1000; k += 10) {
    keys.push_back(k);
    pma.Insert(k, k * 2);
  }
  pma.Flush();

  ConcurrentPMA::ScanCursor cur(pma, kKeyMin, kKeyMax);
  std::vector<Item> chunk;
  std::vector<Item> all;
  while (cur.NextChunk(&chunk)) {
    ASSERT_FALSE(chunk.empty()) << "NextChunk returned true with no items";
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(all.size(), keys.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].key, keys[i]);
    EXPECT_EQ(all[i].value, keys[i] * 2);
    if (i > 0) {
      ASSERT_GT(all[i].key, all[i - 1].key);
    }
  }
}

TEST(ScanCursor, TrimsToTheRequestedRange) {
  ConcurrentPMA pma(TinyShard(ConcurrentConfig::AsyncMode::kSync));
  for (Key k = 1; k <= 200; ++k) pma.Insert(k, k);
  pma.Flush();

  ConcurrentPMA::ScanCursor cur(pma, 50, 150);
  std::vector<Item> chunk;
  std::vector<Key> got;
  while (cur.NextChunk(&chunk)) {
    for (const Item& it : chunk) got.push_back(it.key);
  }
  ASSERT_EQ(got.size(), 101u);
  EXPECT_EQ(got.front(), 50u);
  EXPECT_EQ(got.back(), 150u);
}

TEST(ScanCursor, EmptyAndInvertedRanges) {
  ConcurrentPMA pma(TinyShard(ConcurrentConfig::AsyncMode::kSync));
  pma.Insert(100, 1);
  pma.Flush();
  std::vector<Item> chunk;
  {
    ConcurrentPMA::ScanCursor cur(pma, 200, 100);  // min > max
    EXPECT_FALSE(cur.NextChunk(&chunk));
  }
  {
    ConcurrentPMA::ScanCursor cur(pma, 101, 99999);  // nothing in range
    EXPECT_FALSE(cur.NextChunk(&chunk));
  }
}

// -------------------------------------------------------- update batch

TEST(UpdateBatch, AppliesAProducerOrderedRunExactly) {
  ConcurrentPMA pma(TinyShard(ConcurrentConfig::AsyncMode::kOneByOne));
  // Same-key runs: the LAST op of the run must win (block stamps
  // reproduce issue order). Key 7: insert 1, insert 2, remove, insert 3.
  std::vector<GateOp> ops = {
      {GateOp::Type::kInsert, 7, 1, 0},  {GateOp::Type::kInsert, 5, 50, 0},
      {GateOp::Type::kInsert, 7, 2, 0},  {GateOp::Type::kRemove, 7, 0, 0},
      {GateOp::Type::kInsert, 9, 90, 0}, {GateOp::Type::kInsert, 7, 3, 0},
  };
  pma.UpdateBatch(ops.data(), ops.size());
  pma.UpdateBatch(nullptr, 0);  // n = 0 is a no-op
  pma.Flush();

  Value v = 0;
  ASSERT_TRUE(pma.Find(7, &v));
  EXPECT_EQ(v, 3u);
  ASSERT_TRUE(pma.Find(5, &v));
  EXPECT_EQ(v, 50u);
  ASSERT_TRUE(pma.Find(9, &v));
  EXPECT_EQ(v, 90u);
  EXPECT_EQ(pma.Size(), 3u);
}

// ---------------------------------------------------------- coalescing

TEST(Coalescing, StagedOpsBecomeVisibleOnFlush) {
  ShardedConfig cfg = TinySharded(2, ShardedConfig::Partition::kRange,
                                  /*coalesce=*/1000);
  cfg.coalesce_age_ms = 0;  // no ager: only Flush() can drain
  ShardedPMA pma(cfg);
  for (Key k = 1; k <= 10; ++k) pma.Insert(k, k);
  Value v = 0;
  EXPECT_FALSE(pma.Find(1, &v)) << "staged op visible before any flush";
  pma.Flush();
  for (Key k = 1; k <= 10; ++k) {
    ASSERT_TRUE(pma.Find(k, &v)) << "key " << k;
    EXPECT_EQ(v, k);
  }
  const auto st = pma.GetStats();
  EXPECT_EQ(st.coalesced_ops, 10u);
  EXPECT_EQ(st.direct_ops, 0u);
  EXPECT_GE(st.coalesced_flushes, 1u);
}

TEST(Coalescing, SizeTriggerFlushesWithoutExplicitFlush) {
  ShardedConfig cfg = TinySharded(1, ShardedConfig::Partition::kRange,
                                  /*coalesce=*/4);
  cfg.coalesce_age_ms = 0;
  ShardedPMA pma(cfg);
  for (Key k = 1; k <= 4; ++k) pma.Insert(k, k);  // 4th hits the trigger
  pma.shard(0).Flush();  // drain the shard's async queues only
  Value v = 0;
  EXPECT_TRUE(pma.Find(1, &v)) << "size trigger did not flush the run";
  EXPECT_EQ(pma.GetStats().coalesced_flushes, 1u);
}

TEST(Coalescing, AgeFlusherBoundsVisibilityLag) {
  ShardedConfig cfg = TinySharded(2, ShardedConfig::Partition::kRange,
                                  /*coalesce=*/1000);
  cfg.coalesce_age_ms = 1;
  ShardedPMA pma(cfg);
  pma.Insert(42, 4242);
  // One staged op, far below the size trigger: only the ager can
  // deliver it. Poll with a generous deadline (CI boxes stall).
  Value v = 0;
  bool seen = false;
  for (int i = 0; i < 2000 && !seen; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    seen = pma.Find(42, &v);
  }
  ASSERT_TRUE(seen) << "age flusher never delivered the staged op";
  EXPECT_EQ(v, 4242u);
  EXPECT_GE(pma.GetStats().age_flushes, 1u);
}

// --------------------------------------------------- fifo storm (x3)

struct StormParam {
  ConcurrentConfig::AsyncMode mode;
  const char* name;
};

class FifoThroughCoalescing : public ::testing::TestWithParam<StormParam> {};

// The ISSUE 5 storm (test_reroute_order.cc) driven through the sharded
// coalescing front door: 3 writers, per-key monotone values, bursts of
// same-key ops with no flush in between, 4 hash shards (one writer's
// stream spans every shard), coalesce runs of 8 racing the 1 ms age
// flusher. Per-key, per-producer FIFO must survive the staging layer:
// the final state is exactly the last issued op per key.
TEST_P(FifoThroughCoalescing, LastIssuedOpWinsPerKey) {
  ShardedPMA pma(TinySharded(4, ShardedConfig::Partition::kHash,
                             /*coalesce=*/8, GetParam().mode));
  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 8000;
  constexpr Key kRange = 1 << 10;

  std::vector<std::map<Key, std::optional<Value>>> last(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(500 + static_cast<uint64_t>(w));
      auto& mine = last[static_cast<size_t>(w)];
      Value ctr = 0;
      for (int i = 0; i < kOpsPerWriter;) {
        const Key k =
            rng.NextBounded(kRange) * kWriters + static_cast<Key>(w);
        const int burst = 1 + static_cast<int>(rng.NextBounded(4));
        for (int b = 0; b < burst && i < kOpsPerWriter; ++b, ++i) {
          if (rng.NextBounded(4) == 0) {
            pma.Remove(k);
            mine[k] = std::nullopt;
          } else {
            const Value v = ++ctr;
            pma.Insert(k, v);
            mine[k] = v;
          }
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  pma.Flush();

  size_t expected = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (const auto& [k, v] : last[static_cast<size_t>(w)]) {
      Value got = 0;
      const bool found = pma.Find(k, &got);
      if (v.has_value()) {
        ++expected;
        ASSERT_TRUE(found) << "writer " << w << " key " << k;
        ASSERT_EQ(got, *v) << "writer " << w << " key " << k;
      } else {
        ASSERT_FALSE(found) << "writer " << w << " removed key " << k;
      }
    }
  }
  EXPECT_EQ(pma.Size(), expected);
  for (size_t s = 0; s < pma.num_shards(); ++s) {
    std::string err;
    EXPECT_TRUE(pma.shard(s).CheckInvariants(&err))
        << "shard " << s << ": " << err;
  }
  // Everything went through staging, nothing took the direct path.
  const auto st = pma.GetStats();
  EXPECT_EQ(st.direct_ops, 0u);
  EXPECT_EQ(st.coalesced_ops,
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FifoThroughCoalescing,
    ::testing::Values(
        StormParam{ConcurrentConfig::AsyncMode::kSync, "sync"},
        StormParam{ConcurrentConfig::AsyncMode::kOneByOne, "1by1"},
        StormParam{ConcurrentConfig::AsyncMode::kBatch, "batch"}),
    [](const ::testing::TestParamInfo<StormParam>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------- scans under writers

void ScanOrderingUnderWriters(ShardedConfig::Partition part) {
  ShardedPMA pma(TinySharded(4, part, /*coalesce=*/8,
                             ConcurrentConfig::AsyncMode::kOneByOne));
  constexpr int kWriters = 2;
  constexpr Key kRange = 1 << 12;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(900 + static_cast<uint64_t>(w));
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        pma.Insert(rng.NextBounded(kRange), ++i);
        if (rng.NextBounded(8) == 0) pma.Remove(rng.NextBounded(kRange));
      }
    });
  }
  // Ordered scans while every shard mutates: strictly ascending keys,
  // both for full-range and for a mid-range window.
  for (int pass = 0; pass < 50; ++pass) {
    const Key lo = pass % 2 == 0 ? kKeyMin : kRange / 4;
    const Key hi = pass % 2 == 0 ? kKeyMax : (3 * kRange) / 4;
    Key prev = 0;
    bool first = true;
    pma.Scan(lo, hi, [&](Key k, Value) {
      EXPECT_TRUE(first || k > prev)
          << "out-of-order emission: " << prev << " then " << k;
      EXPECT_GE(k, lo);
      EXPECT_LE(k, hi);
      first = false;
      prev = k;
      return true;
    });
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  pma.Flush();

  // Quiesced: the ordered scan agrees with per-shard SumAll exactly.
  uint64_t scan_sum = 0;
  size_t scan_count = 0;
  pma.Scan(kKeyMin, kKeyMax, [&](Key, Value v) {
    scan_sum += v;
    ++scan_count;
    return true;
  });
  EXPECT_EQ(scan_sum, pma.SumAll());
  EXPECT_EQ(scan_count, pma.Size());
}

TEST(ShardedScan, RangeConcatenationStaysOrderedUnderWriters) {
  ScanOrderingUnderWriters(ShardedConfig::Partition::kRange);
}

TEST(ShardedScan, HashMergeStaysOrderedUnderWriters) {
  ScanOrderingUnderWriters(ShardedConfig::Partition::kHash);
}

TEST(ShardedScan, EarlyStopIsHonored) {
  ShardedPMA pma(TinySharded(4, ShardedConfig::Partition::kHash));
  for (Key k = 1; k <= 100; ++k) pma.Insert(k, k);
  pma.Flush();
  size_t seen = 0;
  pma.Scan(kKeyMin, kKeyMax, [&](Key, Value) { return ++seen < 10; });
  EXPECT_EQ(seen, 10u);
}

// ------------------------------------------------------ chaos (shard-local)

// Process-wide fault, shard-local blast radius: with rewiring.memfd
// failing for every NEW storage, only the shard that resizes under load
// degrades to the copy-publish backend. The untouched shards keep their
// healthy mappings — and every op still lands.
TEST(ChaosShardLocal, DegradationStaysOnTheLoadedShard) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (CPMA_ENABLE_FAILPOINTS=OFF)";
  }
  failpoint::ClearAll();
  ShardedConfig cfg = TinySharded(4, ShardedConfig::Partition::kRange,
                                  /*coalesce=*/8,
                                  ConcurrentConfig::AsyncMode::kOneByOne);
  cfg.splitters = {10000, 20000, 30000};
  cfg.shard.pma.use_rewiring = true;  // degraded = rewiring not active
  ShardedPMA pma(cfg);  // initial storages created healthy

  ASSERT_TRUE(failpoint::Set("rewiring.memfd", "always"));
  // Storm shard 0's key range only, from two threads, until it resized.
  constexpr int kWriters = 2;
  constexpr int kOps = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(1200 + static_cast<uint64_t>(w));
      for (int i = 0; i < kOps; ++i) {
        pma.Insert(rng.NextBounded(10000), static_cast<Value>(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  pma.Flush();
  failpoint::ClearAll();

  ASSERT_GT(pma.shard(0).num_resizes(), 0u)
      << "scenario failed to resize the loaded shard";
  EXPECT_TRUE(pma.shard(0).fallback_backend_active())
      << "resized-under-fault shard should publish by copy";
  for (size_t s = 1; s < pma.num_shards(); ++s) {
    EXPECT_EQ(pma.shard(s).num_resizes(), 0u) << "shard " << s;
    EXPECT_FALSE(pma.shard(s).fallback_backend_active())
        << "idle shard " << s << " degraded";
  }
  EXPECT_EQ(pma.GetStats().degraded_shards, 1u);

  // Containment is not data loss: everything is present and sane.
  uint64_t count = 0;
  Key prev = 0;
  bool first = true;
  pma.Scan(kKeyMin, kKeyMax, [&](Key k, Value) {
    EXPECT_TRUE(first || k > prev);
    first = false;
    prev = k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, pma.Size());
  for (size_t s = 0; s < pma.num_shards(); ++s) {
    std::string err;
    EXPECT_TRUE(pma.shard(s).CheckInvariants(&err))
        << "shard " << s << ": " << err;
  }
}

// ------------------------------------------------------------ env knobs

TEST(ShardedEnvKnobs, OverrideConfigStrictly) {
  {
    ScopedEnv env("CPMA_SHARDS", "8");
    ShardedPMA pma(TinySharded(2, ShardedConfig::Partition::kRange));
    EXPECT_EQ(pma.num_shards(), 8u);
  }
  {
    ScopedEnv env("CPMA_COALESCE_OPS", "16");
    ShardedPMA pma(TinySharded(2, ShardedConfig::Partition::kRange));
    EXPECT_EQ(pma.coalesce_ops(), 16u);
  }
  {
    ScopedEnv env("CPMA_COALESCE_AGE_MS", "7");
    ShardedPMA pma(TinySharded(2, ShardedConfig::Partition::kRange,
                               /*coalesce=*/8));
    EXPECT_EQ(pma.coalesce_age_ms(), 7);
  }
  {
    // Garbage must not silently change the fleet size.
    ScopedEnv env("CPMA_SHARDS", "many");
    ShardedPMA pma(TinySharded(2, ShardedConfig::Partition::kRange));
    EXPECT_EQ(pma.num_shards(), 2u);
  }
}

}  // namespace
}  // namespace cpma
