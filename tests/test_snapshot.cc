// COW snapshots (ISSUE 9): frozen, consistent, retry-free point-in-time
// views of the concurrent PMA and the sharded fleet.
//
// Dual-labeled unit+concurrent (tests/CMakeLists.txt): the unit pass
// runs the deterministic frozen-image scenarios (exact std::map oracle
// equality before/after heavy post-snapshot churn, including forced
// resizes); the concurrent pass re-runs everything under TSan, where
// the preserve-before-mutate hand-off (gate hold -> GateSnap publish ->
// entry re-check on the reader side) must keep snapshot reads race-free
// against live writers.
//
//  - Frozen*: a snapshot equals the oracle at capture, stays bit-equal
//    across repeated reads while the live structure diverges (upserts,
//    deletes, rebalances, resizes), and its scan_retries() counter
//    stays 0 — the reader has no restart path, by construction.
//  - Storm*: snapshots taken mid-write-storm are internally consistent:
//    strictly ascending scans, self-consistent derived values, two
//    passes identical, zero retries.
//  - Sharded*: ShardedPMA::Snapshot() drains the coalescing front door
//    (everything Insert()ed before the call is captured) and freezes
//    all shards; range concatenation and hash k-way merge both yield
//    ordered frozen scans.
//  - OpenSnapshotBlocksDestruction: destroying the PMA with a live
//    snapshot is a programming error caught by a CHECK.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/snapshot.h"
#include "sharded/sharded_pma.h"

namespace cpma {
namespace {

using AsyncMode = ConcurrentConfig::AsyncMode;

// Every case runs on both storage backends: the rewired one serves
// snapshots from zero-copy COW views, the default anonymous one from
// per-gate heap copies.
class Snapshot : public ::testing::TestWithParam<bool> {};
class ShardedSnapshot : public ::testing::TestWithParam<bool> {};

std::string BackendName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "rewired" : "anonymous";
}

ConcurrentConfig SmallConfig(bool use_rewiring, size_t seg_cap = 16) {
  ConcurrentConfig cfg;
  cfg.pma.use_rewiring = use_rewiring;
  cfg.pma.segment_capacity = seg_cap;
  cfg.segments_per_gate = 4;
  cfg.rebalancer_workers = 2;
  return cfg;
}

void ExpectSnapshotExactly(const std::map<Key, Value>& oracle,
                           const PMASnapshot& snap) {
  EXPECT_EQ(snap.CountItems(), oracle.size());
  uint64_t sum = 0;
  auto it = oracle.begin();
  snap.Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
    EXPECT_NE(it, oracle.end());
    if (it != oracle.end()) {
      EXPECT_EQ(k, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
    sum += v;
    return true;
  });
  EXPECT_EQ(it, oracle.end());
  EXPECT_EQ(snap.SumAll(), sum);
  // Point probes: every oracle key hits with the frozen value; gaps miss.
  Random rng(3);
  for (int i = 0; i < 200; ++i) {
    auto probe = oracle.begin();
    std::advance(probe, rng.NextBounded(oracle.size()));
    Value v = 0;
    EXPECT_TRUE(snap.Find(probe->first, &v));
    EXPECT_EQ(v, probe->second);
  }
  EXPECT_EQ(snap.scan_retries(), 0u);
}

TEST_P(Snapshot, EmptyPmaSnapshot) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  auto snap = pma.Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->CountItems(), 0u);
  EXPECT_EQ(snap->SumAll(), 0u);
  EXPECT_FALSE(snap->Find(7, nullptr));
  EXPECT_EQ(pma.snapshots_open(), 1u);
  snap.reset();
  EXPECT_EQ(pma.snapshots_open(), 0u);
  EXPECT_EQ(pma.num_snapshots_taken(), 1u);
}

TEST_P(Snapshot, FrozenWhileLiveDiverges) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  std::map<Key, Value> oracle;
  Random rng(17);
  for (int i = 0; i < 3000; ++i) {
    Key k = rng.NextBounded(10000) + 1;
    Value v = rng.Next() >> 1;
    pma.Insert(k, v);
    oracle[k] = v;
  }
  pma.Flush();

  auto snap = pma.Snapshot();
  ExpectSnapshotExactly(oracle, *snap);

  // Diverge hard: overwrite every oracle key, delete a third of them,
  // and pour in enough new keys to force rebalances and resizes.
  size_t i = 0;
  for (const auto& [k, v] : oracle) {
    (void)v;
    if (i++ % 3 == 0) {
      pma.Remove(k);
    } else {
      pma.Insert(k, 0xDEAD0000 + i);
    }
  }
  for (int j = 0; j < 20000; ++j) {
    pma.Insert(rng.NextBounded(1u << 20) + 20000, j);
  }
  pma.Flush();
  ASSERT_NE(pma.Size(), oracle.size());

  // The frozen image is untouched — twice (repeated materialization).
  ExpectSnapshotExactly(oracle, *snap);
  ExpectSnapshotExactly(oracle, *snap);
  EXPECT_EQ(snap->scan_retries(), 0u);
  snap.reset();
  EXPECT_EQ(pma.snapshots_open(), 0u);
}

TEST_P(Snapshot, RangeScanRespectsBounds) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  for (Key k = 10; k <= 1000; k += 10) pma.Insert(k, k * 2);
  pma.Flush();
  auto snap = pma.Snapshot();
  pma.Insert(555, 1);  // post-snapshot; must not appear
  pma.Flush();

  std::vector<Key> seen;
  snap->Scan(100, 300, [&](Key k, Value v) {
    EXPECT_EQ(v, k * 2);
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), 21u);
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 300u);

  // Early stop after 3 items.
  int n = 0;
  snap->Scan(kKeyMin, kKeyMax, [&](Key, Value) { return ++n < 3; });
  EXPECT_EQ(n, 3);
}

TEST_P(Snapshot, ManyOverlappingSnapshotsSeeTheirOwnCut) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  std::vector<std::unique_ptr<PMASnapshot>> snaps;
  std::vector<std::map<Key, Value>> oracles;
  std::map<Key, Value> oracle;
  Random rng(23);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 800; ++i) {
      Key k = rng.NextBounded(5000) + 1;
      Value v = (static_cast<Value>(round) << 32) | i;
      pma.Insert(k, v);
      oracle[k] = v;
    }
    pma.Flush();
    snaps.push_back(pma.Snapshot());
    oracles.push_back(oracle);
  }
  EXPECT_EQ(pma.snapshots_open(), 5u);
  // Stamps are monotone and every snapshot sees exactly its cut.
  for (size_t s = 0; s < snaps.size(); ++s) {
    if (s > 0) {
      EXPECT_GT(snaps[s]->stamp(), snaps[s - 1]->stamp());
    }
    ExpectSnapshotExactly(oracles[s], *snaps[s]);
  }
  // Destroy newest-first; older snapshots stay valid.
  while (!snaps.empty()) {
    snaps.pop_back();
    oracles.pop_back();
    for (size_t s = 0; s < snaps.size(); ++s) {
      EXPECT_EQ(snaps[s]->CountItems(), oracles[s].size());
    }
  }
  EXPECT_EQ(pma.snapshots_open(), 0u);
}

TEST_P(Snapshot, SurvivesResizeOfLiveStructure) {
  ConcurrentPMA pma(SmallConfig(GetParam(), 8));
  std::map<Key, Value> oracle;
  for (Key k = 1; k <= 200; ++k) {
    pma.Insert(k, k + 7);
    oracle[k] = k + 7;
  }
  pma.Flush();
  const uint64_t resizes_before = pma.num_resizes();
  auto snap = pma.Snapshot();
  // Force at least one resize (tiny segments, 50x growth).
  for (Key k = 1000; k < 11000; ++k) pma.Insert(k, 1);
  pma.Flush();
  EXPECT_GT(pma.num_resizes(), resizes_before);
  // The snapshot pinned the retired structure via its epoch slot; the
  // retired storage is frozen forever, so reads stay exact and cheap.
  ExpectSnapshotExactly(oracle, *snap);
}

TEST_P(Snapshot, StormScansAreConsistentAndRetryFree) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  // Value is derived from the key, so ANY point-in-time cut satisfies
  // v == 3k+1 for every item; the frozen cut additionally must be
  // identical across two passes.
  constexpr Key kSpace = 50000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&pma, w, &stop] {
      Random rng(1000 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        Key k = rng.NextBounded(kSpace) + 1;
        if (rng.NextBounded(4) == 0) {
          pma.Remove(k);
        } else {
          pma.Insert(k, 3 * k + 1);
        }
      }
    });
  }
  for (int round = 0; round < 8; ++round) {
    auto snap = pma.Snapshot();
    std::vector<std::pair<Key, Value>> pass1;
    Key prev = 0;
    snap->Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
      EXPECT_GT(k, prev);  // strictly ascending: consistent fences
      prev = k;
      EXPECT_EQ(v, 3 * k + 1);
      pass1.emplace_back(k, v);
      return true;
    });
    // The second pass re-materializes every gate; the image must be
    // bit-identical even though writers kept mutating.
    size_t idx = 0;
    snap->Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
      EXPECT_LT(idx, pass1.size());
      if (idx < pass1.size()) {
        EXPECT_EQ(k, pass1[idx].first);
        EXPECT_EQ(v, pass1[idx].second);
      }
      ++idx;
      return true;
    });
    EXPECT_EQ(idx, pass1.size());
    EXPECT_EQ(snap->CountItems(), pass1.size());
    // The acceptance criterion: snapshot scans under a write storm
    // complete with zero retries, structurally.
    EXPECT_EQ(snap->scan_retries(), 0u);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST_P(Snapshot, OpenSnapshotBlocksDestruction) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        auto pma = std::make_unique<ConcurrentPMA>(SmallConfig(GetParam()));
        pma->Insert(1, 2);
        pma->Flush();
        auto snap = pma->Snapshot();
        pma.reset();  // CHECK: destroyed with open snapshots
      },
      "open snapshots");
}

// ------------------------------------------------------------- sharded

TEST_P(ShardedSnapshot, DrainsCoalescingAndFreezesAllShards) {
  for (auto part :
       {ShardedConfig::Partition::kRange, ShardedConfig::Partition::kHash}) {
    ShardedConfig cfg;
    cfg.shard.pma.use_rewiring = GetParam();
    cfg.num_shards = 4;
    cfg.partition = part;
    ShardedPMA pma(cfg);
    std::map<Key, Value> oracle;
    Random rng(5);
    for (int i = 0; i < 3000; ++i) {
      Key k = rng.NextBounded(100000) + 1;
      Value v = rng.Next() >> 1;
      pma.Insert(k, v);  // staged in coalescing slots — NO explicit Flush
      oracle[k] = v;
    }
    auto snap = pma.Snapshot();  // must drain the front door itself
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->num_shards(), 4u);
    EXPECT_EQ(pma.snapshots_open(), 4u);

    // Diverge the live fleet, then verify the frozen cut.
    for (int i = 0; i < 2000; ++i) pma.Insert(rng.NextBounded(100000) + 1, 7);
    pma.Flush();

    EXPECT_EQ(snap->CountItems(), oracle.size());
    auto it = oracle.begin();
    uint64_t sum = 0;
    snap->Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
      EXPECT_NE(it, oracle.end());
      if (it != oracle.end()) {
        EXPECT_EQ(k, it->first) << "partition mode "
                                << (part == ShardedConfig::Partition::kRange
                                        ? "range"
                                        : "hash");
        EXPECT_EQ(v, it->second);
        ++it;
      }
      sum += v;
      return true;
    });
    EXPECT_EQ(it, oracle.end());
    EXPECT_EQ(snap->SumAll(), sum);
    Value v = 0;
    auto probe = oracle.begin();
    std::advance(probe, oracle.size() / 2);
    EXPECT_TRUE(snap->Find(probe->first, &v));
    EXPECT_EQ(v, probe->second);

    snap.reset();
    EXPECT_EQ(pma.snapshots_open(), 0u);
    auto stats = pma.GetStats();
    EXPECT_EQ(stats.snapshots_taken, 4u);
    EXPECT_EQ(stats.snapshots_open, 0u);
  }
}

TEST_P(ShardedSnapshot, StormMergeStaysOrdered) {
  ShardedConfig cfg;
  cfg.shard.pma.use_rewiring = GetParam();
  cfg.num_shards = 4;
  cfg.partition = ShardedConfig::Partition::kHash;  // k-way merge path
  ShardedPMA pma(cfg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&pma, w, &stop] {
      Random rng(77 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        Key k = rng.NextBounded(20000) + 1;
        pma.Insert(k, 5 * k);
      }
    });
  }
  for (int round = 0; round < 4; ++round) {
    auto snap = pma.Snapshot();
    Key prev = 0;
    uint64_t n1 = 0, n2 = 0;
    snap->Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
      EXPECT_GT(k, prev);
      prev = k;
      EXPECT_EQ(v, 5 * k);
      ++n1;
      return true;
    });
    snap->Scan(kKeyMin, kKeyMax, [&](Key, Value) {
      ++n2;
      return true;
    });
    EXPECT_EQ(n1, n2);  // frozen across passes
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

INSTANTIATE_TEST_SUITE_P(Backends, Snapshot, ::testing::Bool(), BackendName);
INSTANTIATE_TEST_SUITE_P(Backends, ShardedSnapshot, ::testing::Bool(),
                         BackendName);

}  // namespace
}  // namespace cpma
