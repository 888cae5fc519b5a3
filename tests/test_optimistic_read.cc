// Optimistic versioned-gate read path (ISSUE 4).
//
// Dual-labeled unit+concurrent (tests/CMakeLists.txt): the unit pass
// covers the scalar/AVX2 kernels under CPMA_DISABLE_AVX2, the
// concurrent pass runs the same hammers under TSan, where the tagged
// accesses (common/tagged.h) must keep the seqlock races expressed as
// atomics — any missed tagging fails the tsan preset, no suppressions.
//
//  - GateVersionParity: the seqlock word is even exactly when no
//    writer/rebalancer owns the chunk, across every state-machine edge
//    including the WRITE -> REBAL hand-off.
//  - TornReadHammer: writers mutate one hot gate while readers
//    Find/Scan through it; every observed value must be the writer
//    invariant (a torn-but-validated window would surface garbage).
//  - ScanDuringFenceMovingRebalance: ascending inserts drive local and
//    global rebalances plus resizes under running scans; scans must
//    stay sorted, duplicate-free and value-consistent while fences
//    move beneath them.
//  - ScanCompletenessUnderFenceMoves: writers drive dense runs into hot
//    spots of a sparse stable key set, so window rebalances move fences
//    between a scan's visits of neighbouring gates; every full Scan,
//    ScanCursor drain and hash-sharded merge must still return every
//    stable key, and SumAll must fold at least what was acknowledged
//    before the pass started.
//  - BoundedScan*: the short-scan emitter stops exactly where the
//    callback stops (first item, segment and gate boundaries), refills
//    within segments larger than its staging buffer, and handles empty
//    and inverted ranges — on the optimistic path and forced fallback.
//  - ForcedFallback*: CPMA_OPTIMISTIC_RETRIES=0 disables the optimistic
//    path; the blocking latch protocol must pass the same checks, and
//    the fallback counter proves which path served the reads.
//  - QuiescentReadsNeverFallBack: with no writers, every read must be
//    served optimistically (fallback counter stays zero).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/latches.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/gate.h"
#include "sharded/sharded_pma.h"

namespace cpma {
namespace {

GateOp Ins(Key k) { return GateOp{GateOp::Type::kInsert, k, k}; }

/// Writer invariant: the only value ever stored for `k`. Readers that
/// observe anything else caught a torn read escaping validation.
Value ValueFor(Key k) { return k * 0x9E3779B97F4A7C15ull + 1; }

ConcurrentConfig SmallGateConfig(ConcurrentConfig::AsyncMode mode) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 32;  // small segments: frequent rebalances
  cfg.segments_per_gate = 4;
  cfg.rebalancer_workers = 2;
  cfg.async_mode = mode;
  cfg.t_delay_ms = 5;
  return cfg;
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

TEST(OptimisticRead, GateVersionParity) {
  Gate g(0, 0, 8);
  auto stable = [&] { return SeqVersion::Stable(g.version().ReadBegin()); };
  EXPECT_TRUE(stable());

  // Writer acquire/release brackets one mutation window.
  ASSERT_EQ(g.WriterAccess(Ins(5), /*allow_queue=*/false), GateAccess::kOwner);
  EXPECT_FALSE(stable());
  EXPECT_TRUE(g.WriterRelease());
  EXPECT_TRUE(stable());

  // Readers never open a window.
  Key k = 5;
  ASSERT_EQ(g.ReaderAccess(&k), GateAccess::kOwner);
  EXPECT_TRUE(stable());
  g.ReaderRelease();
  EXPECT_TRUE(stable());

  // Master acquire/release brackets one window.
  g.MasterAcquire();
  EXPECT_FALSE(stable());
  g.MasterRelease();
  EXPECT_TRUE(stable());

  // WRITE -> REBAL hand-off keeps the same window open end to end.
  ASSERT_EQ(g.WriterAccess(Ins(6), false), GateAccess::kOwner);
  const uint64_t during_write = g.version().ReadBegin();
  g.TransferToRebalancer();
  EXPECT_EQ(g.version().ReadBegin(), during_write);  // still odd, no bump
  g.MasterAcquire();  // takes over the transferred window
  EXPECT_EQ(g.version().ReadBegin(), during_write);
  g.MasterRelease();
  EXPECT_TRUE(stable());
  ASSERT_TRUE(g.WriterReacquireAfterRebal());
  EXPECT_FALSE(stable());
  EXPECT_TRUE(g.WriterRelease());
  EXPECT_TRUE(stable());

  // A validated window rejects any intervening mutation.
  const uint64_t v = g.version().ReadBegin();
  ASSERT_TRUE(g.version().Validate(v));
  ASSERT_EQ(g.WriterAccess(Ins(7), false), GateAccess::kOwner);
  EXPECT_FALSE(g.version().Validate(v));
  g.WriterRelease();
  EXPECT_FALSE(g.version().Validate(v));  // exact equality, not parity
}

// Shared hammer body: writers churn a small hot key set (upsert/remove
// with the ValueFor invariant) while readers point-read and scan it.
// Checks hold in both the optimistic and the forced-fallback mode.
void RunTornReadHammer(ConcurrentPMA* pma, int num_writers, int num_readers,
                       int rounds) {
  constexpr Key kHotKeys = 512;  // spans a handful of small gates
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_values{0};
  std::atomic<uint64_t> order_violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < num_writers; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < rounds; ++r) {
        // Each writer owns the keys congruent to it; overwrites and
        // removals keep gates mutating (odd version windows) all along.
        for (Key k = static_cast<Key>(w) + 1; k <= kHotKeys;
             k += static_cast<Key>(num_writers)) {
          pma->Insert(k, ValueFor(k));
          if ((k + static_cast<Key>(r)) % 3 == 0) pma->Remove(k);
        }
      }
      stop.store(true, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < num_readers; ++t) {
    readers.emplace_back([&, t] {
      uint64_t it = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = 1 + (it * 31 + static_cast<uint64_t>(t)) % kHotKeys;
        Value v = 0;
        if (pma->Find(k, &v) && v != ValueFor(k)) {
          torn_values.fetch_add(1, std::memory_order_relaxed);
        }
        if (++it % 64 == 0) {
          Key prev = 0;
          bool have_prev = false;
          pma->Scan(1, kHotKeys, [&](Key key, Value value) {
            if (have_prev && key <= prev) {
              order_violations.fetch_add(1, std::memory_order_relaxed);
            }
            if (value != ValueFor(key)) {
              torn_values.fetch_add(1, std::memory_order_relaxed);
            }
            prev = key;
            have_prev = true;
            return true;
          });
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  for (auto& th : readers) th.join();

  EXPECT_EQ(torn_values.load(), 0u);
  EXPECT_EQ(order_violations.load(), 0u);
  pma->Flush();
  std::string err;
  EXPECT_TRUE(pma->CheckInvariants(&err)) << err;
}

TEST(OptimisticRead, TornReadHammer) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  RunTornReadHammer(&pma, /*num_writers=*/2, /*num_readers=*/2,
                    /*rounds=*/200);
  // Reads raced with writers on hot gates; some scans should still have
  // validated latch-free (not a hard guarantee, but a budget of 8
  // windows across this workload failing every single time would mean
  // the optimistic path is broken).
  EXPECT_GT(pma.num_optimistic_gate_reads(), 0u);
}

TEST(OptimisticRead, ScanDuringFenceMovingRebalance) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kOneByOne));
  constexpr Key kTotal = 50000;
  constexpr int kWriters = 2;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};

  // Ascending interleaved inserts: grows through many local and global
  // rebalances and several resizes, so fences move constantly.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (Key k = static_cast<Key>(w) + 1; k <= kTotal; k += kWriters) {
        pma.Insert(k, ValueFor(k));
      }
    });
  }
  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Key prev = 0;
        bool have_prev = false;
        pma.Scan(kKeyMin, kKeyMax, [&](Key key, Value value) {
          if ((have_prev && key <= prev) || value != ValueFor(key)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
          prev = key;
          have_prev = true;
          return true;
        });
        // SumAll shares the per-gate validation; just exercise it.
        volatile uint64_t sink = pma.SumAll();
        (void)sink;
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : scanners) th.join();
  EXPECT_EQ(bad.load(), 0u);

  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  ASSERT_EQ(pma.Size(), static_cast<size_t>(kTotal));
  uint64_t expect_sum = 0;
  for (Key k = 1; k <= kTotal; ++k) expect_sum += ValueFor(k);
  EXPECT_EQ(pma.SumAll(), expect_sum);
  // The array grew through resizes; the global rebalance machinery must
  // actually have run for this test to mean anything.
  EXPECT_GT(pma.num_resizes() + pma.num_global_rebalances(), 0u);
}

// ------------------------------------------- scan completeness probe

constexpr Key kStableKeys = 8192;
constexpr Key kStableSpacing = 4096;

bool IsStable(Key k) {
  return k % kStableSpacing == 0 && k >= kStableSpacing &&
         k <= kStableKeys * kStableSpacing;
}

/// One full pass as its consumer saw it: order and stable-key count.
struct PassCheck {
  Key prev = 0;
  bool have_prev = false;
  uint64_t disorder = 0;
  uint64_t stable = 0;

  void See(Key k) {
    if (have_prev && k <= prev) ++disorder;
    prev = k;
    have_prev = true;
    if (IsStable(k)) ++stable;
  }
  bool Complete() const { return disorder == 0 && stable == kStableKeys; }
};

/// Failed passes per read surface, plus how many passes ran.
struct ProbeResult {
  uint64_t passes = 0;
  uint64_t bad_scans = 0;
  uint64_t bad_sums = 0;
  uint64_t bad_cursors = 0;
};

/// Preloads the stable keys (value 1), then lets two writers insert
/// dense runs right after hot stable keys while one reader loops
/// `pass`. A run overflows its gate and forces window rebalances, and
/// their fence moves shift keys between neighbouring gates while a
/// scan sits in or between them. Writer w inserts hot + 1 + 2j + w and
/// never revisits a hot key, so no two inserts share a key and `acked`
/// counts the items added.
ProbeResult RunFenceMoveProbe(
    OrderedMap* map,
    const std::function<void(ProbeResult*, uint64_t acked_floor)>& pass) {
  constexpr int kWriters = 2;
  constexpr Key kRounds = 32;
  constexpr Key kRun = 512;
  for (Key i = 1; i <= kStableKeys; ++i) map->Insert(i * kStableSpacing, 1);
  map->Flush();

  std::atomic<uint64_t> acked{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (Key r = 0; r < kRounds; ++r) {
        const Key hot =
            (1 + (r * 97 + static_cast<Key>(w) * 4099) % kStableKeys) *
            kStableSpacing;
        for (Key j = 0; j < kRun; ++j) {
          map->Insert(hot + 1 + 2 * j + static_cast<Key>(w), 1);
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  ProbeResult res;
  std::thread reader([&] {
    do {
      pass(&res, kStableKeys + acked.load(std::memory_order_relaxed));
      ++res.passes;
    } while (!stop.load(std::memory_order_relaxed));
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  map->Flush();
  EXPECT_EQ(map->Size(), static_cast<size_t>(kStableKeys) +
                             kWriters * kRounds * static_cast<size_t>(kRun));
  return res;
}

TEST(OptimisticRead, ScanCompletenessUnderFenceMoves) {
  {
    ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
    const ProbeResult res = RunFenceMoveProbe(
        &pma, [&](ProbeResult* r, uint64_t acked_floor) {
          PassCheck scan;
          pma.Scan(kKeyMin, kKeyMax, [&](Key k, Value) {
            scan.See(k);
            return true;
          });
          if (!scan.Complete()) ++r->bad_scans;
          // Every value is 1: the fold is the number of items seen.
          if (pma.SumAll() < acked_floor) ++r->bad_sums;
          PassCheck drain;
          ConcurrentPMA::ScanCursor cur(pma, kKeyMin, kKeyMax);
          std::vector<Item> chunk;
          while (cur.NextChunk(&chunk)) {
            for (const Item& it : chunk) drain.See(it.key);
          }
          if (!drain.Complete()) ++r->bad_cursors;
        });
    EXPECT_GT(res.passes, 0u);
    EXPECT_EQ(res.bad_scans, 0u) << "of " << res.passes << " passes";
    EXPECT_EQ(res.bad_sums, 0u) << "of " << res.passes << " passes";
    EXPECT_EQ(res.bad_cursors, 0u) << "of " << res.passes << " passes";
    std::string err;
    EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
    EXPECT_GT(pma.num_global_rebalances() + pma.num_resizes(), 0u);
  }
  {
    ShardedConfig cfg;
    cfg.shard = SmallGateConfig(ConcurrentConfig::AsyncMode::kSync);
    cfg.shard.rebalancer_workers = 1;
    cfg.num_shards = 2;
    cfg.partition = ShardedConfig::Partition::kHash;
    ShardedPMA sharded(cfg);
    const ProbeResult res = RunFenceMoveProbe(
        &sharded, [&](ProbeResult* r, uint64_t acked_floor) {
          PassCheck merge;
          sharded.Scan(kKeyMin, kKeyMax, [&](Key k, Value) {
            merge.See(k);
            return true;
          });
          if (!merge.Complete()) ++r->bad_scans;
          if (sharded.SumAll() < acked_floor) ++r->bad_sums;
        });
    EXPECT_GT(res.passes, 0u);
    EXPECT_EQ(res.bad_scans, 0u) << "of " << res.passes << " passes";
    EXPECT_EQ(res.bad_sums, 0u) << "of " << res.passes << " passes";
  }
}

// ------------------------------------------------ bounded short scans

/// Runs `body` on the optimistic path, then with the optimistic budget
/// forced to zero so every gate is served under the READ latch. The
/// override is read when a PMA is built, so `body` builds its own.
void ForBothReadPaths(const std::function<void()>& body) {
  {
    SCOPED_TRACE("optimistic");
    body();
  }
  ScopedEnv env("CPMA_OPTIMISTIC_RETRIES", "0");
  SCOPED_TRACE("forced fallback");
  body();
}

/// Scan stages at most this many items of a segment at a time.
constexpr size_t kScanStageItems = 128;

/// Segment capacities below and above the Scan staging buffer; the
/// larger one makes the emitter refill within a segment.
constexpr size_t kEdgeCapacities[] = {32, 512};

ConcurrentConfig EdgeConfig(size_t segment_capacity) {
  ConcurrentConfig cfg = SmallGateConfig(ConcurrentConfig::AsyncMode::kSync);
  cfg.pma.segment_capacity = segment_capacity;
  return cfg;
}

TEST(BoundedScan, StopsWhereTheCallbackStops) {
  for (size_t B : kEdgeCapacities) {
    SCOPED_TRACE("segment_capacity " + std::to_string(B));
    ForBothReadPaths([B] {
      ConcurrentPMA pma(EdgeConfig(B));
      constexpr Key kN = 3000;
      for (Key k = 1; k <= kN; ++k) pma.Insert(k, ValueFor(k));
      pma.Flush();
      // A cursor delivers at most one segment run per chunk, so running
      // chunk totals are segment boundaries, and gate boundaries are
      // among them. Stop on both sides of each, at the first item, and
      // at every staging refill inside a segment.
      std::vector<Key> stops = {1, 2, kN};
      Key total = 0;
      size_t largest = 0;
      ConcurrentPMA::ScanCursor cur(pma, kKeyMin, kKeyMax);
      std::vector<Item> chunk;
      while (cur.NextChunk(&chunk)) {
        ASSERT_LE(chunk.size(), B) << "a chunk spans more than one segment";
        largest = std::max(largest, chunk.size());
        for (size_t r = kScanStageItems; r < chunk.size();
             r += kScanStageItems) {
          stops.push_back(total + r);
          stops.push_back(total + r + 1);
        }
        for (const Item& it : chunk) ASSERT_EQ(it.key, ++total);
        stops.push_back(total);
        if (total < kN) stops.push_back(total + 1);
      }
      ASSERT_EQ(total, kN);
      if (B > kScanStageItems) {
        EXPECT_GT(largest, kScanStageItems);
      }
      for (Key stop : stops) {
        // Counting every call also catches emission after `false`.
        Key calls = 0;
        pma.Scan(1, kKeyMax, [&](Key k, Value v) {
          ++calls;
          EXPECT_EQ(k, calls);
          EXPECT_EQ(v, ValueFor(k));
          return calls < stop;
        });
        EXPECT_EQ(calls, stop);
      }
    });
  }
}

TEST(BoundedScan, RangeEdges) {
  for (size_t B : kEdgeCapacities) {
    SCOPED_TRACE("segment_capacity " + std::to_string(B));
    ForBothReadPaths([B] {
      ConcurrentPMA pma(EdgeConfig(B));
      auto collect = [&](Key lo, Key hi) {
        std::vector<Key> out;
        pma.Scan(lo, hi, [&](Key k, Value v) {
          EXPECT_EQ(v, ValueFor(k));
          out.push_back(k);
          return true;
        });
        return out;
      };
      auto drain = [&](Key lo, Key hi) {
        std::vector<Key> out;
        ConcurrentPMA::ScanCursor cur(pma, lo, hi);
        std::vector<Item> chunk;
        while (cur.NextChunk(&chunk)) {
          EXPECT_FALSE(chunk.empty());
          for (const Item& it : chunk) out.push_back(it.key);
        }
        return out;
      };

      EXPECT_TRUE(collect(kKeyMin, kKeyMax).empty());
      EXPECT_TRUE(drain(kKeyMin, kKeyMax).empty());
      EXPECT_EQ(pma.SumAll(), 0u);

      std::set<Key> keys = {kKeyMin, kKeyMax};
      for (Key k = 3; k <= 6000; k += 3) keys.insert(k);
      uint64_t sum = 0;
      for (Key k : keys) {
        pma.Insert(k, ValueFor(k));
        sum += ValueFor(k);
      }
      pma.Flush();
      EXPECT_EQ(pma.SumAll(), sum);

      EXPECT_TRUE(collect(200, 100).empty());  // min > max
      EXPECT_TRUE(drain(200, 100).empty());
      EXPECT_TRUE(collect(4, 5).empty());  // a gap between keys
      EXPECT_TRUE(drain(4, 5).empty());
      EXPECT_TRUE(collect(6001, kKeyMax - 1).empty());
      EXPECT_EQ(collect(kKeyMax, kKeyMax), std::vector<Key>{kKeyMax});
      EXPECT_EQ(drain(kKeyMax, kKeyMax), std::vector<Key>{kKeyMax});
      EXPECT_EQ(collect(kKeyMin, kKeyMin), std::vector<Key>{kKeyMin});

      for (Key lo : {Key{0}, Key{1}, Key{3}, Key{4}, Key{95}, Key{96},
                     Key{1000}, Key{5999}, Key{6000}}) {
        for (Key span : {Key{0}, Key{1}, Key{2}, Key{50}, Key{300},
                         Key{10000}}) {
          const Key hi = lo + span;
          const std::vector<Key> want(keys.lower_bound(lo),
                                      keys.upper_bound(hi));
          EXPECT_EQ(collect(lo, hi), want) << "[" << lo << ", " << hi << "]";
          EXPECT_EQ(drain(lo, hi), want) << "[" << lo << ", " << hi << "]";
        }
      }
    });
  }
}

TEST(OptimisticRead, ForcedFallbackMatchesBlocking) {
  ScopedEnv env("CPMA_OPTIMISTIC_RETRIES", "0");
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  ASSERT_EQ(pma.optimistic_retries(), 0);
  RunTornReadHammer(&pma, /*num_writers=*/2, /*num_readers=*/2,
                    /*rounds=*/120);
  // Every read took the blocking latch; none validated optimistically.
  EXPECT_GT(pma.num_read_fallbacks(), 0u);
  EXPECT_EQ(pma.num_optimistic_gate_reads(), 0u);
}

TEST(OptimisticRead, QuiescentReadsNeverFallBack) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  constexpr Key kN = 4096;
  for (Key k = 1; k <= kN; ++k) pma.Insert(k, ValueFor(k));
  pma.Flush();

  std::vector<std::thread> readers;
  std::atomic<uint64_t> misses{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (Key k = static_cast<Key>(t) + 1; k <= kN; k += 4) {
        Value v = 0;
        if (!pma.Find(k, &v) || v != ValueFor(k)) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
      uint64_t count = 0;
      pma.Scan(1, kN, [&](Key, Value) {
        ++count;
        return true;
      });
      if (count != kN) misses.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0u);
  // No mutators: every window validates on the first attempt, so the
  // blocking path must never have been taken.
  EXPECT_EQ(pma.num_read_fallbacks(), 0u);
  EXPECT_GT(pma.num_optimistic_gate_reads(), 0u);
}

TEST(OptimisticRead, EnvKnobOverridesConfig) {
  {
    ScopedEnv env("CPMA_OPTIMISTIC_RETRIES", "3");
    ConcurrentPMA pma;
    EXPECT_EQ(pma.optimistic_retries(), 3);
  }
  ConcurrentConfig cfg;
  EXPECT_EQ(cfg.optimistic_retries, 8);
  cfg.optimistic_retries = 2;
  ConcurrentPMA pma(cfg);
  EXPECT_EQ(pma.optimistic_retries(), 2);
}

}  // namespace
}  // namespace cpma
