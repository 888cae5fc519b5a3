// The benchmark's own tests: histogram accuracy, that the output checks
// catch a broken OrderedMap, and that op streams are a pure function of
// the seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <vector>

#include "client.h"

namespace pmabench {
namespace {

TEST(Histogram, PercentilesWithinOneBucketOfExact) {
  Rng rng(42);
  std::vector<uint64_t> samples;
  Histogram h;
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform over [1 ns, ~1 s], plus a cluster of exact small values.
    const uint64_t v = i % 10 == 0
                           ? rng.Below(64)
                           : static_cast<uint64_t>(std::exp(rng.Unit() * 20.7));
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  ASSERT_EQ(h.count(), samples.size());
  for (double q : {0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const uint64_t exact = samples[rank - 1];
    const size_t b = Histogram::Index(exact);
    const double width =
        static_cast<double>(Histogram::Upper(b) - Histogram::Lower(b));
    EXPECT_LE(std::fabs(h.Percentile(q) - static_cast<double>(exact)), width)
        << "q=" << q;
  }
}

TEST(Histogram, BucketsAreAtMostOneSixtyFourthWide) {
  for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    const uint64_t lo = Histogram::Lower(i), hi = Histogram::Upper(i);
    ASSERT_EQ(hi, Histogram::Lower(i + 1)) << i;  // contiguous
    ASSERT_EQ(Histogram::Index(lo), i);
    ASSERT_EQ(Histogram::Index(hi - 1), i);
    if (lo >= Histogram::kSub) {
      EXPECT_LE(static_cast<double>(hi - lo) / static_cast<double>(lo),
                1.0 / 64.0);
    }
  }
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  for (uint64_t v = 1; v <= 100; ++v) a.Record(v);
  for (uint64_t v = 101; v <= 200; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_NEAR(a.Percentile(0.5), 100, 1);
}

/// A single-threaded OrderedMap over std::map that can be told to
/// misbehave.
class FaultyMap : public OrderedMap {
 public:
  enum class Fault { kNone, kSwapScan, kLoseKey };
  FaultyMap(Fault fault, Key lost) : fault_(fault), lost_(lost) {}

  void Insert(Key k, Value v) override { m_[k] = v; }
  void Remove(Key k) override { m_.erase(k); }
  bool Find(Key k, Value* v) const override {
    if (fault_ == Fault::kLoseKey && k == lost_) return false;
    auto it = m_.find(k);
    if (it == m_.end()) return false;
    *v = it->second;
    return true;
  }
  uint64_t SumAll() const override {
    uint64_t s = 0;
    for (const auto& kv : m_) s += kv.second;
    return s;
  }
  void Scan(Key min, Key max, const cpma::ScanCallback& cb) const override {
    std::vector<std::pair<Key, Value>> out;
    for (auto it = m_.lower_bound(min); it != m_.end() && it->first <= max;
         ++it) {
      if (fault_ == Fault::kLoseKey && it->first == lost_) continue;
      out.push_back(*it);
      if (out.size() >= 2 * kMaxScanLen) break;
    }
    if (fault_ == Fault::kSwapScan && out.size() >= 3) {
      std::swap(out[1], out[2]);
    }
    for (const auto& kv : out) {
      if (!cb(kv.first, kv.second)) return;
    }
  }
  size_t Size() const override { return m_.size(); }
  std::string Name() const override { return "faulty"; }

 private:
  Fault fault_;
  Key lost_;
  std::map<Key, Value> m_;
};

constexpr uint64_t kTestRecords = 20000;

uint64_t FailedOps(char mix, FaultyMap::Fault fault, Key lost) {
  FaultyMap map(fault, lost);
  for (uint64_t r = 1; r <= kTestRecords; ++r) {
    map.Insert(PreloadKey(mix, r), ValueFor(PreloadKey(mix, r)));
  }
  YcsbStream s(mix, kTestRecords, 0, 1, 7);
  Client c;
  const std::atomic<bool> stop{false};
  RunYcsbClient<false>(map, s, mix, kTestRecords, c, stop, 50000);
  EXPECT_EQ(c.ops(), 50000u);
  return c.failed;
}

TEST(Checks, CorrectMapPasses) {
  EXPECT_EQ(FailedOps('D', FaultyMap::Fault::kNone, 0), 0u);
  EXPECT_EQ(FailedOps('E', FaultyMap::Fault::kNone, 0), 0u);
}

TEST(Checks, MissingPreloadedKeyIsFlagged) {
  // Until a client's first insert, the latest chooser reads the top of
  // the preload most.
  EXPECT_GT(FailedOps('D', FaultyMap::Fault::kLoseKey,
                      PreloadKey('D', kTestRecords)),
            0u);
  // A scan that skips a key returns the wrong items.
  EXPECT_GT(FailedOps('E', FaultyMap::Fault::kLoseKey, 1 + Mix64(1) %
                                                           kTestRecords),
            0u);
}

TEST(Checks, OutOfOrderScanIsFlagged) {
  EXPECT_GT(FailedOps('E', FaultyMap::Fault::kSwapScan, 0), 0u);
}

TEST(Checks, ShortScanLengthAndOrder) {
  std::vector<cpma::Item> got = {{5, ValueFor(5)}, {6, ValueFor(6)}};
  EXPECT_TRUE(ShortScanCorrect(got, 5, 2, 100));
  EXPECT_TRUE(ShortScanCorrect(got, 5, 9, 6));     // ran out of keys
  EXPECT_FALSE(ShortScanCorrect(got, 5, 3, 100));  // stopped early
  EXPECT_FALSE(ShortScanCorrect(got, 5, 1, 100));  // overran its length
  got[1].value = 0;
  EXPECT_FALSE(ShortScanCorrect(got, 5, 2, 100));  // value never written
}

std::vector<Op> Ops(char mix, int client, uint64_t seed) {
  YcsbStream s(mix, kTestRecords, client, 4, seed);
  std::vector<Op> ops;
  for (int i = 0; i < 100000; ++i) ops.push_back(s.Next());
  return ops;
}

TEST(Streams, SameSeedSameOpsOtherSeedOtherOps) {
  for (char mix : {'D', 'E'}) {
    EXPECT_EQ(Ops(mix, 1, 7), Ops(mix, 1, 7)) << mix;
    EXPECT_NE(Ops(mix, 1, 7), Ops(mix, 1, 8)) << mix;
    EXPECT_NE(Ops(mix, 1, 7), Ops(mix, 2, 7)) << mix;
  }
  auto ingest = [](int client, uint64_t seed) {
    IngestStream s(client, seed);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 100000; ++i) keys.push_back(s.Next());
    return keys;
  };
  EXPECT_EQ(ingest(0, 7), ingest(0, 7));
  EXPECT_NE(ingest(0, 7), ingest(0, 8));
  EXPECT_NE(ingest(0, 7), ingest(1, 7));
}

TEST(Streams, MixProportionsAndBounds) {
  for (char mix : {'D', 'E'}) {
    const std::vector<Op> ops = Ops(mix, 0, 3);
    size_t inserts = 0;
    for (const Op& op : ops) {
      ASSERT_GE(op.key, 1u);
      if (op.kind == OpKind::kInsert) {
        ++inserts;
        EXPECT_GT(op.key, kTestRecords);
      } else if (mix == 'E') {
        EXPECT_LE(op.key, kTestRecords);
        EXPECT_GE(op.scan_len, 1u);
        EXPECT_LE(op.scan_len, kMaxScanLen);
      }
    }
    EXPECT_NEAR(static_cast<double>(inserts) / ops.size(), 0.05, 0.005);
  }
}

}  // namespace
}  // namespace pmabench
