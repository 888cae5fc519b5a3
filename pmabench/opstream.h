// Seeded op-stream generators for the three benchmark workloads.
//
// The benchmark owns its generators instead of reusing the library's
// common/random.h and common/zipf.h or bench/workloads.h: a change to
// library or driver code must never change the inputs the benchmark
// measures. Every stream is a pure function of (workload, seed, client),
// so two runs with one seed issue identical ops.
//
//   load    records 1..n in a seeded random order         (YCSB load)
//   ycsb-d  95% Find / 5% Insert, "latest" key chooser   (YCSB mix D)
//   ycsb-e  95% Scan / 5% Insert, zipfian start key,      (YCSB mix E)
//           scan length uniform in [1, 100]
//   ingest  Insert of keys uniform in [1, 2^27]            (paper Fig. 3)

#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace pmabench {

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The value every workload writes for `key`; reads check against it.
/// Never 0, so a zeroed slot cannot pass for a written value.
inline uint64_t ValueFor(uint64_t key) { return Mix64(key) | 1; }

/// xoshiro256** seeded through Mix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& w : s_) w = seed = Mix64(seed);
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound), bound > 0 (Lemire's multiply-shift).
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// Zipf over [1, n] with exponent theta != 1 by rejection-inversion
/// (Hörmann & Derflinger); 1 is the most frequent value.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    h_x1_ = H(1.5) - 1.0;
    h_n_ = H(static_cast<double>(n) + 0.5);
    s_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -theta_));
  }

  uint64_t Sample(Rng& rng) const {
    for (;;) {
      const double u = h_n_ + rng.Unit() * (h_x1_ - h_n_);
      const double x = HInverse(u);
      uint64_t k = static_cast<uint64_t>(x + 0.5);
      if (k < 1) k = 1;
      if (k > n_) k = n_;
      const double kd = static_cast<double>(k);
      if (kd - x <= s_ || u >= H(kd + 0.5) - std::pow(kd, -theta_)) return k;
    }
  }

 private:
  double H(double x) const {
    return (std::pow(x, 1.0 - theta_) - 1.0) / (1.0 - theta_);
  }
  double HInverse(double u) const {
    return std::pow(1.0 + u * (1.0 - theta_), 1.0 / (1.0 - theta_));
  }

  uint64_t n_;
  double theta_;
  double h_x1_, h_n_, s_;
};

/// YCSB's zipfian constant.
constexpr double kZipfTheta = 0.99;
constexpr uint32_t kMaxScanLen = 100;
/// Key domain of the ingest workload (paper: uniform over [1, 2^27]).
constexpr uint64_t kIngestDomain = uint64_t{1} << 27;

enum class OpKind : uint8_t { kRead, kInsert };

struct Op {
  OpKind kind = OpKind::kRead;
  uint64_t key = 0;
  uint32_t scan_len = 0;  // mix E reads only
};

inline bool operator==(const Op& a, const Op& b) {
  return a.kind == b.kind && a.key == b.key && a.scan_len == b.scan_len;
}

inline uint64_t StreamSeed(uint64_t seed, char workload, int client) {
  return Mix64(seed ^ Mix64(static_cast<uint64_t>(workload) << 32 ^
                            static_cast<uint64_t>(client)));
}

/// Low key bits mix D leaves free below each preloaded key, for the keys
/// it inserts there.
constexpr int kGapBits = 24;

/// Key of record r, in [1, records], of a mix's preload. Mix E preloads
/// 1..records, so the answer to a short scan is a dense range; mix D
/// spaces its records 2^kGapBits apart, so that its inserts land among
/// them.
inline uint64_t PreloadKey(char mix, uint64_t r) {
  return mix == 'D' ? r << kGapBits : r;
}

/// One client's stream of YCSB mix D or E over a preload of `records`
/// records. The i-th insert of a client is insert j = client + i *
/// clients of all, so clients never collide and the set of inserted keys
/// is known from each client's insert count alone. Mix E inserts j above
/// the preload; mix D, in YCSB's default hashed order, into a
/// pseudo-random gap of the preload, with j + 1 in the low bits (distinct
/// while a window inserts fewer than 2^kGapBits keys; the final-state
/// check would catch a collision).
class YcsbStream {
 public:
  YcsbStream(char mix, uint64_t records, int client, int clients,
             uint64_t seed)
      : mix_(mix),
        records_(records),
        client_(static_cast<uint64_t>(client)),
        clients_(static_cast<uint64_t>(clients)),
        rng_(StreamSeed(seed, mix, client)),
        zipf_(records, kZipfTheta) {}

  Op Next() {
    Op op;
    if (rng_.Below(100) < 5) {
      op.kind = OpKind::kInsert;
      op.key = InsertKey(inserted_++);
      return op;
    }
    if (mix_ == 'D') {
      // Latest: the back-th newest key this client knows is in the map,
      // its own inserts newest first and then the preload from the top,
      // so every read must hit: YCSB's latest chooser likewise reads
      // only acknowledged inserts. Reading other clients' fresh keys
      // would make the hit share, and with it the work, depend on how
      // far the clients happen to be apart.
      const uint64_t back = zipf_.Sample(rng_) - 1;  // < records_
      op.key = back < inserted_
                   ? InsertKey(inserted_ - 1 - back)
                   : PreloadKey(mix_, records_ - (back - inserted_));
    } else {
      // Scrambled zipfian start key, as YCSB hashes the rank: unscrambled,
      // every hot key would sit in the first gate.
      op.key = 1 + Mix64(zipf_.Sample(rng_)) % records_;
      op.scan_len = 1 + static_cast<uint32_t>(rng_.Below(kMaxScanLen));
    }
    return op;
  }

  uint64_t InsertKey(uint64_t i) const {
    const uint64_t j = client_ + i * clients_;
    if (mix_ == 'D') {
      return PreloadKey(mix_, 1 + Mix64(j) % records_) | (j + 1);
    }
    return records_ + 1 + j;
  }
  uint64_t inserted() const { return inserted_; }

 private:
  char mix_;
  uint64_t records_;
  uint64_t client_;
  uint64_t clients_;
  Rng rng_;
  Zipf zipf_;
  uint64_t inserted_ = 0;
};

/// The order of the YCSB preload: records 1..n (see PreloadKey) in a
/// seeded random order, as the YCSB load phase inserts its records in
/// hashed order, not by key. (In key order every insert lands in the
/// last gate, and in kSync mode the set-up waits on ~20k rebalancer
/// hand-offs, 70% of its time.)
inline std::vector<uint64_t> PreloadOrder(uint64_t n, uint64_t seed) {
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = i + 1;
  Rng rng(StreamSeed(seed, 'L', 0));
  for (uint64_t i = n; i > 1; --i) std::swap(keys[i - 1], keys[rng.Below(i)]);
  return keys;
}

/// One updater's stream of uniform keys for the ingest workload.
class IngestStream {
 public:
  IngestStream(int client, uint64_t seed)
      : rng_(StreamSeed(seed, 'I', client)) {}
  uint64_t Next() { return 1 + rng_.Below(kIngestDomain); }

 private:
  Rng rng_;
};

}  // namespace pmabench
