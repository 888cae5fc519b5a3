// Benchmark driver reproducing the paper's evaluation methodology (§4):
// a pool of updater threads and a pool of scanner threads run against one
// OrderedMap; updaters draw keys from the uniform or Zipfian distribution
// over [1, 2^27]; scanners repeatedly fold the whole structure in sorted
// order. Reported numbers are elements/second, separately for updates
// and scans, exactly like Figure 3's paired panels.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hotpath/cpu_dispatch.h"
#include "common/ordered_map.h"
#include "common/pin.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "concurrent/event_ring.h"

// Git revision baked in by bench/CMakeLists.txt (git describe
// --always --dirty at configure time) so every emitted record names the
// build it measured; "unknown" outside a git checkout.
#ifndef CPMA_GIT_SHA
#define CPMA_GIT_SHA "unknown"
#endif

namespace cpma::bench {

enum class Dist { kUniform, kZipf1, kZipf15, kZipf2 };

inline const char* DistName(Dist d) {
  switch (d) {
    case Dist::kUniform: return "uniform";
    case Dist::kZipf1: return "zipf-1.0";
    case Dist::kZipf15: return "zipf-1.5";
    case Dist::kZipf2: return "zipf-2.0";
  }
  return "?";
}

inline KeyDistribution MakeDist(Dist d, uint64_t range) {
  switch (d) {
    case Dist::kUniform: return KeyDistribution::Uniform(range);
    case Dist::kZipf1: return KeyDistribution::Zipf(range, 1.0);
    case Dist::kZipf15: return KeyDistribution::Zipf(range, 1.5);
    case Dist::kZipf2: return KeyDistribution::Zipf(range, 2.0);
  }
  return KeyDistribution::Uniform(range);
}

struct WorkloadConfig {
  size_t num_ops = 1 << 21;            // paper: 1G; scaled (see --ops)
  uint64_t key_range = 1ull << 27;     // beta in the paper
  Dist dist = Dist::kUniform;
  int update_threads = 16;
  int scan_threads = 0;
  bool mixed = false;                  // fig 3 d-f: insert/delete rounds
  size_t preload = 0;                  // elements before measuring
  uint64_t seed = 42;
};

// ------------------------------------------------------- latency (ISSUE 8)
//
// Throughput alone hides tail pathologies: a rebalance stall or a
// coalescing-buffer age flush shows up as a p99.9 spike long before it
// moves the mean. Every workload therefore samples per-op latency into
// a log-bucketed histogram (4 sub-buckets per power of two — <= 19%
// relative bucket width — 64 octaves, so the whole uint64 ns range fits
// in 256 counters) and the drivers report p50/p99/p999 per op type in
// their JSON records. Sampled (1 op in 32), not exhaustive: two clock
// reads per sampled op keeps the probe overhead ~3% of ops instead of
// doubling the cost of a 100ns upsert.

class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 256;

  void Record(uint64_t ns) {
    ++buckets_[BucketOf(ns)];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Upper bound (ns) of the bucket holding the p-quantile sample,
  /// p in [0, 1]. 0 when the histogram is empty.
  uint64_t PercentileNs(double p) const {
    if (count_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_));
    if (rank >= count_) rank = count_ - 1;
    uint64_t seen = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      seen += buckets_[b];
      if (seen > rank) return BucketHighNs(b);
    }
    return BucketHighNs(kNumBuckets - 1);
  }

 private:
  static int BucketOf(uint64_t ns) {
    if (ns < 4) return static_cast<int>(ns);
    const int msb = 63 - __builtin_clzll(ns);
    return (msb << 2) |
           static_cast<int>((ns >> (msb - 2)) & 3);  // 2 mantissa bits
  }
  static uint64_t BucketHighNs(int b) {
    if (b < 4) return static_cast<uint64_t>(b);
    const int msb = b >> 2;
    const uint64_t low = (1ull << msb) |
                         (static_cast<uint64_t>(b & 3) << (msb - 2));
    return low + (1ull << (msb - 2)) - 1;
  }

  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
};

/// Sample 1 op in kLatencySampleEvery (power of two) for the histogram.
constexpr size_t kLatencySampleEvery = 32;

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -------------------------------------------------- tail attribution
//
// ISSUE 10: percentiles say HOW BAD the tail is, not WHY. TailRecorder
// keeps the K slowest sampled op windows of a run; after the run, each
// window is matched against the mechanism events the structure recorded
// into TailEventRing (read fallbacks, rebalance windows, resizes,
// coalescing flushes, watchdog stalls) by time overlap. Each tail op is
// attributed to the highest-priority overlapping mechanism — stall >
// resize > rebalance > flush > fallback — because the heavier mechanism
// subsumes the lighter one (a resize implies fallbacks under it).
// Best-effort by design: the ring is bounded (overwritten events blur
// attribution, never crash it) and overlap is correlation, not proof.

class TailRecorder {
 public:
  explicit TailRecorder(size_t k = 512) : k_(k) {}

  struct OpWindow {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t dur_ns() const { return end_ns - start_ns; }
  };

  /// Offer one sampled op window; keeps the k slowest seen so far.
  void Offer(uint64_t start_ns, uint64_t end_ns) {
    const uint64_t dur = end_ns - start_ns;
    if (wins_.size() < k_) {
      wins_.push_back({start_ns, end_ns});
      if (wins_.size() == k_) BuildHeap();
      return;
    }
    if (dur <= wins_.front().dur_ns()) return;
    PopMin();
    wins_.back() = {start_ns, end_ns};
    PushLast();
  }

  void Merge(const TailRecorder& other) {
    for (const OpWindow& w : other.wins_) Offer(w.start_ns, w.end_ns);
  }

  struct Attribution {
    uint64_t stall = 0;      // overlapped a watchdog-stall trip
    uint64_t resize = 0;     // overlapped a resize span
    uint64_t rebalance = 0;  // overlapped a window-rebalance span
    uint64_t flush = 0;      // overlapped a coalescing-flush dispatch
    uint64_t fallback = 0;   // overlapped a seqlock read fallback
    uint64_t none = 0;       // no recorded mechanism overlapped
    uint64_t ops = 0;        // tail ops attributed (== sum of above)
    uint64_t threshold_ns = 0;  // fastest op that still made the tail set
  };

  /// Attribute the kept windows against drained ring events. O(K * E);
  /// both are bounded small (K <= 512, E <= ring capacity).
  Attribution Attribute(const std::vector<TailEventRecord>& events) const {
    Attribution a;
    a.ops = wins_.size();
    for (const OpWindow& w : wins_) {
      int best = -1;  // priority rank of the best overlapping event
      for (const TailEventRecord& e : events) {
        if (e.start_ns > w.end_ns || e.end_ns < w.start_ns) continue;
        best = std::max(best, Priority(e.type));
      }
      switch (best) {
        case 4: ++a.stall; break;
        case 3: ++a.resize; break;
        case 2: ++a.rebalance; break;
        case 1: ++a.flush; break;
        case 0: ++a.fallback; break;
        default: ++a.none; break;
      }
      a.threshold_ns = a.threshold_ns == 0
                           ? w.dur_ns()
                           : std::min(a.threshold_ns, w.dur_ns());
    }
    return a;
  }

  size_t size() const { return wins_.size(); }

 private:
  static int Priority(TailEvent t) {
    switch (t) {
      case TailEvent::kWatchdogStall: return 4;
      case TailEvent::kResize: return 3;
      case TailEvent::kRebalanceWindow: return 2;
      case TailEvent::kCoalesceFlush: return 1;
      case TailEvent::kReadFallback: return 0;
    }
    return -1;
  }

  // Min-heap on duration over wins_ (only once it reaches k_), so the
  // common case — a sampled op faster than the current floor — is one
  // comparison against wins_.front().
  void BuildHeap() {
    auto cmp = [](const OpWindow& a, const OpWindow& b) {
      return a.dur_ns() > b.dur_ns();
    };
    std::make_heap(wins_.begin(), wins_.end(), cmp);
  }
  void PopMin() {
    auto cmp = [](const OpWindow& a, const OpWindow& b) {
      return a.dur_ns() > b.dur_ns();
    };
    std::pop_heap(wins_.begin(), wins_.end(), cmp);
  }
  void PushLast() {
    auto cmp = [](const OpWindow& a, const OpWindow& b) {
      return a.dur_ns() > b.dur_ns();
    };
    std::push_heap(wins_.begin(), wins_.end(), cmp);
  }

  size_t k_;
  std::vector<OpWindow> wins_;
};

struct WorkloadResult {
  double update_mops = 0;   // updates per second, millions
  double scan_meps = 0;     // scanned elements per second, millions
  double seconds = 0;
  LatencyHistogram update_lat;  // sampled (1/32) per-update latency
  LatencyHistogram scan_lat;    // one sample per full scan pass
};

/// Run one cell of Figure 3: `update_threads` updaters apply num_ops
/// updates total (insert-only, or alternating insert/delete rounds when
/// mixed), while `scan_threads` scanners fold the structure continuously.
inline WorkloadResult RunWorkload(OrderedMap* map,
                                  const WorkloadConfig& cfg) {
  if (cfg.preload > 0) {
    // Parallel preload with uniform keys (paper: structure already
    // storing the data for the mixed runs).
    const int loaders = cfg.update_threads;
    std::vector<std::thread> pre;
    for (int t = 0; t < loaders; ++t) {
      pre.emplace_back([&, t] {
        Random rng(cfg.seed + 1000 + static_cast<uint64_t>(t));
        auto dist = MakeDist(cfg.dist, cfg.key_range);
        const size_t n = cfg.preload / loaders;
        for (size_t i = 0; i < n; ++i) {
          map->Insert(dist.Sample(rng), i);
        }
      });
    }
    for (auto& t : pre) t.join();
    map->Flush();
  }

  std::atomic<bool> stop_scanners{false};
  std::atomic<uint64_t> scanned{0};
  std::atomic<uint64_t> update_count{0};
  std::vector<std::thread> threads;

  WorkloadResult r;
  std::mutex lat_mu;  // serializes per-thread histogram merges at exit

  Timer timer;
  for (int t = 0; t < cfg.update_threads; ++t) {
    threads.emplace_back([&, t] {
      PinThisThread(static_cast<unsigned>(t));
      Random rng(cfg.seed + static_cast<uint64_t>(t));
      auto dist = MakeDist(cfg.dist, cfg.key_range);
      LatencyHistogram lat;
      auto insert_sampled = [&](size_t i, Key key, Value value) {
        if ((i & (kLatencySampleEvery - 1)) == 0) {
          const uint64_t t0 = NowNanos();
          map->Insert(key, value);
          lat.Record(NowNanos() - t0);
        } else {
          map->Insert(key, value);
        }
      };
      const size_t n = cfg.num_ops / static_cast<size_t>(cfg.update_threads);
      if (!cfg.mixed) {
        for (size_t i = 0; i < n; ++i) {
          insert_sampled(i, dist.Sample(rng), i);
        }
        update_count.fetch_add(n, std::memory_order_relaxed);
      } else {
        // Rounds of insertions followed by the same deletions (paper:
        // 16M inserts then 16M deletes, ~1.5% of the initial size).
        const size_t round = std::max<size_t>(n / 8, 1);
        size_t done = 0;
        std::vector<Key> keys(round);
        while (done < n) {
          const size_t batch = std::min(round, (n - done) / 2 + 1);
          for (size_t i = 0; i < batch; ++i) {
            keys[i] = dist.Sample(rng);
            insert_sampled(i, keys[i], i);
          }
          for (size_t i = 0; i < batch; ++i) {
            if ((i & (kLatencySampleEvery - 1)) == 0) {
              const uint64_t t0 = NowNanos();
              map->Remove(keys[i]);
              lat.Record(NowNanos() - t0);
            } else {
              map->Remove(keys[i]);
            }
          }
          done += 2 * batch;
        }
        update_count.fetch_add(done, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lk(lat_mu);
      r.update_lat.Merge(lat);
    });
  }
  std::vector<std::thread> scanners;
  for (int t = 0; t < cfg.scan_threads; ++t) {
    scanners.emplace_back([&, t] {
      PinThisThread(static_cast<unsigned>(cfg.update_threads + t));
      uint64_t local = 0;
      LatencyHistogram lat;
      while (!stop_scanners.load(std::memory_order_relaxed)) {
        const size_t size_now = map->Size();
        const uint64_t t0 = NowNanos();
        volatile uint64_t sink = map->SumAll();
        lat.Record(NowNanos() - t0);
        (void)sink;
        local += size_now;
      }
      scanned.fetch_add(local, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(lat_mu);
      r.scan_lat.Merge(lat);
    });
  }
  for (auto& t : threads) t.join();
  map->Flush();
  const double secs = timer.ElapsedSeconds();
  stop_scanners.store(true);
  for (auto& t : scanners) t.join();

  r.seconds = secs;
  r.update_mops =
      static_cast<double>(update_count.load()) / secs / 1e6;
  r.scan_meps = static_cast<double>(scanned.load()) / secs / 1e6;
  return r;
}

/// Minimal --flag=value parser for the bench binaries.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto eq = arg.find('=');
      if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
        kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }
  std::string Get(const std::string& k, const std::string& def) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? def : it->second;
  }
  uint64_t GetInt(const std::string& k, uint64_t def) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? def : std::stoull(it->second);
  }

 private:
  std::map<std::string, std::string> kv_;
};

// ------------------------------------------------------------- JSON out
//
// `--json=<path>` on any figure/ablation driver emits one flat record
// per measured workload — the knobs that produced the number next to the
// number itself, plus the git sha and the hot-path dispatch — so
// BENCH_*.json trajectories can be tracked across PRs (ROADMAP).
// Concurrent-PMA drivers also attach observability counters (storage
// publish mechanism, optimistic read path, and — since ISSUE 6 — the
// ebr_* epoch-reclamation stats); every such field is VOLATILE for
// scripts/bench_diff.py, never part of a record's identity.
// bench_micro routes the same flag through google-benchmark's native
// JSON reporter instead (see bench_micro.cc).

/// One record: ordered key/value pairs, values pre-serialized as JSON.
class JsonRecord {
 public:
  JsonRecord& Str(const std::string& k, const std::string& v) {
    std::string out = "\"";
    for (char c : v) {  // controlled identifiers; escape just in case
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    fields_.emplace_back(k, std::move(out));
    return *this;
  }
  JsonRecord& Num(const std::string& k, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    fields_.emplace_back(k, buf);
    return *this;
  }
  JsonRecord& Int(const std::string& k, uint64_t v) {
    fields_.emplace_back(k, std::to_string(v));
    return *this;
  }
  JsonRecord& Bool(const std::string& k, bool v) {
    fields_.emplace_back(k, v ? "true" : "false");
    return *this;
  }

 private:
  friend class BenchJson;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Attach a workload's sampled latency percentiles under `prefix`
/// (e.g. "update" -> update_p50_ns/update_p99_ns/update_p999_ns and
/// update_lat_samples). The `_ns`/`_lat_samples` suffixes are VOLATILE
/// in scripts/bench_diff.py — measurements, never record identity.
inline JsonRecord& AddLatencyFields(JsonRecord& rec,
                                    const std::string& prefix,
                                    const LatencyHistogram& lat) {
  if (lat.count() == 0) return rec;
  return rec.Int(prefix + "_p50_ns", lat.PercentileNs(0.50))
      .Int(prefix + "_p99_ns", lat.PercentileNs(0.99))
      .Int(prefix + "_p999_ns", lat.PercentileNs(0.999))
      .Int(prefix + "_lat_samples", lat.count());
}

/// Attach a tail-attribution breakdown (ISSUE 10) under the `tail_`
/// prefix, plus the per-mechanism event counts the ring saw during the
/// run under `ev_`. Both prefixes are VOLATILE in scripts/bench_diff.py
/// — measurements of what the structure did, never record identity.
inline JsonRecord& AddTailFields(JsonRecord& rec,
                                 const TailRecorder::Attribution& a,
                                 const TailEventRing& ring) {
  rec.Int("tail_ops", a.ops)
      .Int("tail_thresh_ns", a.threshold_ns)
      .Int("tail_attr_stall", a.stall)
      .Int("tail_attr_resize", a.resize)
      .Int("tail_attr_rebalance", a.rebalance)
      .Int("tail_attr_flush", a.flush)
      .Int("tail_attr_fallback", a.fallback)
      .Int("tail_attr_none", a.none);
  return rec.Int("ev_read_fallbacks", ring.count(TailEvent::kReadFallback))
      .Int("ev_rebalances", ring.count(TailEvent::kRebalanceWindow))
      .Int("ev_resizes", ring.count(TailEvent::kResize))
      .Int("ev_flushes", ring.count(TailEvent::kCoalesceFlush))
      .Int("ev_stalls", ring.count(TailEvent::kWatchdogStall));
}

/// Attach where the workload's threads actually ran (ISSUE 8): the
/// allowed-CPU/topology summary from common/pin.h. A scaling curve from
/// a 1-core container and one from a 32-core box must not be comparable
/// records without this evidence attached. All VOLATILE in
/// scripts/bench_diff.py.
inline JsonRecord& AddPlacementFields(JsonRecord& rec) {
  const CpuTopology& topo = Topology();
  return rec.Int("host_cpus", static_cast<uint64_t>(topo.num_cpus))
      .Int("host_cores", static_cast<uint64_t>(topo.num_cores))
      .Bool("smt", topo.smt)
      .Str("pin_order", TopologySummary());
}

/// Collects records and writes them as a JSON array on Write(). With no
/// --json flag the collection is kept but never written (negligible
/// cost, keeps call sites unconditional).
class BenchJson {
 public:
  BenchJson(const Flags& flags, std::string bench)
      : path_(flags.Get("json", "")),
        jsonl_path_(flags.Get("jsonl", "")),
        bench_(std::move(bench)) {}

  bool enabled() const { return !path_.empty() || !jsonl_path_.empty(); }

  /// New record pre-filled with the bench name, git sha and dispatch.
  JsonRecord& Add() {
    records_.emplace_back();
    return records_.back()
        .Str("bench", bench_)
        .Str("git_sha", CPMA_GIT_SHA)
        .Str("dispatch", hotpath::ActiveDispatchName());
  }

  /// Write the array (--json) and/or append one record per line
  /// (--jsonl, the nightly-artifact shape — appends across invocations
  /// so a soak accumulates a trend file). Returns false on I/O failure.
  bool Write() const {
    if (!path_.empty()) {
      std::FILE* f = std::fopen(path_.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "bench: cannot open --json path %s\n",
                     path_.c_str());
        return false;
      }
      std::fputs("[\n", f);
      for (size_t r = 0; r < records_.size(); ++r) {
        std::fputs("  {", f);
        WriteFields(f, records_[r]);
        std::fprintf(f, "}%s\n", r + 1 == records_.size() ? "" : ",");
      }
      std::fputs("]\n", f);
      std::fclose(f);
      std::printf("# wrote %zu record(s) to %s\n", records_.size(),
                  path_.c_str());
    }
    if (!jsonl_path_.empty()) {
      std::FILE* f = std::fopen(jsonl_path_.c_str(), "a");
      if (f == nullptr) {
        std::fprintf(stderr, "bench: cannot open --jsonl path %s\n",
                     jsonl_path_.c_str());
        return false;
      }
      for (const JsonRecord& rec : records_) {
        std::fputs("{", f);
        WriteFields(f, rec);
        std::fputs("}\n", f);
      }
      std::fclose(f);
      std::printf("# appended %zu record(s) to %s\n", records_.size(),
                  jsonl_path_.c_str());
    }
    return true;
  }

 private:
  static void WriteFields(std::FILE* f, const JsonRecord& rec) {
    for (size_t i = 0; i < rec.fields_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                   rec.fields_[i].first.c_str(),
                   rec.fields_[i].second.c_str());
    }
  }

  std::string path_;
  std::string jsonl_path_;
  std::string bench_;
  std::vector<JsonRecord> records_;
};

}  // namespace cpma::bench
