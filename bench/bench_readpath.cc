// Read-path benchmarks (ISSUE 4): the workloads the optimistic
// versioned-gate read path is for — multi-threaded point lookups (pure
// and 95/5 read-mostly, per-thread Zipf key streams) and full scans
// running against concurrent writers. The latched baseline serializes
// every reader on the gate mutex; the optimistic path turns a stable
// gate visit into two version loads around the existing SIMD search.
//
// Reported numbers are millions of operations (or scanned elements) per
// second, best of --reps repetitions per workload (max throughput ==
// least steal on shared/noisy hosts; same methodology as
// BENCH_PR2/PR3.json).
//
//   build/bench/bench_readpath --ops=2000000 --threads=4 --json=out.json
//   build/bench/bench_readpath --what=find,mixed --alpha=1.0

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "concurrent/concurrent_pma.h"
#include "driver.h"
#include "persist/checkpoint.h"

namespace cpma {
namespace {

using bench::BenchJson;
using bench::Flags;
using bench::JsonRecord;

struct Best {
  double mops = 0;
  double seconds = 0;
};

template <typename Fn>
Best BestOf(uint64_t reps, uint64_t items_per_rep, Fn&& fn) {
  Best best;
  for (uint64_t r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    const double secs = timer.ElapsedSeconds();
    const double mops = static_cast<double>(items_per_rep) / secs / 1e6;
    if (mops > best.mops) {
      best.mops = mops;
      best.seconds = secs;
    }
  }
  return best;
}

struct Knobs {
  uint64_t ops;
  uint64_t preload;
  uint64_t range;
  double alpha;  // 0 => uniform
  int threads;
  uint64_t reps;
  uint64_t seed;
  std::string mode;  // sync | 1by1 | batch
  bool strict;       // --strict=0: relaxed async ordering (A/B)
};

ConcurrentConfig MakeConfig(const Knobs& k) {
  ConcurrentConfig cfg;
  // Read-mostly workloads want their sparse writes applied inline:
  // sync mode avoids paying a rebalancer-thread handoff per insert,
  // which would swamp the read path this bench isolates.
  cfg.async_mode = ConcurrentConfig::AsyncMode::kSync;
  if (k.mode == "1by1") cfg.async_mode = ConcurrentConfig::AsyncMode::kOneByOne;
  if (k.mode == "batch") cfg.async_mode = ConcurrentConfig::AsyncMode::kBatch;
#if defined(CPMA_STRICT_ASYNC_ORDER)
  // Feature-gated like the observability fields: the driver also
  // compiles against pre-ISSUE-5 trees for the grafted-baseline
  // methodology, where the knob does not exist (those trees ARE the
  // relaxed contract).
  cfg.strict_async_order = k.strict;
#endif
  return cfg;
}

KeyDistribution MakeKeys(const Knobs& k) {
  return k.alpha > 0 ? KeyDistribution::Zipf(k.range, k.alpha)
                     : KeyDistribution::Uniform(k.range);
}

void Preload(ConcurrentPMA* pma, const Knobs& k) {
  std::vector<std::thread> loaders;
  for (int t = 0; t < k.threads; ++t) {
    loaders.emplace_back([&, t] {
      Random rng(k.seed + 1000 + static_cast<uint64_t>(t));
      auto dist = KeyDistribution::Uniform(k.range);
      const uint64_t n = k.preload / static_cast<uint64_t>(k.threads);
      for (uint64_t i = 0; i < n; ++i) pma->Insert(dist.Sample(rng), i);
    });
  }
  for (auto& t : loaders) t.join();
  pma->Flush();
}

void Report(BenchJson* json, const ConcurrentPMA& pma, const Knobs& k,
            const char* workload, const Best& best, const char* metric,
            const bench::LatencyHistogram* lat = nullptr,
            const char* lat_prefix = "op") {
  std::printf("%-20s %3d thr  a=%.1f  %10.3f M%s/s  (best rep %.4fs)\n",
              workload, k.threads, k.alpha, best.mops, metric, best.seconds);
  JsonRecord& rec = json->Add()
                        .Str("workload", workload)
                        .Str("mode", k.mode)
                        .Int("threads", static_cast<uint64_t>(k.threads))
                        .Num("alpha", k.alpha)
                        .Int("range", k.range)
                        .Int("preload", k.preload)
                        .Int("ops", k.ops)
                        .Num("seconds", best.seconds);
  if (std::string(metric) == "el") {
    rec.Num("scan_meps", best.mops);
  } else {
    rec.Num("update_mops", best.mops);
  }
  // Sampled per-op tail latency (ISSUE 8; accumulated over ALL reps,
  // not just the best one — tails from a slow rep are signal, not
  // noise) and the host placement the numbers were measured on. All
  // VOLATILE for bench_diff matching.
  if (lat != nullptr) bench::AddLatencyFields(rec, lat_prefix, *lat);
  bench::AddPlacementFields(rec);
  // Observability: which publish mechanism / page size / read path this
  // run actually measured (all VOLATILE for bench_diff matching).
  rec.Bool("rewired", pma.config().pma.use_rewiring);
  rec.Bool("rewiring_active", pma.storage_rewiring_enabled())
      .Int("page_bytes", pma.storage_page_bytes())
      .Int("backing_page_bytes", pma.storage_backing_page_bytes())
      .Int("num_remaps", pma.storage_num_remaps())
      .Int("fallback_copies", pma.storage_num_fallback_copies())
      .Int("read_fallbacks", pma.num_read_fallbacks())
      .Int("optimistic_gate_reads", pma.num_optimistic_gate_reads())
      .Int("optimistic_retries",
           static_cast<uint64_t>(pma.optimistic_retries()));
#if defined(CPMA_STRICT_ASYNC_ORDER)
  // Identity knob only when off the default, so default-strict records
  // keep matching pre-ISSUE-5 baselines (bench_diff identity is
  // field-exact) while --strict=0 A/B records split into their own.
  if (!k.strict) rec.Bool("strict_async_order", false);
  rec.Int("reroutes", pma.num_reroutes());
#endif
  // Epoch-reclamation observability (ISSUE 6, all VOLATILE): garbage
  // still pending, the retired-bytes high-water mark, and how often the
  // epoch advanced / the collector ran during the measured reps.
  {
    const EpochGCStats ebr = pma.ebr_stats();
    rec.Int("ebr_pending", ebr.pending_count)
        .Int("ebr_pending_bytes", ebr.pending_bytes)
        .Int("ebr_retired_bytes_hwm", ebr.retired_bytes_hwm)
        .Int("ebr_epoch_advances", ebr.epoch_advances)
        .Int("ebr_collections", ebr.collections);
  }
  // Fault-tolerance observability (ISSUE 7, all VOLATILE): whether the
  // run measured the copy-publish fallback backend, and the degradation
  // counters — a healthy fault-free bench run must report zeros here,
  // which is exactly what makes a nonzero in a perf regression report
  // diagnostic (the "regression" was a degraded run, not a slower tree).
  rec.Bool("fallback_backend_active", pma.fallback_backend_active())
      .Int("failpoint_fires", failpoint::TotalFires())
      .Int("rebalance_retries", pma.num_rebalance_retries())
      .Int("watchdog_trips", pma.num_watchdog_trips());
  // Durability-tier observability (ISSUE 9, all VOLATILE): open COW
  // snapshots and the file-page bytes they retain (a fault-free bench
  // run takes no snapshots, so nonzero retention flags a run whose
  // readers measured COW pressure), plus the process-global checkpoint
  // counters — restore_verify_failures nonzero means the run loaded a
  // damaged checkpoint, which disqualifies it as a perf sample.
  {
    const persist::PersistCounters& pc = persist::Counters();
    rec.Int("snapshots_open", pma.snapshots_open())
        .Int("snapshots_taken", pma.num_snapshots_taken())
        .Int("cow_retained_bytes", pma.cow_pages_retained_bytes())
        .Int("checkpoint_bytes",
             pc.checkpoint_bytes.load(std::memory_order_relaxed))
        .Int("restore_verify_failures",
             pc.restore_verify_failures.load(std::memory_order_relaxed));
  }
}

/// Per-thread key streams, generated OUTSIDE the timed region: Zipf
/// rejection-inversion costs several pow/log calls per sample, which
/// would otherwise be the largest constant in every measured op and
/// dilute the structure's delta into RNG time.
std::vector<std::vector<Key>> PregenKeys(const Knobs& k, uint64_t salt) {
  std::vector<std::vector<Key>> keys(static_cast<size_t>(k.threads));
  const uint64_t n = k.ops / static_cast<uint64_t>(k.threads);
  for (int t = 0; t < k.threads; ++t) {
    Random rng(k.seed + salt + static_cast<uint64_t>(t));
    auto dist = MakeKeys(k);
    auto& v = keys[static_cast<size_t>(t)];
    v.reserve(n);
    for (uint64_t i = 0; i < n; ++i) v.push_back(dist.Sample(rng));
  }
  return keys;
}

/// Pure point lookups: every thread streams its own Zipf keys.
void BenchFind(BenchJson* json, const Knobs& k) {
  ConcurrentPMA pma(MakeConfig(k));
  Preload(&pma, k);
  const auto keys = PregenKeys(k, /*salt=*/0);
  std::atomic<uint64_t> found{0};  // defeats DCE, sanity-checked below
  bench::LatencyHistogram lat;
  std::mutex lat_mu;
  const Best best = BestOf(k.reps, k.ops, [&] {
    std::vector<std::thread> threads;
    for (int t = 0; t < k.threads; ++t) {
      threads.emplace_back([&, t] {
        PinThisThread(static_cast<unsigned>(t));
        uint64_t local = 0;
        uint64_t i = 0;
        bench::LatencyHistogram tl;
        for (Key key : keys[static_cast<size_t>(t)]) {
          Value v;
          if ((i++ & (bench::kLatencySampleEvery - 1)) == 0) {
            const uint64_t t0 = bench::NowNanos();
            local += pma.Find(key, &v) ? 1 : 0;
            tl.Record(bench::NowNanos() - t0);
          } else {
            local += pma.Find(key, &v) ? 1 : 0;
          }
        }
        found.fetch_add(local, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(lat_mu);
        lat.Merge(tl);
      });
    }
    for (auto& t : threads) t.join();
  });
  CPMA_CHECK(found.load() > 0);
  Report(json, pma, k, k.alpha > 0 ? "find_zipf" : "find_uniform", best,
         "op", &lat);
}

/// Read-mostly 95/5: 1 insert per 19 lookups, per-thread Zipf streams
/// (pregenerated, see PregenKeys).
void BenchMixed(BenchJson* json, const Knobs& k) {
  ConcurrentPMA pma(MakeConfig(k));
  Preload(&pma, k);
  const auto keys = PregenKeys(k, /*salt=*/77);
  bench::LatencyHistogram lat;
  std::mutex lat_mu;
  const Best best = BestOf(k.reps, k.ops, [&] {
    std::vector<std::thread> threads;
    for (int t = 0; t < k.threads; ++t) {
      threads.emplace_back([&, t] {
        PinThisThread(static_cast<unsigned>(t));
        uint64_t sink = 0;
        uint64_t i = 0;
        bench::LatencyHistogram tl;
        for (Key key : keys[static_cast<size_t>(t)]) {
          const bool sampled =
              (i & (bench::kLatencySampleEvery - 1)) == 0;
          const uint64_t t0 = sampled ? bench::NowNanos() : 0;
          if (++i % 20 == 0) {
            pma.Insert(key, i);
          } else {
            Value v;
            sink += pma.Find(key, &v) ? 1 : 0;
          }
          if (sampled) tl.Record(bench::NowNanos() - t0);
        }
        volatile uint64_t keep = sink;
        (void)keep;
        std::lock_guard<std::mutex> lk(lat_mu);
        lat.Merge(tl);
      });
    }
    for (auto& t : threads) t.join();
    pma.Flush();
  });
  Report(json, pma, k, "mixed_95_5", best, "op", &lat);
}

/// Full scans against concurrent writers: each scanner folds the whole
/// array --scan_passes times while one writer keeps gates mutating; the
/// optimistic path validates per segment copy instead of latching every
/// gate on the way. Both sides are reported — scan_meps for the
/// scanners and update_mops for the writer's concurrent progress: with
/// READ latches a continuous scan stream starves the writer (the latch
/// is writer-preferring per gate, but scans re-enter immediately), so
/// part of the latch-free win shows up as writer throughput, not scan
/// throughput, especially on boxes where CPU is the shared resource.
void BenchScanUnderWrites(BenchJson* json, const Knobs& k,
                          uint64_t scan_passes) {
  ConcurrentPMA pma(MakeConfig(k));
  Preload(&pma, k);
  const int scan_threads = std::max(1, k.threads - 1);
  const uint64_t elements =
      static_cast<uint64_t>(pma.Size()) * scan_passes *
      static_cast<uint64_t>(scan_threads);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writer_ops{0};
  // One background writer updates Zipf keys for the whole workload
  // (started outside the timed region; it outlives every repetition).
  std::thread writer([&] {
    Random rng(k.seed + 999);
    auto dist = MakeKeys(k);
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      pma.Insert(dist.Sample(rng), i++);
      writer_ops.store(i, std::memory_order_relaxed);
      if (i % 4096 == 0) std::this_thread::yield();
    }
  });
  Best best;
  double best_writer_mops = 0;
  bench::LatencyHistogram lat;  // one sample per full scan pass
  std::mutex lat_mu;
  for (uint64_t r = 0; r < k.reps; ++r) {
    const uint64_t w0 = writer_ops.load(std::memory_order_relaxed);
    Timer timer;
    std::vector<std::thread> scanners;
    for (int t = 0; t < scan_threads; ++t) {
      scanners.emplace_back([&, t] {
        PinThisThread(static_cast<unsigned>(t));
        bench::LatencyHistogram tl;
        for (uint64_t p = 0; p < scan_passes; ++p) {
          const uint64_t t0 = bench::NowNanos();
          volatile uint64_t sink = pma.SumAll();
          tl.Record(bench::NowNanos() - t0);
          (void)sink;
        }
        std::lock_guard<std::mutex> lk(lat_mu);
        lat.Merge(tl);
      });
    }
    for (auto& t : scanners) t.join();
    const double secs = timer.ElapsedSeconds();
    const double meps = static_cast<double>(elements) / secs / 1e6;
    if (meps > best.mops) {
      best.mops = meps;
      best.seconds = secs;
      best_writer_mops = static_cast<double>(
                             writer_ops.load(std::memory_order_relaxed) - w0) /
                         secs / 1e6;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  pma.Flush();
  std::printf("%-20s %3d thr  writer %8.3f Mop/s concurrent\n",
              "  (scan writer)", 1, best_writer_mops);
  Report(json, pma, k, "scan_under_writes", best, "el", &lat, "scan");
  // Same identity knobs, separate record: the writer's concurrent
  // progress during the best scan repetition. Deliberately emitted as
  // `writer_mops` — a field bench_diff does NOT gate on: one unpinned
  // writer time-sharing with the scanners is the most
  // scheduler-dependent number in the suite, so it documents the
  // fairness trade without flapping the regression gate.
  json->Add()
      .Str("workload", "scan_under_writes_writer")
      .Str("mode", k.mode)
      .Int("threads", static_cast<uint64_t>(k.threads))
      .Num("alpha", k.alpha)
      .Int("range", k.range)
      .Int("preload", k.preload)
      .Int("ops", k.ops)
      .Num("writer_mops", best_writer_mops);
}

}  // namespace
}  // namespace cpma

int main(int argc, char** argv) {
  using namespace cpma;
  bench::Flags flags(argc, argv);
  bench::BenchJson json(flags, "readpath");

  Knobs k;
  k.ops = flags.GetInt("ops", 2000000);
  k.preload = flags.GetInt("preload", 1000000);
  k.range = flags.GetInt("range", 1ull << 21);
  k.alpha = std::stod(flags.Get("alpha", "1.0"));
  k.threads = static_cast<int>(flags.GetInt("threads", 4));
  k.reps = flags.GetInt("reps", 3);
  k.seed = flags.GetInt("seed", 42);
  k.mode = flags.Get("mode", "sync");
  k.strict = flags.GetInt("strict", 1) != 0;
  const uint64_t scan_passes = flags.GetInt("scan_passes", 4);
  const std::string what = flags.Get("what", "find,find_uniform,mixed,scan");

  std::printf("# bench_readpath ops=%llu preload=%llu range=%llu "
              "threads=%d alpha=%.2f reps=%llu dispatch=%s\n",
              static_cast<unsigned long long>(k.ops),
              static_cast<unsigned long long>(k.preload),
              static_cast<unsigned long long>(k.range), k.threads, k.alpha,
              static_cast<unsigned long long>(k.reps),
              hotpath::ActiveDispatchName());

  // Exact comma-separated tokens: substring matching would make
  // --what=find_uniform also run the zipf find workload.
  auto want = [&](const std::string& name) {
    size_t pos = 0;
    while (pos <= what.size()) {
      const size_t comma = what.find(',', pos);
      const size_t end = comma == std::string::npos ? what.size() : comma;
      if (what.compare(pos, end - pos, name) == 0) return true;
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return false;
  };
  if (want("find") && k.alpha > 0) BenchFind(&json, k);
  if (want("find_uniform")) {
    Knobs uk = k;
    uk.alpha = 0;
    BenchFind(&json, uk);
  }
  if (want("mixed")) BenchMixed(&json, k);
  if (want("scan")) BenchScanUnderWrites(&json, k, scan_passes);

  return json.Write() ? 0 : 1;
}
