// pmabench: the repo benchmark. Runs one named workload against
// ConcurrentPMA through its public OrderedMap API and stats accessors,
// checks every output, and prints each metric by name with its unit; the
// last line of stdout is one JSON object
//   {"correct", "attempted", "failed", "metrics"}.
//
//   pmabench --workload ycsb-d|ycsb-e|ingest-scan --seed N --seconds S
//            --trace 0|1 [--trace_file PATH]
//
// --trace 0 prints the end-to-end metrics; the library's TailEventRing
// stays off. --trace 1 runs the workload twice, untraced then traced,
// and prints the per-layer metrics of the traced run (spans around every
// library call, the TailEventRing on) plus the throughput the tracing
// cost. Spans go to --trace_file as Chrome trace-event JSON.
//
// Workloads (closed loop: a client issues its next op when the last one
// returns). An end-to-end run is 3 rounds; each sets the structure up
// anew (setup_s is the median of the 3 set-ups) and measures one window
// on it. A window runs a fixed amount of work, sized so that the 3 take
// about --seconds 30 on a 4-core host (fewer seconds scale it down): a
// fixed op count keeps the final structure, and so its size and its
// resize count, the same on every run and every commit. The windows are
// cut into ~34 ms slices and each rate or latency is the median over
// the slices of all 3, so a stretch of host interference shorter than
// half the measured time does not move it.
//   ycsb-d       kSync, preload 2M keys spaced 2^24 apart; 3 clients,
//                18M ops of YCSB mix D (95% Find of the latest keys, 5%
//                inserts into pseudo-random gaps of the preload).
//                Point-read descent and optimistic gate reads; no scans,
//                and the inserts fit their segments without a rebalance.
//   ycsb-e       kSync, preload keys 1..2M; 1 client, 2.4M ops of mix E
//                (95% Scan of 1-100 items from a zipfian start key, 5%
//                inserts above the preload). Short-scan staging and
//                emission; no Find.
//   ingest-scan  kBatch (t_delay 100 ms), preload 1M keys uniform in
//                [1, 2^27]; 3 updaters insert 16M more while 1 scanner
//                loops SumAll; ends with Flush. The structure grows to
//                ~15M items: combining queues, batch and resize
//                rebalances, remaps and EBR, with full scans beside the
//                writes.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common/hotpath/cpu_dispatch.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/event_ring.h"

extern char** environ;

namespace pmabench {
namespace {

using cpma::ConcurrentConfig;
using cpma::ConcurrentPMA;
using cpma::TailEvent;
using cpma::TailEventRecord;
using cpma::TailEventRing;

enum class Workload { kYcsbD, kYcsbE, kIngest };

constexpr uint64_t kRecords = 2'000'000;
constexpr int kYcsbDClients = 3;
constexpr int kIngestUpdaters = 3;
// Work of one round's window at --seconds 30. 2M preloaded keys fill a
// 4M-slot array to 48%; the 5% inserts of ycsb-d (900k) and ycsb-e
// (120k) keep it below the 75% that triggers a resize, which also caps
// ycsb-d's window at about half of ycsb-e's.
constexpr uint64_t kYcsbDOps = 18'000'000;
constexpr uint64_t kYcsbEOps = 2'400'000;
constexpr uint64_t kIngestKeys = 16'000'000;
// The ingest preload gives its set-up real work to time: an empty
// construction takes ~0.2 ms, mostly thread starts, and its median
// moves by 30% from one process to the next. The preload is stream
// kIngestUpdaters, after those of the updaters.
constexpr uint64_t kIngestPreload = 1'000'000;
constexpr int kFullScaleSeconds = 30;
constexpr int kRounds = 3;  // of an end-to-end run

struct Args {
  Workload workload = Workload::kYcsbD;
  std::string workload_name;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "pmabench: %s\nusage: pmabench --workload "
               "ycsb-d|ycsb-e|ingest-scan --seed N --seconds S --trace 0|1 "
               "[--trace_file PATH]\n",
               why.c_str());
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
    Usage("bad value for " + flag + ": '" + v + "'");
  }
  return x;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload_name = v;
      if (v == "ycsb-d") {
        a.workload = Workload::kYcsbD;
      } else if (v == "ycsb-e") {
        a.workload = Workload::kYcsbE;
      } else if (v == "ingest-scan") {
        a.workload = Workload::kIngest;
      } else {
        Usage("unknown workload '" + v + "'");
      }
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = ParseUint(flag, v);
      have[1] = true;
    } else if (flag == "--seconds") {
      const uint64_t s = ParseUint(flag, v);
      if (s < 1 || s > kFullScaleSeconds) {
        Usage("--seconds must be in [1, 30]: the fixed work of each "
              "workload is sized for 30 s, and fewer seconds scale it down");
      }
      a.seconds = static_cast<int>(s);
      have[2] = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace must be 0 or 1");
      a.trace = v == "1";
      have[3] = true;
    } else if (flag == "--trace_file") {
      a.trace_file = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  for (bool h : have) {
    if (!h) Usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

/// The library reads a dozen CPMA_* variables at run time (retry
/// budgets, forced fallback backends, SIMD kill switches, ...); any of
/// them would silently measure another program.
void RefuseLibraryEnv() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CPMA_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      const size_t len = eq ? static_cast<size_t>(eq - *e) : std::strlen(*e);
      std::fprintf(stderr,
                   "pmabench: refusing to run with %.*s set: CPMA_* "
                   "variables change the program under measurement\n",
                   static_cast<int>(len), *e);
      std::exit(2);
    }
  }
}

/// The measured configuration, pinned here so a change of library
/// defaults cannot change what is measured: the paper's B=128 and 8
/// segments per gate, with 2 rebalancer workers instead of its 8, so
/// that clients, rebalancer master and workers fit a 4-core host. With
/// 8 workers beside 4 clients of a ycsb-d that inserted in key order,
/// the per-slice throughput of one window spread by ~50% (quartile
/// distance over median) and two seeds differed by 1.5x; with 2 workers
/// and 3 clients, by ~12% and 1%.
ConcurrentConfig BenchConfig(Workload w) {
  ConcurrentConfig c;
  c.pma.segment_capacity = 128;
  c.segments_per_gate = 8;
  c.rebalancer_workers = 2;
  c.t_delay_ms = 100;
  c.async_mode = w == Workload::kIngest ? ConcurrentConfig::AsyncMode::kBatch
                                        : ConcurrentConfig::AsyncMode::kSync;
  return c;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string ThpMode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(f, line)) return "unknown";
  const size_t a = line.find('['), b = line.find(']');
  return a == std::string::npos || b == std::string::npos
             ? line
             : line.substr(a + 1, b - a - 1);
}

/// The effective identity of the measured program, as JSON.
std::string Identity(const Args& a, const ConcurrentPMA& pma) {
  std::ostringstream o;
  o << "{\"git\": " << Quote(PMABENCH_GIT_SHA)
    << ", \"simd_search\": " << Quote(cpma::hotpath::ActiveDispatchName())
    << ", \"simd_copy\": " << Quote(cpma::hotpath::ActiveCopyDispatchName())
    << ", \"simd_locate\": "
    << Quote(cpma::hotpath::ActiveLocateDispatchName())
    << ", \"storage_rewiring\": "
    << (pma.storage_rewiring_enabled() ? "true" : "false")
    << ", \"fallback_backend\": "
    << (pma.fallback_backend_active() ? "true" : "false")
    << ", \"optimistic_retries\": " << pma.optimistic_retries()
    << ", \"strict_async_order\": "
    << (pma.strict_async_order() ? "true" : "false")
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"thp\": " << Quote(ThpMode()) << ", \"workload\": "
    << Quote(a.workload_name) << ", \"seed\": " << a.seed << "}";
  return o.str();
}

double CpuSeconds(const rusage& r) {
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Library counters read before and after the timed window.
struct Counters {
  uint64_t local = 0, global = 0, resizes = 0, queued = 0, batches = 0;
  uint64_t fallbacks = 0, gate_reads = 0, retries = 0;
  cpma::EpochGCStats ebr;

  static Counters Of(const ConcurrentPMA& p) {
    Counters c;
    c.local = p.num_local_rebalances();
    c.global = p.num_global_rebalances();
    c.resizes = p.num_resizes();
    c.queued = p.num_queued_ops();
    c.batches = p.num_batches();
    c.fallbacks = p.num_read_fallbacks();
    c.gate_reads = p.num_optimistic_gate_reads();
    c.retries = p.num_rebalance_retries();
    c.ebr = p.ebr_stats();
    return c;
  }
};

/// Drains the TailEventRing every 10 ms during a traced window, so a
/// window with more events than the ring holds still keeps them all.
/// Drain() returns the ring oldest first: the events new since the last
/// drain are those after the last one kept.
class RingCollector {
 public:
  explicit RingCollector(std::vector<TailEventRecord>* out) : out_(out) {
    TailEventRing::Global().Reset();
    TailEventRing::Global().Enable();
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        DrainNew();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      getrusage(RUSAGE_THREAD, &ru_);
    });
  }
  ~RingCollector() { Stop(); }
  RingCollector(const RingCollector&) = delete;
  RingCollector& operator=(const RingCollector&) = delete;

  /// Stops recording and collects the rest; returns the collector
  /// thread's own CPU use.
  const rusage& Stop() {
    if (thread_.joinable()) {
      TailEventRing::Global().Disable();
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
      DrainNew();
    }
    return ru_;
  }

 private:
  static bool Same(const TailEventRecord& a, const TailEventRecord& b) {
    return a.type == b.type && a.start_ns == b.start_ns &&
           a.end_ns == b.end_ns;
  }
  void DrainNew() {
    batch_.clear();
    TailEventRing::Global().Drain(&batch_);
    size_t from = 0;
    if (!out_->empty()) {
      const TailEventRecord& last = out_->back();
      for (size_t i = batch_.size(); i-- > 0;) {
        if (Same(batch_[i], last)) {
          from = i + 1;
          break;
        }
      }
    }
    out_->insert(out_->end(), batch_.begin() + static_cast<long>(from),
                 batch_.end());
  }

  std::vector<TailEventRecord>* out_;
  std::vector<TailEventRecord> batch_;
  std::atomic<bool> stop_{false};
  rusage ru_{};
  std::thread thread_;  // last: starts after the members it uses
};

/// What one run of a workload measured.
struct Measurement {
  std::vector<std::unique_ptr<Client>> clients;
  double setup_s = 0;
  double window_s = 0, flush_ms = 0, peak_rss_mib = 0;
  Counters before, after;
  rusage self_before{}, self_after{}, collector{};
  double fill = 0;
  uint64_t remaps = 0, fallback_copies = 0, remap_failures = 0;
  uint64_t ring_windows = 0;
  std::vector<TailEventRecord> events;
  std::vector<Span> phases;
  std::vector<Pass> passes;  // the ingest scanner's
  // Per full slice of the window (see SummarizeSlices).
  std::vector<double> slice_ops_per_s, slice_items_per_s, slice_read_p50_us;
  uint64_t attempted = 0, failed = 0;
  std::string structural_error;  // empty when the final state checked out
  std::string identity;

  /// Ops that count toward ops_per_s: every client op, except that the
  /// ingest scanner's passes are reads beside the measured inserts.
  uint64_t Ops(Workload w) const {
    uint64_t n = 0;
    for (const auto& c : clients) n += w == Workload::kIngest ? c->inserts
                                                              : c->ops();
    return n;
  }
};

class PhaseLog {
 public:
  explicit PhaseLog(std::vector<Span>* out) : out_(out) {}
  uint64_t Add(const char* name, uint64_t start, uint64_t end,
               uint64_t parent = 0) {
    out_->push_back({++id_, parent, kMainClient, name, start, end});
    return id_;
  }

 private:
  std::vector<Span>* out_;
  uint64_t id_ = 0;
};

/// Runs bodies[i] for clients[i], one thread each, released together
/// once all exist; the release time `t_start` starts every client's
/// slice 0. Waits for the first `n_finite` bodies, then sets `stop` for
/// the rest. Each client's thread CPU is sampled around its body.
void RunClients(const std::vector<std::unique_ptr<Client>>& clients,
                const std::vector<std::function<void(Client&)>>& bodies,
                size_t n_finite, std::atomic<bool>* stop,
                uint64_t* t_start) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  try {
    for (size_t i = 0; i < bodies.size(); ++i) {
      threads.emplace_back([&, i] {
        Client& c = *clients[i];
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        getrusage(RUSAGE_THREAD, &c.ru_start);
        bodies[i](c);
        getrusage(RUSAGE_THREAD, &c.ru_end);
      });
    }
  } catch (...) {
    // A thread failed to start: let the started ones run out, then fail.
    stop->store(true, std::memory_order_relaxed);
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    throw;
  }
  *t_start = NowNanos();
  for (const auto& c : clients) c->window_start = *t_start;
  go.store(true, std::memory_order_release);
  for (size_t i = 0; i < threads.size(); ++i) {
    if (i == n_finite) stop->store(true, std::memory_order_relaxed);
    threads[i].join();
  }
}

uint64_t Scaled(uint64_t full, int seconds) {
  return full * static_cast<uint64_t>(seconds) / kFullScaleSeconds;
}

/// Totals the final structure must hold.
struct Expected {
  uint64_t count = 0, key_sum = 0, value_sum = 0;
};

Expected ExpectedYcsb(char mix, const std::vector<YcsbStream>& streams) {
  Expected e;
  for (uint64_t r = 1; r <= kRecords; ++r) {
    const uint64_t k = PreloadKey(mix, r);
    e.key_sum += k;
    e.value_sum += ValueFor(k);
  }
  e.count = kRecords;
  for (const YcsbStream& s : streams) {
    for (uint64_t i = 0; i < s.inserted(); ++i) {
      const uint64_t k = s.InsertKey(i);
      e.key_sum += k;
      e.value_sum += ValueFor(k);
    }
    e.count += s.inserted();
  }
  return e;
}

/// Distinct keys of the ingest streams (stream i gives quota[i] keys),
/// recomputed outside the window.
Expected ExpectedIngest(uint64_t seed, const std::vector<uint64_t>& quota) {
  std::vector<uint64_t> seen(kIngestDomain / 64 + 1, 0);
  Expected e;
  for (size_t u = 0; u < quota.size(); ++u) {
    IngestStream s(static_cast<int>(u), seed);
    for (uint64_t i = 0; i < quota[u]; ++i) {
      const uint64_t k = s.Next();
      uint64_t& word = seen[k / 64];
      const uint64_t bit = uint64_t{1} << (k % 64);
      if (word & bit) continue;
      word |= bit;
      ++e.count;
      e.key_sum += k;
    }
  }
  e.value_sum = e.count;
  return e;
}

/// Checks the final state after the last Flush; returns "" when it
/// holds. Keys and values come from one full ascending Scan.
std::string VerifyFinal(const ConcurrentPMA& pma, Workload w,
                        const Expected& want) {
  std::string err;
  if (!pma.CheckInvariants(&err)) return "CheckInvariants: " + err;
  const cpma::Status st = pma.last_error();
  if (!st.ok()) return "last_error: " + st.ToString();
  Expected got;
  bool ordered = true, values_ok = true;
  Key prev = 0;
  pma.Scan(cpma::kKeyMin, cpma::kKeyMax, [&](Key k, Value v) {
    if (got.count > 0 && k <= prev) ordered = false;
    const Value expect = w == Workload::kIngest ? 1 : ValueFor(k);
    if (v != expect) values_ok = false;
    prev = k;
    ++got.count;
    got.key_sum += k;
    got.value_sum += v;
    return true;
  });
  std::ostringstream o;
  if (!ordered) o << "full scan not ascending; ";
  if (!values_ok) o << "full scan saw a value never written; ";
  if (got.count != want.count || pma.Size() != want.count) {
    o << "item count scan=" << got.count << " Size()=" << pma.Size()
      << " expected=" << want.count << "; ";
  }
  if (got.key_sum != want.key_sum) o << "key sum differs; ";
  if (pma.SumAll() != want.value_sum) o << "SumAll differs; ";
  return o.str();
}

/// Condenses the clients' slices into per-slice rates and read medians,
/// over the slices in which every client (on ingest-scan, every updater)
/// was still running, then frees the clients' slice histograms.
void SummarizeSlices(Measurement& m, Workload w) {
  const bool ingest = w == Workload::kIngest;
  auto counted = [&](const Client& c) { return !ingest || c.reads == 0; };
  size_t n = SIZE_MAX;
  for (const auto& c : m.clients) {
    if (counted(*c)) {
      n = std::min(n, static_cast<size_t>((c->end_ns - c->window_start) >>
                                          kSliceShift));
    }
  }
  const double slice_s = static_cast<double>(uint64_t{1} << kSliceShift) / 1e9;
  for (size_t s = 0; s < n; ++s) {
    uint64_t ops = 0, items = 0;
    SliceHistogram lat;
    for (const auto& c : m.clients) {
      if (!counted(*c)) continue;
      ops += c->slice_ops[s];
      items += c->slice_items[s];
      if (s < c->slice_read_lat.size()) lat.Merge(c->slice_read_lat[s]);
    }
    m.slice_ops_per_s.push_back(static_cast<double>(ops) / slice_s);
    m.slice_items_per_s.push_back(static_cast<double>(items) / slice_s);
    m.slice_read_p50_us.push_back(lat.Percentile(0.50) / 1e3);
  }
  for (const auto& c : m.clients) {
    std::vector<SliceHistogram>().swap(c->slice_read_lat);
  }
}

template <bool kTraced>
Measurement Run(const Args& args) {
  const Workload w = args.workload;
  Measurement m;
  PhaseLog phases(&m.phases);

  const char mix = w == Workload::kYcsbD ? 'D' : 'E';
  std::vector<uint64_t> preload;
  if (w != Workload::kIngest) preload = PreloadOrder(kRecords, args.seed);
  const uint64_t t0 = NowNanos();
  const auto pma = std::make_unique<ConcurrentPMA>(BenchConfig(w));
  const uint64_t t1 = NowNanos();
  if (w == Workload::kIngest) {
    IngestStream s(kIngestUpdaters, args.seed);
    for (uint64_t i = 0; i < kIngestPreload; ++i) pma->Insert(s.Next(), 1);
  } else {
    for (uint64_t r : preload) {
      const Key k = PreloadKey(mix, r);
      pma->Insert(k, ValueFor(k));
    }
  }
  const uint64_t t2 = NowNanos();
  pma->Flush();
  const uint64_t t3 = NowNanos();
  m.setup_s = static_cast<double>(t3 - t0) / 1e9;
  const uint64_t setup_id = phases.Add("setup", t0, t3);
  phases.Add("construct", t0, t1, setup_id);
  phases.Add("preload", t1, t2, setup_id);
  phases.Add("flush", t2, t3, setup_id);
  m.identity = Identity(args, *pma);

  // Build the streams before the window opens.
  const int n_clients = w == Workload::kYcsbD   ? kYcsbDClients
                        : w == Workload::kYcsbE ? 1
                                                : kIngestUpdaters + 1;
  for (int i = 0; i < n_clients; ++i) {
    m.clients.push_back(std::make_unique<Client>());
    m.clients.back()->id = i;
  }
  std::vector<YcsbStream> ycsb;
  std::vector<uint64_t> quota;
  std::atomic<bool> stop{false};
  std::vector<std::function<void(Client&)>> bodies;
  OrderedMap& map = *pma;
  if (w == Workload::kIngest) {
    const uint64_t keys = Scaled(kIngestKeys, args.seconds);
    for (int u = 0; u < kIngestUpdaters; ++u) {
      quota.push_back(keys / kIngestUpdaters +
                      (static_cast<uint64_t>(u) < keys % kIngestUpdaters));
      bodies.push_back([&, u](Client& c) {
        RunIngestUpdater<kTraced>(map, IngestStream(u, args.seed), quota[u],
                                  c);
      });
    }
    quota.push_back(kIngestPreload);
    m.passes.reserve(1 << 16);
    bodies.push_back(
        [&](Client& c) { RunScanner<kTraced>(map, c, stop, &m.passes); });
  } else {
    const uint64_t ops =
        Scaled(mix == 'D' ? kYcsbDOps : kYcsbEOps, args.seconds);
    for (int i = 0; i < n_clients; ++i) {
      ycsb.emplace_back(mix, kRecords, i, n_clients, args.seed);
    }
    for (int i = 0; i < n_clients; ++i) {
      const uint64_t my_ops = ops / static_cast<uint64_t>(n_clients) +
                              (static_cast<uint64_t>(i) <
                               ops % static_cast<uint64_t>(n_clients));
      bodies.push_back([&, i, mix, my_ops](Client& c) {
        RunYcsbClient<kTraced>(map, ycsb[static_cast<size_t>(i)], mix,
                               kRecords, c, stop, my_ops);
      });
    }
  }

  std::unique_ptr<RingCollector> ring;
  if (kTraced) ring = std::make_unique<RingCollector>(&m.events);
  m.before = Counters::Of(*pma);
  getrusage(RUSAGE_SELF, &m.self_before);

  // The ingest scanner (the last body) runs until the updaters are done.
  uint64_t t_start = 0;
  RunClients(m.clients, bodies,
             w == Workload::kIngest ? bodies.size() - 1 : bodies.size(),
             &stop, &t_start);
  const uint64_t t_flush = NowNanos();
  pma->Flush();
  const uint64_t t_end = NowNanos();
  if (ring) m.collector = ring->Stop();
  getrusage(RUSAGE_SELF, &m.self_after);
  m.after = Counters::Of(*pma);
  m.window_s = static_cast<double>(t_end - t_start) / 1e9;
  m.flush_ms = static_cast<double>(t_end - t_flush) / 1e6;
  const uint64_t window_id = phases.Add("window", t_start, t_end);
  phases.Add("flush", t_flush, t_end, window_id);
  m.ring_windows =
      TailEventRing::Global().count(TailEvent::kRebalanceWindow);
  {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  m.fill = static_cast<double>(pma->Size()) /
           static_cast<double>(pma->capacity());
  m.remaps = pma->storage_num_remaps();
  m.fallback_copies = pma->storage_num_fallback_copies();
  m.remap_failures = pma->storage_num_remap_failures();
  SummarizeSlices(m, w);

  // Checks, outside the window.
  const uint64_t t_verify = NowNanos();
  for (const auto& c : m.clients) {
    m.attempted += c->ops();
    m.failed += c->failed;
  }
  Expected want;
  if (w == Workload::kIngest) {
    want = ExpectedIngest(args.seed, quota);
    for (size_t i = 0; i < m.passes.size(); ++i) {
      if (m.passes[i].items > want.count ||
          (i > 0 && m.passes[i].items < m.passes[i - 1].items)) {
        ++m.failed;
      }
    }
  } else {
    want = ExpectedYcsb(mix, ycsb);
  }
  ++m.attempted;  // the final-state check
  m.structural_error = VerifyFinal(*pma, w, want);
  if (!m.structural_error.empty()) ++m.failed;
  phases.Add("verify", t_verify, NowNanos());
  return m;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed after the value, e.g. a sample count
};

Histogram Merged(const Measurement& m, bool reads) {
  Histogram h;
  for (const auto& c : m.clients) h.Merge(reads ? c->read_lat : c->insert_lat);
  return h;
}

double OpsPerSec(const Measurement& m, Workload w) {
  return static_cast<double>(m.Ops(w)) / m.window_s;
}

/// Median of the (value, weight) pairs `vw`, each value counted with its
/// weight.
double WeightedMedian(std::vector<std::pair<double, double>> vw) {
  if (vw.empty()) return 0;
  std::sort(vw.begin(), vw.end());
  double total = 0;
  for (const auto& [v, w] : vw) total += w;
  double acc = 0;
  for (const auto& [v, w] : vw) {
    acc += w;
    if (acc * 2 >= total) return v;
  }
  return vw.back().first;
}

/// The end-to-end metrics of the rounds: medians over the full slices of
/// every round's window. On ingest-scan, where one scanner pass spans
/// many slices, the read metrics are medians over the passes, each
/// weighted by its duration. setup_s is the median of the rounds'
/// set-ups.
std::vector<Metric> EndToEnd(const std::vector<Measurement>& rounds,
                             Workload w) {
  std::vector<double> ops, p50, items_per_s, setup;
  std::vector<std::pair<double, double>> pass_lat, pass_rate;
  uint64_t reads = 0;
  for (const Measurement& m : rounds) {
    for (const auto& c : m.clients) reads += c->reads;
    ops.insert(ops.end(), m.slice_ops_per_s.begin(), m.slice_ops_per_s.end());
    if (m.slice_ops_per_s.empty()) ops.push_back(OpsPerSec(m, w));
    items_per_s.insert(items_per_s.end(), m.slice_items_per_s.begin(),
                       m.slice_items_per_s.end());
    p50.insert(p50.end(), m.slice_read_p50_us.begin(),
               m.slice_read_p50_us.end());
    for (const Pass& p : m.passes) {
      const double ns = static_cast<double>(std::max<uint64_t>(p.ns, 1));
      pass_lat.push_back({ns / 1e3, ns});
      pass_rate.push_back({static_cast<double>(p.items) / (ns / 1e9), ns});
    }
    setup.push_back(m.setup_s);
  }
  const std::string of = "median of " + std::to_string(ops.size()) +
                         " slices of " + std::to_string(rounds.size()) +
                         " rounds";
  std::string read_of = of;
  if (w == Workload::kIngest) {
    p50 = {WeightedMedian(pass_lat)};
    items_per_s = {WeightedMedian(pass_rate)};
    read_of = "median of " + std::to_string(pass_lat.size()) +
              " passes, by duration";
  }
  return {
      {"ops_per_s", Median(ops), "1/s", of},
      {"read_p50_us", Median(p50), "us",
       "n=" + std::to_string(reads) + ", " + read_of},
      {"read_items_per_s", Median(items_per_s), "1/s", read_of},
      {"setup_s", Median(setup), "s",
       "median of " + std::to_string(setup.size())},
      {"peak_rss_mib", rounds.back().peak_rss_mib, "MiB", ""},
  };
}

/// What the result line reports for several runs: their checks summed.
Measurement Totals(const std::vector<Measurement>& runs) {
  Measurement t;
  t.identity = runs.back().identity;
  for (const Measurement& m : runs) {
    t.attempted += m.attempted;
    t.failed += m.failed;
    t.structural_error += m.structural_error;
  }
  return t;
}

double Per(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> PerLayer(const Measurement& m, const Measurement& untraced,
                             Workload w) {
  uint64_t reads = 0, inserts = 0, items = 0, read_ns = 0, insert_ns = 0;
  uint64_t gen_ns = 0, gen_ops = 0, nivcsw = 0;
  double client_cpu = 0;
  TailRecorder slowest;
  for (const auto& c : m.clients) {
    reads += c->reads;
    inserts += c->inserts;
    items += c->read_items;
    read_ns += c->read_call_ns;
    insert_ns += c->insert_call_ns;
    nivcsw += static_cast<uint64_t>(c->ru_end.ru_nivcsw -
                                    c->ru_start.ru_nivcsw);
    client_cpu += CpuSeconds(c->ru_end) - CpuSeconds(c->ru_start);
    if (!(w == Workload::kIngest && c->reads > 0)) {  // not the scanner
      gen_ns += c->gen_ns;
      gen_ops += c->ops();
      slowest.Merge(c->slowest);
    }
  }
  const Counters& a = m.after;
  const Counters& b = m.before;
  const double visits = static_cast<double>(a.gate_reads - b.gate_reads +
                                            a.fallbacks - b.fallbacks);
  // Scan and SumAll count their optimistic gate reads; Find does not, so
  // on ycsb-d the gate-visit ratios would count fallbacks only.
  const bool scans = w != Workload::kYcsbD;
  const char* na = "n/a: Find does not count gate reads";

  double window_ns = 0, resize_ns = 0;
  uint64_t n_windows = 0, n_resizes = 0;
  for (const TailEventRecord& e : m.events) {
    if (e.type == TailEvent::kRebalanceWindow) {
      window_ns += static_cast<double>(e.end_ns - e.start_ns);
      ++n_windows;
    } else if (e.type == TailEvent::kResize) {
      resize_ns += static_cast<double>(e.end_ns - e.start_ns);
      ++n_resizes;
    }
  }
  // Each of the slowest ops goes to the most severe mechanism span it
  // overlapped. Coalescing flushes are ShardedPMA's; ConcurrentPMA
  // never records one, so attr.flush stays 0 and is not reported.
  const TailRecorder::Attribution attr = slowest.Attribute(m.events);
  const double tail_ops = static_cast<double>(attr.ops);
  const double mib = 1024.0 * 1024.0;
  const Histogram read_h = Merged(m, true), insert_h = Merged(m, false);
  const double bg_cpu = CpuSeconds(m.self_after) -
                        CpuSeconds(m.self_before) - client_cpu -
                        CpuSeconds(m.collector);

  return {
      {"concurrent.read_ns", Per(read_ns, reads), "ns", ""},
      {"concurrent.insert_ns", Per(insert_ns, inserts), "ns", ""},
      {"concurrent.read_p99_us", read_h.Percentile(0.99) / 1e3, "us",
       "n=" + std::to_string(reads)},
      {"concurrent.read_p999_us", read_h.Percentile(0.999) / 1e3, "us",
       "n=" + std::to_string(reads)},
      {"concurrent.insert_p50_us", insert_h.Percentile(0.50) / 1e3, "us",
       "n=" + std::to_string(inserts)},
      {"concurrent.insert_p99_us", insert_h.Percentile(0.99) / 1e3, "us",
       "n=" + std::to_string(inserts)},
      {"concurrent.insert_p999_us", insert_h.Percentile(0.999) / 1e3, "us",
       "n=" + std::to_string(inserts)},
      {"concurrent.gate_visits_per_read", scans ? Per(visits, reads) : 0,
       "count", scans ? "" : na},
      {"concurrent.items_per_gate_visit", scans ? Per(items, visits) : 0,
       "count", scans ? "" : na},
      {"concurrent.read_fallbacks_per_kread",
       Per(1e3 * (a.fallbacks - b.fallbacks), reads), "count", ""},
      {"concurrent.queued_op_share", Per(a.queued - b.queued, inserts),
       "ratio", ""},
      {"concurrent.batches", static_cast<double>(a.batches - b.batches),
       "count", ""},
      {"concurrent.flush_ms", m.flush_ms, "ms", ""},
      {"rebalancer.local_per_kinsert", Per(1e3 * (a.local - b.local), inserts),
       "count", ""},
      {"rebalancer.global_per_kinsert",
       Per(1e3 * (a.global - b.global), inserts), "count", ""},
      {"rebalancer.resizes", static_cast<double>(a.resizes - b.resizes),
       "count", ""},
      {"rebalancer.windows", static_cast<double>(m.ring_windows), "count", ""},
      {"rebalancer.window_ms", Per(window_ns / 1e6, n_windows), "ms", ""},
      {"rebalancer.resize_ms", Per(resize_ns / 1e6, n_resizes), "ms", ""},
      {"rebalancer.retries", static_cast<double>(a.retries - b.retries),
       "count", ""},
      {"tail.attr_stall_share", Per(attr.stall, tail_ops), "ratio", ""},
      {"tail.attr_resize_share", Per(attr.resize, tail_ops), "ratio", ""},
      {"tail.attr_rebalance_share", Per(attr.rebalance, tail_ops), "ratio",
       ""},
      {"tail.attr_fallback_share", Per(attr.fallback, tail_ops), "ratio", ""},
      {"tail.attr_none_share", Per(attr.none, tail_ops), "ratio", ""},
      {"storage.fill", m.fill, "ratio", ""},
      {"storage.remaps", static_cast<double>(m.remaps), "count", ""},
      {"storage.fallback_copies", static_cast<double>(m.fallback_copies),
       "count", ""},
      {"storage.remap_failures", static_cast<double>(m.remap_failures),
       "count", ""},
      {"ebr.retired_mib",
       static_cast<double>(a.ebr.retired_bytes - b.ebr.retired_bytes) / mib,
       "MiB", ""},
      {"ebr.pending_hwm_mib",
       static_cast<double>(a.ebr.retired_bytes_hwm) / mib, "MiB", ""},
      {"ebr.collections",
       static_cast<double>(a.ebr.collections - b.ebr.collections), "count",
       ""},
      {"os.bg_cpu_s", bg_cpu, "s", ""},
      {"os.client_nivcsw_per_s", Per(static_cast<double>(nivcsw), m.window_s),
       "1/s", ""},
      {"os.minflt",
       static_cast<double>(m.self_after.ru_minflt - m.self_before.ru_minflt),
       "count", ""},
      {"bench.gen_ns", Per(gen_ns, gen_ops), "ns", ""},
      {"bench.trace_overhead",
       1.0 - Per(OpsPerSec(m, w), OpsPerSec(untraced, w)), "ratio", ""},
      {"bench.read_samples", static_cast<double>(reads), "count", ""},
      {"bench.insert_samples", static_cast<double>(inserts), "count", ""},
  };
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto): one event per
/// span, `tid` = the client that issued it.
void WriteTrace(const std::string& path, const Measurement& m) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "pmabench: cannot write %s\n", path.c_str());
    return;
  }
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : m.phases) t0 = std::min(t0, s.start_ns);
  f << "{\"otherData\": " << m.identity << ",\n\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const Span& s) {
    f << (first ? "" : ",\n") << "{\"name\": " << Quote(s.name)
      << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.client
      << ", \"ts\": " << Num(static_cast<double>(s.start_ns - t0) / 1e3)
      << ", \"dur\": " << Num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
      << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
      << "}}";
    first = false;
  };
  for (const Span& s : m.phases) emit(s);
  for (const auto& c : m.clients) {
    for (const Span& s : c->spans) emit(s);
  }
  f << "\n]}\n";
}

void Print(const Args& args, const Measurement& m,
           const std::vector<Metric>& metrics) {
  std::printf("pmabench workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("identity %s\n", m.identity.c_str());
  for (const Metric& x : metrics) {
    std::printf("%-36s %s %s%s%s\n", x.name.c_str(), Num(x.value).c_str(),
                x.unit.c_str(), x.note.empty() ? "" : "  ", x.note.c_str());
  }
  std::printf("%-36s %s ratio  (failed %llu of %llu)\n", "error_rate",
              Num(Per(static_cast<double>(m.failed),
                      static_cast<double>(m.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(m.attempted));
  if (!m.structural_error.empty()) {
    std::printf("final-state check failed: %s\n", m.structural_error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += m.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(m.attempted);
  json += ", \"failed\": " + std::to_string(m.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + Quote(metrics[i].name) +
            ": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RefuseLibraryEnv();
  std::vector<Measurement> runs;
  if (!args.trace) {
    for (int r = 0; r < kRounds; ++r) runs.push_back(Run<false>(args));
    const Measurement all = Totals(runs);
    Print(args, all, EndToEnd(runs, args.workload));
    return all.structural_error.empty() ? 0 : 1;
  }
  runs.push_back(Run<false>(args));
  runs.push_back(Run<true>(args));
  const Measurement& m = runs.back();
  if (!args.trace_file.empty()) WriteTrace(args.trace_file, m);
  const Measurement all = Totals(runs);
  Print(args, all, PerLayer(m, runs.front(), args.workload));
  return all.structural_error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace pmabench

int main(int argc, char** argv) { return pmabench::Main(argc, argv); }
