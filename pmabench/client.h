// Client loops and output checks of the benchmark, written against the
// OrderedMap interface so the self-tests can drive them over a
// deliberately broken map.
//
// Every op a client issues is timed around its library call and counted
// in the time slice of the window it ended in. In a traced run the client
// also times the op as a whole (generation + call), so
// the op span minus its library-call child span is the harness's own
// cost, keeps the slowest op windows for tail attribution, and keeps
// every kSpanSampleEvery-th op as an explicit span pair.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include <sys/resource.h>

#include "common/ordered_map.h"
#include "driver.h"
#include "pma/item.h"
#include "histogram.h"
#include "opstream.h"

namespace pmabench {

using cpma::Key;
using cpma::OrderedMap;
using cpma::Value;
using cpma::bench::NowNanos;  // the TailEventRing clock
using cpma::bench::TailRecorder;

/// One recorded span. `id` is unique within a run; `parent` is 0 for a
/// root. `client` is the identifier every span of one client shares
/// (phase spans of the main thread use kMainClient).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  int client = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};
constexpr int kMainClient = -1;
constexpr uint64_t kSpanSampleEvery = 1024;
/// A window is cut into slices of 2^kSliceShift ns (about 34 ms). The
/// end-to-end metrics are medians over the slices, so host interference
/// that covers less than half of a window does not move them.
constexpr int kSliceShift = 25;
/// Slices a YCSB client allocates up front (~17 s), so that the memory
/// its slice histograms take does not depend on how long a window runs.
constexpr size_t kPresetSlices = 512;

/// One full pass of the ingest scanner.
struct Pass {
  uint64_t items = 0;
  uint64_t ns = 0;
};

/// Everything one client thread measures. Clients never share one.
struct Client {
  int id = 0;
  Histogram read_lat, insert_lat;  // ns, around the library call
  uint64_t reads = 0, inserts = 0;
  uint64_t read_items = 0;  // items delivered by read calls
  uint64_t failed = 0;      // ops whose output was wrong
  uint64_t busy_ns = 0;     // first op start to last op end
  uint64_t window_start = 0;  // slice 0 starts here; 0 = at the first op
  uint64_t end_ns = 0;        // when the last op ended
  // Per slice: ops ended in it, items they read, and read latency (the
  // YCSB clients only; a scanner pass spans many slices).
  std::vector<uint64_t> slice_ops, slice_items;
  std::vector<SliceHistogram> slice_read_lat;
  // Traced runs only.
  uint64_t read_call_ns = 0, insert_call_ns = 0, gen_ns = 0;
  TailRecorder slowest;
  std::vector<Span> spans;
  uint64_t next_span_id = 0;
  rusage ru_start{}, ru_end{};

  uint64_t ops() const { return reads + inserts; }

  /// The slice that time `t` of the window falls in, grown on demand.
  size_t Slice(uint64_t t) {
    const size_t s = static_cast<size_t>((t - window_start) >> kSliceShift);
    if (s >= slice_ops.size()) {
      slice_ops.resize(s + 1);
      slice_items.resize(s + 1);
    }
    return s;
  }

  /// Span ids are unique across clients: the client id is in the top
  /// bits.
  uint64_t NewSpanId() {
    return (static_cast<uint64_t>(id + 2) << 48) | ++next_span_id;
  }
};

/// Records op timing into `c`: the op spans [t0, t2], its library call
/// [t1, t2], and a read delivered `items` items. Untraced runs measure
/// only the call and pass t0 = 0.
template <bool kTraced>
inline void RecordOp(Client& c, bool is_read, uint64_t items, uint64_t t0,
                     uint64_t t1, uint64_t t2, const char* call_name) {
  const size_t s = c.Slice(t2);
  ++c.slice_ops[s];
  if (!is_read) {
    ++c.inserts;
    c.insert_lat.Record(t2 - t1);
  } else {
    ++c.reads;
    c.read_lat.Record(t2 - t1);
    c.read_items += items;
    c.slice_items[s] += items;
    if (s >= c.slice_read_lat.size()) c.slice_read_lat.resize(s + 1);
    c.slice_read_lat[s].Record(t2 - t1);
  }
  if (!kTraced) return;
  (is_read ? c.read_call_ns : c.insert_call_ns) += t2 - t1;
  c.gen_ns += t1 - t0;
  c.slowest.Offer(t0, t2);
  if (c.ops() % kSpanSampleEvery == 0) {
    const uint64_t op_id = c.NewSpanId();
    c.spans.push_back({op_id, 0, c.id, "op", t0, t2});
    c.spans.push_back({c.NewSpanId(), op_id, c.id, call_name, t1, t2});
  }
}

/// Short-scan output check: the keys [1, max_key] are all present and
/// no other key is (mix E has one client, so its key set stays dense),
/// hence a scan from `start` stopped after `len` items must return
/// exactly start, start + 1, ... — ascending, duplicate-free and
/// min(len, keys remaining) long — each with its written value.
inline bool ShortScanCorrect(const std::vector<cpma::Item>& got, Key start,
                             uint32_t len, Key max_key) {
  const uint64_t remaining = start > max_key ? 0 : max_key - start + 1;
  if (got.size() != std::min<uint64_t>(len, remaining)) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].key != start + i || got[i].value != ValueFor(got[i].key)) {
      return false;
    }
  }
  return true;
}

/// Point-read output check for mix D: every key a client reads is a
/// preloaded key or one it inserted, so it must be found with its
/// written value.
inline bool FindCorrect(Key key, bool found, Value value) {
  return found && value == ValueFor(key);
}

/// Closed-loop YCSB client (mix D or E): issues ops until `stop` is set
/// or `max_ops` ops are done. `records` is the preload size; mix E
/// expects the key set [1, records + this client's inserts].
template <bool kTraced>
void RunYcsbClient(OrderedMap& map, YcsbStream& s, char mix,
                   uint64_t records, Client& c,
                   const std::atomic<bool>& stop, uint64_t max_ops) {
  struct ScanState {
    std::vector<cpma::Item> items;
    uint32_t len = 0;
  } st;
  st.items.reserve(kMaxScanLen);
  c.slice_read_lat.resize(std::max(c.slice_read_lat.size(), kPresetSlices));
  const cpma::ScanCallback on_item = [p = &st](Key k, Value v) {
    p->items.push_back({k, v});
    return p->items.size() < p->len;
  };
  const uint64_t begin = NowNanos();
  if (c.window_start == 0) c.window_start = begin;
  uint64_t t2 = begin;
  while (c.ops() < max_ops && !stop.load(std::memory_order_relaxed)) {
    const uint64_t t0 = kTraced ? NowNanos() : 0;
    const Op op = s.Next();
    const uint64_t t1 = NowNanos();
    if (op.kind == OpKind::kInsert) {
      map.Insert(op.key, ValueFor(op.key));
      t2 = NowNanos();
      RecordOp<kTraced>(c, false, 0, t0, t1, t2, "Insert");
    } else if (mix == 'D') {
      Value v = 0;
      const bool found = map.Find(op.key, &v);
      t2 = NowNanos();
      if (!FindCorrect(op.key, found, v)) ++c.failed;
      RecordOp<kTraced>(c, true, found ? 1 : 0, t0, t1, t2, "Find");
    } else {
      st.items.clear();
      st.len = op.scan_len;
      map.Scan(op.key, cpma::kKeyMax, on_item);
      t2 = NowNanos();
      if (!ShortScanCorrect(st.items, op.key, op.scan_len,
                            records + s.inserted())) {
        ++c.failed;
      }
      RecordOp<kTraced>(c, true, st.items.size(), t0, t1, t2, "Scan");
    }
  }
  c.busy_ns = t2 - begin;
  c.end_ns = t2;
}

/// Ingest updater: inserts `n` keys of its stream, each with value 1, so
/// a SumAll pass returns the number of items it folded.
template <bool kTraced>
void RunIngestUpdater(OrderedMap& map, IngestStream s, uint64_t n,
                      Client& c) {
  const uint64_t begin = NowNanos();
  if (c.window_start == 0) c.window_start = begin;
  uint64_t t2 = begin;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t t0 = kTraced ? NowNanos() : 0;
    const Key key = s.Next();
    const uint64_t t1 = NowNanos();
    map.Insert(key, 1);
    t2 = NowNanos();
    RecordOp<kTraced>(c, false, 0, t0, t1, t2, "Insert");
  }
  c.busy_ns = t2 - begin;
  c.end_ns = t2;
}

/// Ingest scanner: folds the whole map with SumAll until `stop` is set.
/// Each pass's result and duration is kept, for the checks (an
/// insert-only run must never lose an item between passes) and for the
/// pass metrics. A pass is recorded with one sample per microsecond it
/// took, so its percentiles describe where the scanner spends its time:
/// unweighted, the thousands of passes over the first few hundred items
/// would set the median. Passes are not offered to the tail keeper: one
/// pass spans many inserts.
template <bool kTraced>
void RunScanner(const OrderedMap& map, Client& c,
                const std::atomic<bool>& stop, std::vector<Pass>* passes) {
  const uint64_t begin = NowNanos();
  uint64_t t1 = begin;
  while (!stop.load(std::memory_order_relaxed)) {
    const uint64_t t0 = t1;
    const uint64_t items = map.SumAll();
    t1 = NowNanos();
    ++c.reads;
    c.read_items += items;
    passes->push_back({items, t1 - t0});
    c.read_lat.Record(t1 - t0, std::max<uint64_t>(1, (t1 - t0) / 1000));
    if (kTraced) {
      c.read_call_ns += t1 - t0;
      const uint64_t op_id = c.NewSpanId();
      c.spans.push_back({op_id, 0, c.id, "scanner_pass", t0, t1});
      c.spans.push_back({c.NewSpanId(), op_id, c.id, "SumAll", t0, t1});
    }
  }
  c.busy_ns = t1 - begin;
  c.end_ns = t1;
}

}  // namespace pmabench
