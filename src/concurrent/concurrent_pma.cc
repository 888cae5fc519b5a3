#include "concurrent/concurrent_pma.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "common/hotpath/locate.h"
#include "common/hotpath/search.h"
#include "common/hotpath/tagged.h"
#include "common/timer.h"
#include "concurrent/event_ring.h"
#include "concurrent/rebalancer.h"
#include "pma/density.h"
#include "pma/spread.h"

namespace cpma {

// One tested lower bound for every segment search (hot-path subsystem,
// ISSUE 2) instead of a per-TU scalar copy.
using hotpath::SegmentLowerBound;

namespace {

// Prefetched descents. Every point op and a scan's first gate step down
// index -> gate -> route/card slice -> segment, and each load there
// would otherwise miss only once the one before it returned. Both steps
// prefetch as soon as the address is known, so the misses overlap.

/// The gate step, right after the index lookup: the gate's lines and its
/// chunk's route and card slices. The slices start at gid * spg, so their
/// addresses do not wait for the gate. A lookup that lands one gate off
/// (a fence walk follows) only wastes the hint.
void PrefetchGate(const Structure& snap, size_t gid) {
  const Storage& st = *snap.storage;
  const size_t spg = snap.segments_per_gate;
  hotpath::PrefetchRange(&snap.gates[gid], sizeof(Gate));
  hotpath::PrefetchRange(st.routes().data() + gid * spg, spg * sizeof(Key));
  hotpath::PrefetchRange(st.cards() + gid * spg, spg * sizeof(uint32_t));
}

/// The segment step, right after the card: items [0, n) of `seg`, all
/// lines the search (or an update's shift) may touch, before the search.
void PrefetchItems(const Item* seg, size_t n) {
  hotpath::PrefetchRange(seg, n * sizeof(Item));
}

}  // namespace

void RecomputeFences(Structure* snap, size_t gb, size_t ge) {
  CPMA_CHECK(gb < ge && ge <= snap->num_gates());
  const Storage& st = *snap->storage;
  const size_t spg = snap->segments_per_gate;

  auto first_key_of_chunk = [&](size_t g) -> std::optional<Key> {
    for (size_t s = g * spg; s < (g + 1) * spg; ++s) {
      if (st.card(s) > 0) return st.segment(s)[0].key;
    }
    return std::nullopt;
  };

  // Right-to-left: a gate's high fence is the predecessor of the next
  // gate's low fence (paper §3.1); empty chunks collapse onto the next
  // boundary, yielding an empty [low, high] range that fence checks
  // simply walk past.
  const size_t n = ge - gb;
  std::vector<Key> low(n), high(n);
  for (size_t g = ge; g-- > gb;) {
    const size_t j = g - gb;
    high[j] =
        (g == ge - 1) ? snap->gates[g].high_fence() : low[j + 1] - 1;
    if (g == gb) {
      low[j] = snap->gates[g].low_fence();
    } else if (auto fk = first_key_of_chunk(g)) {
      low[j] = *fk;
    } else {
      low[j] = (high[j] == kKeySentinel) ? kKeySentinel : high[j] + 1;
    }
  }
  for (size_t g = gb; g < ge; ++g) {
    snap->gates[g].SetFences(low[g - gb], high[g - gb]);
    snap->index->SetSeparator(g, low[g - gb]);
  }
}

ConcurrentPMA::ConcurrentPMA(const ConcurrentConfig& config) : cfg_(config) {
  CPMA_CHECK(IsPowerOfTwo(cfg_.segments_per_gate));
  CPMA_CHECK(cfg_.segments_per_gate >= 2);
  CPMA_CHECK(IsPowerOfTwo(cfg_.pma.segment_capacity));
  CPMA_CHECK(cfg_.pma.segment_capacity >= 4);
  optimistic_retries_ = cfg_.optimistic_retries;
  if (const char* env = std::getenv("CPMA_OPTIMISTIC_RETRIES")) {
    // Strict parse: a typo silently becoming 0 would turn the whole
    // optimistic read path off and masquerade as a perf regression.
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0 && v >= 0 &&
        v <= INT_MAX) {
      optimistic_retries_ = static_cast<int>(v);
    } else if (*env != '\0') {
      std::fprintf(stderr,
                   "cpma: ignoring invalid CPMA_OPTIMISTIC_RETRIES=%s "
                   "(want a non-negative integer); using %d\n",
                   env, optimistic_retries_);
    }
  }
  if (optimistic_retries_ < 0) optimistic_retries_ = 0;
  strict_async_order_ = cfg_.strict_async_order;
  if (const char* env = std::getenv("CPMA_STRICT_ASYNC")) {
    // Same strict parse as above: "0" and "1" only — a typo silently
    // relaxing the ordering contract would be a correctness hazard, not
    // just a perf one.
    if (env[0] != '\0' && env[1] == '\0' && (env[0] == '0' || env[0] == '1')) {
      strict_async_order_ = env[0] == '1';
    } else if (*env != '\0') {
      std::fprintf(stderr,
                   "cpma: ignoring invalid CPMA_STRICT_ASYNC=%s "
                   "(want 0 or 1); using %d\n",
                   env, strict_async_order_ ? 1 : 0);
    }
  }
  watchdog_ms_ = cfg_.watchdog_ms;
  if (const char* env = std::getenv("CPMA_WATCHDOG_MS")) {
    // Strict parse like the knobs above: a typo must not silently arm or
    // disarm the stall checker.
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0 && v >= 0) {
      watchdog_ms_ = static_cast<int64_t>(v);
    } else if (*env != '\0') {
      std::fprintf(stderr,
                   "cpma: ignoring invalid CPMA_WATCHDOG_MS=%s "
                   "(want a non-negative integer); using %lld\n",
                   env, static_cast<long long>(watchdog_ms_));
    }
  }
  structure_.store(BuildInitialStructure(), std::memory_order_release);
  rebalancer_ = std::make_unique<Rebalancer>(this, cfg_.rebalancer_workers);
  rebalancer_->Start();
  gc_.StartBackgroundCollector();
}

ConcurrentPMA::~ConcurrentPMA() {
  CPMA_CHECK_MSG(snapshots_open_.load(std::memory_order_relaxed) == 0,
                 "ConcurrentPMA destroyed with open snapshots");
  Flush();
  rebalancer_->Stop();
  rebalancer_.reset();
  delete structure_.load(std::memory_order_acquire);
  // gc_'s destructor frees snapshots retired by resizes.
}

Structure* ConcurrentPMA::BuildInitialStructure() {
  const size_t spg = cfg_.segments_per_gate;
  size_t segs = std::max(cfg_.pma.initial_num_segments, 2 * spg);
  while (!IsPowerOfTwo(segs)) ++segs;
  auto* snap = new Structure();
  snap->version = 1;
  snap->segments_per_gate = spg;
  snap->storage = std::make_unique<Storage>(segs, cfg_.pma.segment_capacity,
                                            cfg_.pma.use_rewiring);
  const size_t num_gates = segs / spg;
  for (size_t g = 0; g < num_gates; ++g) {
    snap->gates.emplace_back(static_cast<uint32_t>(g), g * spg,
                             (g + 1) * spg);
  }
  snap->index =
      std::make_unique<StaticIndex>(num_gates, cfg_.index_fanout);
  RecomputeFences(snap, 0, num_gates);
  return snap;
}

size_t ConcurrentPMA::capacity() const {
  EpochGuard guard(gc_);
  return structure_.load(std::memory_order_acquire)->storage->capacity();
}

std::string ConcurrentPMA::Name() const {
  // The default contract (strict per-key FIFO) stays unsuffixed so bench
  // record identities are stable across the ISSUE 5 boundary; only the
  // relaxed A/B opt-out announces itself.
  const std::string suffix = strict_async_order_ ? "" : ",relaxed";
  switch (cfg_.async_mode) {
    case ConcurrentConfig::AsyncMode::kSync:
      return "ConcurrentPMA(sync" + suffix + ")";
    case ConcurrentConfig::AsyncMode::kOneByOne:
      return "ConcurrentPMA(1by1" + suffix + ")";
    case ConcurrentConfig::AsyncMode::kBatch:
      return "ConcurrentPMA(batch," + std::to_string(cfg_.t_delay_ms) + "ms" +
             suffix + ")";
  }
  return "ConcurrentPMA";
}

// --------------------------------------------------------------- updates

void ConcurrentPMA::Insert(Key key, Value value) {
  CPMA_CHECK_MSG(key <= kKeyMax, "key out of domain (UINT64_MAX reserved)");
  Update(GateOp{GateOp::Type::kInsert, key, value});
}

void ConcurrentPMA::Remove(Key key) {
  CPMA_CHECK_MSG(key <= kKeyMax, "key out of domain (UINT64_MAX reserved)");
  Update(GateOp{GateOp::Type::kRemove, key, 0});
}

void ConcurrentPMA::Update(GateOp op) {
  // Enqueue stamp (ISSUE 5): one fetch_add per producer-issued op; the
  // stamp rides the op through queues and rebalancer merges, where
  // CanonicalizeBatch resolves per-key winners by it.
  op.seq = seq_gen_.fetch_add(1, std::memory_order_relaxed);
  DispatchStamped(op);
}

void ConcurrentPMA::UpdateBatch(GateOp* ops, size_t n) {
  if (n == 0) return;
  // Block stamp reservation (ISSUE 8): one fetch_add covers the whole
  // producer-ordered run, linearizing it at the reservation point.
  // ops[i] gets base+i, so within the run the stamps reproduce issue
  // order exactly — CanonicalizeBatch and the strict-order machinery
  // cannot tell these ops from individually stamped ones.
  const uint64_t base = seq_gen_.fetch_add(n, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    CPMA_CHECK_MSG(ops[i].key <= kKeyMax,
                   "key out of domain (UINT64_MAX reserved)");
    ops[i].seq = base + i;
  }
  for (size_t i = 0; i < n; ++i) DispatchStamped(ops[i]);
}

void ConcurrentPMA::DispatchStamped(GateOp op) {
  const bool allow_queue =
      cfg_.async_mode != ConcurrentConfig::AsyncMode::kSync;
  // Reroutes: ops that lost their gate to a fence move or resize and
  // must re-dispatch through the index, in the order they were found.
  // Under strict_async_order this never happens (such ops are handed to
  // the master inside the combining queue instead); in the relaxed mode
  // the window between the fence move and the re-dispatch below is
  // exactly where a younger same-key op can overtake. The list owns no
  // heap memory until the first reroute, so a dispatch allocates nothing.
  std::vector<GateOp> reroutes;
  size_t next_reroute = 0;
  for (GateOp cur = op;; cur = reroutes[next_reroute++]) {
    if (next_reroute > 0) {
      stat_reroutes_.fetch_add(1, std::memory_order_relaxed);
      if (reroute_hook_) reroute_hook_(cur);
    }
    EpochGuard guard(gc_);
    for (;;) {
      Structure* snap = structure_.load(std::memory_order_acquire);
      size_t gid = snap->index->Lookup(cur.key);
      PrefetchGate(*snap, gid);
      GateAccess a;
      Gate* gate;
      for (;;) {
        gate = &snap->gates[gid];
        a = gate->WriterAccess(cur, allow_queue);
        if (a == GateAccess::kTooLow) {
          CPMA_CHECK(gid > 0);
          --gid;
        } else if (a == GateAccess::kTooHigh) {
          CPMA_CHECK(gid + 1 < snap->num_gates());
          ++gid;
        } else {
          break;
        }
      }
      if (a == GateAccess::kInvalidated) {
        guard.Refresh();
        continue;
      }
      if (a == GateAccess::kQueued) {
        pending_async_.fetch_add(1, std::memory_order_relaxed);
        stat_queued_ops_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      CPMA_CHECK(a == GateAccess::kOwner);
      OwnerApplyAndDrain(snap, gate, cur, &reroutes);
      break;
    }
    if (next_reroute == reroutes.size()) return;
  }
}

void ConcurrentPMA::OwnerApplyAndDrain(Structure* snap, Gate* gate, GateOp op,
                                       std::vector<GateOp>* reroute) {
  using AsyncMode = ConcurrentConfig::AsyncMode;
  const bool batch_mode = cfg_.async_mode == AsyncMode::kBatch;
  std::optional<GateOp> pending = op;
  bool pending_counted = false;  // true when `pending` came off the queue

  auto drop_pending = [&] {
    if (pending_counted) {
      pending_async_.fetch_sub(1, std::memory_order_relaxed);
    }
    pending.reset();
    pending_counted = false;
  };

  for (;;) {
    if (pending.has_value() && (pending->key < gate->low_fence() ||
                                pending->key > gate->high_fence())) {
      // A multi-gate rebalance moved the fences while we were parked;
      // re-dispatch through the index (paper §3.3). Reachable only in
      // relaxed mode (the pending op kept across a rebalance below):
      // everywhere else the op was fence-validated under this WRITE
      // hold, or popped from a queue the masters drain before any fence
      // move. Kept unconditionally as a cheap structural backstop.
      reroute->push_back(*pending);
      drop_pending();
    }
    if (pending.has_value()) {
      size_t trigger_seg = 0;
      if (ApplyOpLocal(snap, gate, *pending, &trigger_seg)) {
        drop_pending();
      } else if (batch_mode) {
        // Hand the gate's queue (including this op) to the rebalancer;
        // the t_delay throttle decides when it runs (paper §3.5).
        gate->OwnerPushFront({*pending});
        if (!pending_counted) {
          pending_async_.fetch_add(1, std::memory_order_relaxed);
        }
        pending.reset();
        pending_counted = false;
        const int64_t due =
            std::max(NowMillis(),
                     gate->last_global_rebalance_ms() + cfg_.t_delay_ms);
        rebalancer_->RequestBatch(snap->version, gate->id(), due);
        gate->WriterDetachKeepQueue();
        return;
      } else if (strict_async_order_) {
        // Strict per-key FIFO (ISSUE 5): hand the op to the master
        // INSIDE the combining queue instead of carrying it across the
        // rebalance in this frame. The master drains the queue of every
        // gate its window grows over and folds the drained ops into the
        // merged spread while holding all of those gates, so the op is
        // applied at its stamp-order position before any younger op can
        // reach the moved fences — the reroute (and its reordering
        // race) never exists. Push to the FRONT: the op is the oldest
        // unapplied op on this gate (its own latch acquisition, or a
        // pop off the queue head), and while the master is indifferent
        // (it canonicalizes by stamp), the writer itself may end up
        // draining this queue op-at-a-time after a shrink-probe
        // interleave (MasterAcquire + release without a drain) — a
        // back-push would then apply same-key ops out of issue order.
        gate->OwnerPushFront({*pending});
        if (!pending_counted) {
          pending_async_.fetch_add(1, std::memory_order_relaxed);
        }
        pending.reset();
        pending_counted = false;
        gate->TransferToRebalancer();
        rebalancer_->RequestRebalance(snap->version, gate->id(),
                                      trigger_seg);
        if (!gate->WriterReacquireAfterRebal()) {
          // Resize: the gate is gone, but the op is not — ExecuteResize
          // drained every combining queue (ours included) into the
          // merge before invalidating. Nothing left to do.
          return;
        }
        continue;  // nothing pending; drain the combining queue
      } else {
        // Relaxed §3.5 (pre-ISSUE-5, A/B mode): transfer the latch and
        // wait (paper §3.3), keeping the op in this frame. If the
        // rebalance moved the fences off the key, the top-of-loop check
        // reroutes it — the documented reordering window.
        gate->TransferToRebalancer();
        rebalancer_->RequestRebalance(snap->version, gate->id(),
                                      trigger_seg);
        if (!gate->WriterReacquireAfterRebal()) {
          // Resize: the gate is gone; our op restarts on the new
          // snapshot. Queued ops were merged by the master.
          reroute->push_back(*pending);
          drop_pending();
          return;
        }
        continue;  // re-validate fences, retry the op
      }
    }

    // Own op done — drain the combining queue. Sync mode drains too:
    // its queue is normally empty, but a strict-mode hand-off that
    // interleaved with a shrink probe (MasterAcquire without a drain,
    // released without a rebalance) can leave the handed-off op queued
    // for us to finish; releasing with it still queued would strand the
    // op and park the master forever.
    if (!batch_mode) {
      GateOp qop;
      if (gate->WriterPopOrRelease(&qop)) {
        pending = qop;
        pending_counted = true;
        continue;
      }
      return;  // queue empty: gate released
    }
    // Batch mode: take the whole queue at once, or — the common case —
    // find it empty and release in the same mutex round trip.
    std::vector<GateOp> local;
    if (!gate->WriterTakeQueueOrRelease(&local)) return;
    pending_async_.fetch_sub(static_cast<int64_t>(local.size()),
                             std::memory_order_relaxed);
    size_t kept = 0;
    for (const GateOp& qop : local) {
      if (qop.key < gate->low_fence() || qop.key > gate->high_fence()) {
        reroute->push_back(qop);
      } else {
        local[kept++] = qop;
      }
    }
    local.resize(kept);
    if (ApplyBatchLocal(snap, gate, &local)) continue;
    // Remainder does not fit inside the gate: back onto the queue —
    // *ahead* of anything that arrived while we processed the batch —
    // and over to the rebalancer.
    gate->OwnerPushFront(local);
    pending_async_.fetch_add(static_cast<int64_t>(local.size()),
                             std::memory_order_relaxed);
    const int64_t due = std::max(
        NowMillis(), gate->last_global_rebalance_ms() + cfg_.t_delay_ms);
    rebalancer_->RequestBatch(snap->version, gate->id(), due);
    gate->WriterDetachKeepQueue();
    return;
  }
}

bool ConcurrentPMA::ApplyOpLocal(Structure* snap, Gate* gate, const GateOp& op,
                                 size_t* trigger_seg) {
  // COW snapshots (ISSUE 9): before the first mutation under this hold,
  // hand every open snapshot its frozen image of the chunk.
  PreserveGateForSnapshots(snap, gate);
  Storage* st = snap->storage.get();
  const size_t B = st->segment_capacity();

  if (op.type == GateOp::Type::kRemove) {
    const size_t s = LocateSegment(*snap, *gate, op.key);
    Item* seg = st->segment(s);
    const uint32_t card = st->card(s);
    PrefetchItems(seg, card);  // the search, then the shift left
    const size_t pos = hotpath::SegmentLowerBoundForUpdate(seg, card, op.key);
    if (pos >= card || seg[pos].key != op.key) return true;  // absent
    // All live-item stores below are tagged: the gate version is odd
    // (we hold WRITE), but optimistic readers may race through here and
    // TSan must see the race as atomics (common/tagged.h).
    hotpath::TaggedMoveItems(seg + pos, seg + pos + 1, card - pos - 1);
    st->set_card(s, card - 1);
    count_.fetch_sub(1, std::memory_order_relaxed);
    if (pos == 0 && s > 0) {
      st->set_route(s, card > 1 ? seg[0].key : kKeySentinel);
    }
    MaybeRequestShrink(snap);
    return true;
  }

  int attempts = 0;
  for (;;) {
    const size_t s = LocateSegment(*snap, *gate, op.key);
    Item* seg = st->segment(s);
    const uint32_t card = st->card(s);
    // The shift right writes [pos, card]: one slot past the occupied
    // prefix, which stays inside the segment.
    PrefetchItems(seg, std::min<size_t>(card + 1, B));
    const size_t pos = hotpath::SegmentLowerBoundForUpdate(seg, card, op.key);
    if (pos < card && seg[pos].key == op.key) {
      TaggedStore(&seg[pos].value, op.value);  // upsert
      return true;
    }
    if (card < B) {
      hotpath::TaggedMoveItems(seg + pos + 1, seg + pos, card - pos);
      hotpath::TaggedStoreItem(seg + pos, Item{op.key, op.value});
      st->set_card(s, card + 1);
      if (pos == 0 && s > 0) st->set_route(s, op.key);
      st->bump_insert_count(s);
      count_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    // Segment full. A key past its last item fits the front of segment
    // s + 1 just as well (LocateSegment picks the rightmost route <= key,
    // so every key stored after s is greater): put it there when s + 1
    // is in this gate, has room, and is not part of the gate's empty
    // tail. An empty s + 1 before a non-empty segment is a hole that
    // typically lost this very key to a Remove; filling the empty tail
    // instead would pack an ascending run to 100% rather than spread it.
    if (pos == card && s + 1 < gate->seg_end() && st->card(s + 1) < B) {
      size_t t = s + 1;
      while (t < gate->seg_end() && st->card(t) == 0) ++t;
      if (t < gate->seg_end()) {
        const uint32_t next_card = st->card(s + 1);
        Item* next = st->segment(s + 1);
        hotpath::TaggedMoveItems(next + 1, next, next_card);
        hotpath::TaggedStoreItem(next, Item{op.key, op.value});
        st->set_card(s + 1, next_card + 1);
        st->set_route(s + 1, op.key);
        st->bump_insert_count(s + 1);
        count_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    // Local rebalance over in-gate calibrator windows.
    if (++attempts > 8) {
      *trigger_seg = s;
      return false;
    }
    DensityBounds bounds(cfg_.pma, st->num_segments());
    const size_t gate_level = Log2Floor(snap->segments_per_gate);
    bool spread_done = false;
    for (size_t level = 1;
         level <= std::min(gate_level, bounds.root_level()); ++level) {
      size_t b, e;
      WindowAt(s, level, &b, &e);
      if (b < gate->seg_begin() || e > gate->seg_end()) break;
      size_t m = 0;
      for (size_t i = b; i < e; ++i) m += st->card(i);
      const size_t cap = (e - b) * B;
      const double delta =
          static_cast<double>(m) / static_cast<double>(cap);
      if (delta <= bounds.Tau(level) && m + (e - b) <= cap) {
        WindowPlan plan =
            PlanSpread(*st, b, e, adaptive_effective(), /*trigger_seg=*/s);
        CopyPartitionToBuffer(st, plan, b, e);
        FinishSpread(st, plan);
        stat_local_rebalances_.fetch_add(1, std::memory_order_relaxed);
        spread_done = true;
        break;
      }
    }
    if (!spread_done) {
      *trigger_seg = s;
      return false;  // needs the rebalancer (window exceeds the gate)
    }
  }
}

bool ConcurrentPMA::ApplyBatchLocal(Structure* snap, Gate* gate,
                                    std::vector<GateOp>* pending) {
  size_t trigger = 0;
  // Canonicalize first (per key the last op wins) so that the
  // deletions-before-insertions passes below cannot reorder ops on the
  // *same* key — only the cross-key order is relaxed (paper §3.5).
  std::vector<BatchEntry> canon = CanonicalizeBatch(*pending);
  pending->clear();

  // Large batches go straight through one merged gate-window spread
  // (run-length merge, deletions as skipped runs) instead of the
  // op-at-a-time passes below: per-op application shifts ~B/2 items per
  // insert plus its share of local rebalances, while the merged spread
  // touches each window element exactly once — the crossover is when
  // the batch's shift work reaches the window's live size. When the
  // merged total does not fit, fall through: the deletions may free
  // enough room, and whatever remains spills to the rebalancer.
  {
    Storage* st = snap->storage.get();
    const size_t B = st->segment_capacity();
    size_t window_live = 0;
    for (size_t s = gate->seg_begin(); s < gate->seg_end(); ++s) {
      window_live += st->card(s);
    }
    if (!canon.empty() && canon.size() * (B / 2) >= window_live &&
        TryMergedGateSpread(snap, gate, canon)) {
      return true;
    }
  }
  // First pass: all deletions, freeing space for the insertions.
  std::vector<BatchEntry> inserts;
  for (const BatchEntry& e : canon) {
    if (e.is_delete) {
      CPMA_CHECK(ApplyOpLocal(snap, gate,
                              GateOp{GateOp::Type::kRemove, e.key, 0},
                              &trigger));
    } else {
      inserts.push_back(e);
    }
  }
  // Second pass: insertions — individually while they fit without
  // spilling out of the gate, then as one merged gate-window spread.
  size_t next = 0;
  while (next < inserts.size() &&
         ApplyOpLocal(snap, gate,
                      GateOp{GateOp::Type::kInsert, inserts[next].key,
                             inserts[next].value},
                      &trigger)) {
    ++next;
  }
  if (next == inserts.size()) return true;
  std::vector<BatchEntry> batch(inserts.begin() + next, inserts.end());
  if (TryMergedGateSpread(snap, gate, batch)) return true;
  for (const BatchEntry& e : batch) {
    // Restore the winner's enqueue stamp: the remainder re-enters the
    // queue and must compete against fresh (younger) ops under its
    // original issue order, not a fabricated one.
    pending->push_back(GateOp{GateOp::Type::kInsert, e.key, e.value, e.seq});
  }
  return false;
}

bool ConcurrentPMA::TryMergedGateSpread(Structure* snap, Gate* gate,
                                        const std::vector<BatchEntry>& ops) {
  PreserveGateForSnapshots(snap, gate);  // ISSUE 9: pre-image before mutation
  Storage* st = snap->storage.get();
  const size_t B = st->segment_capacity();
  const size_t b = gate->seg_begin();
  const size_t e = gate->seg_end();
  size_t ins = 0, del = 0;
  const size_t total = CountMerged(*st, b, e, ops, &ins, &del);
  DensityBounds bounds(cfg_.pma, st->num_segments());
  const size_t gate_level = Log2Floor(snap->segments_per_gate);
  const size_t cap = (e - b) * B;
  const double delta =
      static_cast<double>(total) / static_cast<double>(cap);
  if (delta > bounds.Tau(std::min(gate_level, bounds.root_level())) ||
      total + (e - b) > cap) {
    return false;
  }
  WindowPlan plan = PlanMergedSpread(*st, b, e, total);
  MergedCopyToBuffer(st, plan, ops);
  FinishSpread(st, plan);
  count_.fetch_add(ins, std::memory_order_relaxed);
  count_.fetch_sub(del, std::memory_order_relaxed);
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  if (del > 0) MaybeRequestShrink(snap);
  return true;
}

size_t ConcurrentPMA::LocateSegment(const Structure& snap, const Gate& gate,
                                    Key key) const {
  // The routing keys double as the gate's first-keys array: route(s) is
  // the first key of a non-empty segment, kKeySentinel for an empty one
  // (compares greater than any valid key, so empties drop out), kKeyMin
  // for global segment 0. The rightmost route <= key is therefore the
  // candidate segment, picked branchlessly/SIMD (hotpath/locate.h)
  // instead of the old early-exit scan over segment(s)[0].key. Only for
  // an empty global segment 0 can this pick an empty segment (its route
  // stays kKeyMin) — then the key precedes every stored key of the gate
  // and inserting at segment 0, position 0 is exactly right.
  const Storage& st = *snap.storage;
  const size_t idx =
      hotpath::TaggedLocateRoute(st.routes().data() + gate.seg_begin(),
                                 gate.seg_end() - gate.seg_begin(), key);
  if (idx != hotpath::kNoRoute) return gate.seg_begin() + idx;
  // Key precedes every stored key of the chunk (rare — only next to the
  // low fence): fall back to the first non-empty segment.
  for (size_t s = gate.seg_begin(); s < gate.seg_end(); ++s) {
    if (st.card(s) > 0) return s;
  }
  return gate.seg_begin();
}

void ConcurrentPMA::MaybeRequestShrink(Structure* snap) {
  const size_t cap = snap->storage->capacity();
  if (snap->num_gates() <= 2) return;
  if (static_cast<double>(count_.load(std::memory_order_relaxed)) <
      cfg_.pma.shrink_density * static_cast<double>(cap)) {
    bool expected = false;
    if (snap->resize_requested.compare_exchange_strong(expected, true)) {
      rebalancer_->RequestShrink(snap->version);
    }
  }
}

// ---------------------------------------------------------------- reads
//
// All three readers (Find, SumAll, Scan) are optimistic-first: descend
// the static index, snapshot the gate's seqlock version, read the live
// storage with tagged accesses, validate. The blocking READ-latch path
// survives as the per-gate fallback after `optimistic_retries_` failed
// windows (0 = always blocking; CPMA_OPTIMISTIC_RETRIES env override).
// Protocol and ordering argument: concurrent_pma.h / common/latches.h.

ConcurrentPMA::OptRead ConcurrentPMA::TryOptimisticFind(const Structure& snap,
                                                        Key key,
                                                        Value* value) const {
  const Storage& st = *snap.storage;
  const uint32_t B = static_cast<uint32_t>(st.segment_capacity());
  size_t gid = snap.index->Lookup(key);
  PrefetchGate(snap, gid);
  for (int attempt = 0; attempt < optimistic_retries_; ++attempt) {
    const Gate& gate = snap.gates[gid];
    const uint64_t v = gate.version().ReadBegin();
    if (!SeqVersion::Stable(v)) continue;  // mutator active on this gate
    if (gate.invalidated_relaxed()) return OptRead::kRestart;
    const Key lo = gate.low_fence();
    const Key hi = gate.high_fence();
    if (key < lo || key > hi) {
      // Only a validated version proves [lo, hi] was read untorn;
      // then the neighbour walk is as sound as the latched one. A walk
      // burns an attempt, which bounds fence ping-pong under churn.
      if (!gate.version().Validate(v)) continue;
      if (key < lo) {
        if (gid == 0) return OptRead::kFallback;
        --gid;
      } else {
        if (gid + 1 >= snap.num_gates()) return OptRead::kFallback;
        ++gid;
      }
      continue;
    }
    const size_t s = LocateSegment(snap, gate, key);
    const Item* seg = st.segment(s);
    // Clamp a (possibly racing) cardinality so the search never leaves
    // the segment; any stored card is <= B, the min is belt-and-braces.
    const uint32_t card = std::min(st.card(s), B);
    PrefetchItems(seg, card);
    const size_t pos = hotpath::TaggedSegmentLowerBound(seg, card, key);
    Item it{kKeySentinel, 0};
    if (pos < card) it = hotpath::TaggedLoadItem(seg + pos);
    if (!gate.version().Validate(v)) continue;
    // Stable window: the lookup linearizes at the validation point.
    if (it.key == key) {
      if (value != nullptr) *value = it.value;
      return OptRead::kHit;
    }
    return OptRead::kMiss;
  }
  return OptRead::kFallback;
}

bool ConcurrentPMA::Find(Key key, Value* value) const {
  CPMA_CHECK_MSG(key <= kKeyMax, "key out of domain (UINT64_MAX reserved)");
  EpochGuard guard(gc_);
  for (;;) {
    Structure* snap = structure_.load(std::memory_order_acquire);
    switch (TryOptimisticFind(*snap, key, value)) {
      case OptRead::kHit:
        return true;
      case OptRead::kMiss:
        return false;
      case OptRead::kRestart:
        guard.Refresh();
        continue;
      case OptRead::kFallback:
        break;
    }
    stat_read_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    TailEventRing::Global().RecordInstant(TailEvent::kReadFallback);
    // Blocking fallback: the pre-optimistic READ-latch protocol.
    size_t gid = snap->index->Lookup(key);
    PrefetchGate(*snap, gid);
    GateAccess a;
    Gate* gate;
    for (;;) {
      gate = &snap->gates[gid];
      a = gate->ReaderAccess(&key);
      if (a == GateAccess::kTooLow) {
        CPMA_CHECK(gid > 0);
        --gid;
      } else if (a == GateAccess::kTooHigh) {
        CPMA_CHECK(gid + 1 < snap->num_gates());
        ++gid;
      } else {
        break;
      }
    }
    if (a == GateAccess::kInvalidated) {
      guard.Refresh();
      continue;
    }
    const Storage& st = *snap->storage;
    const size_t s = LocateSegment(*snap, *gate, key);
    const Item* seg = st.segment(s);
    const uint32_t card = st.card(s);
    PrefetchItems(seg, card);
    const size_t pos = SegmentLowerBound(seg, card, key);
    const bool found = pos < card && seg[pos].key == key;
    if (found && value != nullptr) *value = seg[pos].value;
    gate->ReaderRelease();
    return found;
  }
}

namespace {

// The VisitGates readers. Take(run, n) runs inside the window or the
// latch hold (tagged loads only): it adds up to n items of the run to
// what the reader holds and returns how many it took (fewer means it is
// full). Emit() runs after validation or release, hands everything held
// over and returns false to stop; Drop() forgets it (a torn window).

/// Scan: stages at most kStage items on the stack and emits them
/// straight from the validated copy, so a short scan stops the moment
/// its callback does and never allocates.
class BoundedScanReader {
 public:
  explicit BoundedScanReader(const ScanCallback& cb) : cb_(cb) {}
  size_t Take(const Item* run, size_t n) {
    const size_t m = std::min(n, kStage - n_);
    hotpath::TaggedReadItems(buf_ + n_, run, m);
    n_ += m;
    return m;
  }
  bool Emit() {
    const size_t n = n_;
    n_ = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!cb_(buf_[i].key, buf_[i].value)) return false;
    }
    return true;
  }
  void Drop() { n_ = 0; }

 private:
  static constexpr size_t kStage = 128;
  const ScanCallback& cb_;
  Item buf_[kStage];
  size_t n_ = 0;
};

/// ScanCursor: stages one run into the caller's (empty) vector, is full
/// once it holds one, and pauses the visit when it is handed over.
class ChunkReader {
 public:
  explicit ChunkReader(std::vector<Item>* out) : out_(out) {}
  size_t Take(const Item* run, size_t n) {
    if (!out_->empty()) return 0;
    out_->resize(n);
    hotpath::TaggedReadItems(out_->data(), run, n);
    return n;
  }
  bool Emit() { return false; }
  void Drop() { out_->clear(); }

 private:
  std::vector<Item>* out_;
};

/// SumAll: folds runs in place and commits the fold once the window
/// validated — copy-free.
class SumReader {
 public:
  size_t Take(const Item* run, size_t n) {
    uint64_t fold = 0;  // a local: held_ could alias the items
    for (size_t i = 0; i < n; ++i) fold += TaggedLoad(&run[i].value);
    held_ += fold;
    return n;
  }
  bool Emit() {
    sum_ += held_;
    held_ = 0;
    return true;
  }
  void Drop() { held_ = 0; }
  uint64_t sum() const { return sum_; }

 private:
  uint64_t sum_ = 0;
  uint64_t held_ = 0;
};

}  // namespace

// One gate-visit routine serves Scan, ScanCursor and SumAll. It walks
// the items in [*from, max] one segment run at a time, starting at the
// segment of the resume key *from. The reader takes each run inside the
// gate's seqlock window and gets to emit it only once the window
// validated, so consumers never see torn data. Once the gate's
// optimistic budget is spent, runs are taken under the READ latch
// instead, gathered until the reader is full and emitted after the
// release, so consumers never run inside a latch. *from only ever
// advances: past each emitted run, and to high fence + 1 once a gate is
// done. A failed window therefore discards at most one run, and a
// restart or fallback resumes without re-emitting anything. When a
// fence moved right between two gate visits, the resume key lies below
// the next gate's low fence: the visit walks left to the gate that now
// holds it instead of skipping the keys the move shifted there. Returns
// true when the range is exhausted, false when Emit stopped the visit.
template <typename Reader>
bool ConcurrentPMA::VisitGates(EpochGuard* guard, Key* from, Key max,
                               Reader* reader) const {
  for (;;) {  // one pass per snapshot; a resize restarts at *from
    if (*from > max) return true;
    Structure* snap = structure_.load(std::memory_order_acquire);
    const Storage& st = *snap->storage;
    const uint32_t B = static_cast<uint32_t>(st.segment_capacity());
    size_t gid = snap->index->Lookup(*from);
    PrefetchGate(*snap, gid);
    int attempts = 0;      // failed windows on this gate since progress
    bool latched = false;  // budget spent: READ latch until the gate ends
    bool resume = true;    // this gate's first segment is searched for *from
    for (;;) {
      Gate& gate = snap->gates[gid];
      uint64_t v = 0;
      if (!latched && attempts >= optimistic_retries_) {
        latched = true;
        stat_read_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        TailEventRing::Global().RecordInstant(TailEvent::kReadFallback);
      }
      if (latched) {
        const GateAccess a = gate.ReaderAccess(from);
        if (a == GateAccess::kInvalidated) break;
        if (a == GateAccess::kTooLow) {
          CPMA_CHECK(gid > 0);
          --gid;
          continue;
        }
        if (a == GateAccess::kTooHigh) {
          CPMA_CHECK(gid + 1 < snap->num_gates());
          ++gid;
          attempts = 0;
          latched = false;
          continue;
        }
      } else {
        v = gate.version().ReadBegin();
        if (!SeqVersion::Stable(v)) {
          ++attempts;
          continue;
        }
        if (gate.invalidated_relaxed()) break;
      }
      const Key lo = gate.low_fence();
      const Key hi = gate.high_fence();
      if (*from < lo || *from > hi) {  // optimistic only: the latch checked
        // Only a validated version proves [lo, hi] untorn; then the
        // neighbour walk is as sound as the latched one.
        if (!gate.version().Validate(v)) {
          ++attempts;
          continue;
        }
        if (*from > hi) {  // nothing here (e.g. an empty gate)
          CPMA_CHECK(gid + 1 < snap->num_gates());
          ++gid;
          continue;
        }
        // A fence moved right since the previous gate was read: the
        // keys it shifted sit left of here. The walk burns an attempt,
        // which bounds fence ping-pong under churn.
        CPMA_CHECK(gid > 0);
        --gid;
        ++attempts;
        continue;
      }
      // Closes the window: validation, or the latch release.
      auto close = [&] {
        if (!latched) return gate.version().Validate(v);
        gate.ReaderRelease();
        return true;
      };
      auto served = [&] {
        if (!latched) {
          stat_optimistic_gate_reads_.fetch_add(1, std::memory_order_relaxed);
        }
      };
      enum class Step { kGateEnd, kRangeEnd, kTorn, kRelatch };
      Step step = Step::kGateEnd;
      bool held = false;  // the reader holds items not yet handed over
      Key held_last = 0;  // the greatest of them
      size_t s = LocateSegment(*snap, gate, *from);
      if (resume) PrefetchItems(st.segment(s), std::min(st.card(s), B));
      for (; step == Step::kGateEnd && s < gate.seg_end(); ++s) {
        // Prefetch stays inside the gate: card(s+1) of a foreign gate
        // would race with its writer outside any validated window.
        if (s + 1 < gate.seg_end()) {
          hotpath::PrefetchSegment(st.segment(s + 1), st.card(s + 1));
        }
        const Item* seg = st.segment(s);
        // Clamp a racing cardinality so no read leaves the segment.
        const uint32_t card = std::min(st.card(s), B);
        // Only the resume segment needs a search: later segments start
        // past *from (touching one line instead of a search's several).
        size_t i = 0;
        if (card > 0 && TaggedLoad(&seg[0].key) < *from) {
          i = hotpath::TaggedSegmentLowerBound(seg, card, *from);
        }
        size_t end = card;
        // Only a gate reaching past max needs trimming.
        if (hi > max && i < card && TaggedLoad(&seg[card - 1].key) > max) {
          end = hotpath::TaggedSegmentLowerBound(seg, card, max + 1);
          step = Step::kRangeEnd;
        }
        while (i < end) {
          const size_t n = reader->Take(seg + i, end - i);
          if (n > 0) {
            held = true;
            held_last = TaggedLoad(&seg[i + n - 1].key);
            i += n;
          }
          // A latch hold gathers runs until the reader is full; an
          // optimistic window hands each run over once it validated.
          if (latched && i == end) break;
          if (!close()) {
            reader->Drop();
            step = Step::kTorn;
            break;
          }
          held = false;
          *from = held_last + 1;  // held_last <= max <= kKeyMax
          if (!reader->Emit()) {
            served();
            return false;
          }
          if (held_last >= max) {
            served();
            return true;
          }
          attempts = 0;  // progress: a later torn window is a fresh try
          if (latched) {  // storage may move once unlatched: re-enter
            step = Step::kRelatch;
            break;
          }
        }
      }
      if (step == Step::kTorn) {
        ++attempts;
        continue;
      }
      if (step == Step::kRelatch) continue;
      if (!close()) {
        ++attempts;
        continue;
      }
      if (held) {  // the latch hold's last gathering
        *from = held_last + 1;
        if (!reader->Emit()) return false;
      }
      served();
      if (step == Step::kRangeEnd || hi >= max) return true;
      // The whole gate at or after *from was read in one validated
      // window (or one latch hold): resume at the next gate.
      *from = hi + 1;
      ++gid;
      attempts = 0;
      latched = false;
      resume = false;
    }
    guard->Refresh();  // the snapshot was retired by a resize
  }
}

ConcurrentPMA::ScanCursor::ScanCursor(const ConcurrentPMA& pma, Key min,
                                      Key max)
    : pma_(pma), guard_(pma.gc_), max_(max), from_(min), done_(min > max) {}

bool ConcurrentPMA::ScanCursor::NextChunk(std::vector<Item>* out) {
  out->clear();
  ChunkReader reader(out);
  if (done_ || pma_.VisitGates(&guard_, &from_, max_, &reader)) {
    done_ = true;
    return false;
  }
  return true;
}

void ConcurrentPMA::Scan(Key min, Key max, const ScanCallback& cb) const {
  BoundedScanReader reader(cb);
  EpochGuard guard(gc_);
  Key from = min;
  VisitGates(&guard, &from, max, &reader);
}

uint64_t ConcurrentPMA::SumAll() const {
  SumReader reader;
  EpochGuard guard(gc_);
  Key from = kKeyMin;
  VisitGates(&guard, &from, kKeyMax, &reader);
  return reader.sum();
}

// ------------------------------------------------- storage observability

bool ConcurrentPMA::storage_rewiring_enabled() const {
  EpochGuard guard(gc_);
  return structure_.load(std::memory_order_acquire)
      ->storage->rewiring_enabled();
}

size_t ConcurrentPMA::storage_page_bytes() const {
  EpochGuard guard(gc_);
  return structure_.load(std::memory_order_acquire)->storage->page_bytes();
}

size_t ConcurrentPMA::storage_backing_page_bytes() const {
  EpochGuard guard(gc_);
  return structure_.load(std::memory_order_acquire)
      ->storage->backing_page_bytes();
}

uint64_t ConcurrentPMA::storage_num_remaps() const {
  EpochGuard guard(gc_);
  const Structure* snap = structure_.load(std::memory_order_acquire);
  return snap->retired_publishes.remaps + snap->storage->num_remaps();
}

uint64_t ConcurrentPMA::storage_num_fallback_copies() const {
  EpochGuard guard(gc_);
  const Structure* snap = structure_.load(std::memory_order_acquire);
  return snap->retired_publishes.fallback_copies +
         snap->storage->num_fallback_copies();
}

uint64_t ConcurrentPMA::storage_num_remap_failures() const {
  EpochGuard guard(gc_);
  const Structure* snap = structure_.load(std::memory_order_acquire);
  return snap->retired_publishes.remap_failures +
         snap->storage->num_remap_failures();
}

// --------------------------------------------- fault tolerance (ISSUE 7)

bool ConcurrentPMA::fallback_backend_active() const {
  EpochGuard guard(gc_);
  return structure_.load(std::memory_order_acquire)
      ->storage->fallback_backend_active();
}

uint64_t ConcurrentPMA::num_watchdog_trips() const {
  // Out of line: Rebalancer is incomplete in the header.
  return rebalancer_->watchdog_trips();
}

void ConcurrentPMA::ReportError(const Status& status) {
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    last_error_ = status;
  }
  if (error_cb_) error_cb_(status);
}

// ------------------------------------------------------------- lifecycle

void ConcurrentPMA::Flush() {
  for (;;) {
    rebalancer_->Drain();
    if (pending_async_.load(std::memory_order_acquire) == 0 &&
        rebalancer_->Idle()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool ConcurrentPMA::CheckInvariants(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  Structure* snap = structure_.load(std::memory_order_acquire);
  const Storage& st = *snap->storage;
  const size_t B = st.segment_capacity();
  size_t total = 0;
  Key prev = 0;
  bool have_prev = false;
  for (size_t g = 0; g < snap->num_gates(); ++g) {
    const Gate& gate = snap->gates[g];
    if (g == 0 && gate.low_fence() != kKeyMin) {
      return fail("gate 0 low fence must be kKeyMin");
    }
    if (g + 1 < snap->num_gates()) {
      if (gate.high_fence() != snap->gates[g + 1].low_fence() - 1) {
        return fail("fences not contiguous at gate " + std::to_string(g));
      }
    } else if (gate.high_fence() != kKeySentinel) {
      return fail("last gate high fence must be the sentinel");
    }
    if (snap->index->separator(g) != gate.low_fence()) {
      return fail("index separator mismatch at gate " + std::to_string(g));
    }
    if (gate.writer_active_unsafe() || gate.queue_size_unsafe() != 0) {
      return fail("combining queue not drained at gate " +
                  std::to_string(g));
    }
    for (size_t s = gate.seg_begin(); s < gate.seg_end(); ++s) {
      const uint32_t card = st.card(s);
      if (card > B) return fail("segment cardinality exceeds capacity");
      const Item* seg = st.segment(s);
      for (uint32_t i = 0; i < card; ++i) {
        if (have_prev && seg[i].key <= prev) {
          return fail("keys not strictly increasing at segment " +
                      std::to_string(s));
        }
        if (seg[i].key < gate.low_fence() ||
            seg[i].key > gate.high_fence()) {
          return fail("key outside gate fences at gate " +
                      std::to_string(g));
        }
        prev = seg[i].key;
        have_prev = true;
      }
      if (card > 0 && s != 0 && st.route(s) != seg[0].key) {
        return fail("routing key mismatch at segment " + std::to_string(s));
      }
      total += card;
    }
  }
  if (total != count_.load(std::memory_order_relaxed)) {
    return fail("element count mismatch: stored " + std::to_string(total) +
                " vs counter " + std::to_string(count_.load()));
  }
  return true;
}

}  // namespace cpma
