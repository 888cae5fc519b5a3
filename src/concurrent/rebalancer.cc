#include "concurrent/rebalancer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <new>

#include "common/failpoint.h"
#include "common/pin.h"
#include "common/timer.h"
#include "concurrent/event_ring.h"
#include "pma/density.h"

namespace cpma {

std::vector<BatchEntry> CanonicalizeEntries(std::vector<BatchEntry> all) {
  // Per-key winner = highest enqueue stamp (ISSUE 5), output sorted by
  // key. Inside one queue arrival order tracks stamp order per
  // producer, but a master drain concatenates the queues of every gate
  // its window covers — queues that accumulated at different times — so
  // queue position alone is not the issue order. Sorting by (key, seq)
  // stably and keeping each run's last element picks the stamp winner
  // in one contiguous sort + sweep (the pre-stamp code was the same
  // shape keyed on arrival order; unstamped entries, seq 0, keep it as
  // the tie-break).
  std::stable_sort(all.begin(), all.end(),
                   [](const BatchEntry& a, const BatchEntry& b) {
                     return a.key != b.key ? a.key < b.key : a.seq < b.seq;
                   });
  std::vector<BatchEntry> out;
  out.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    if (i + 1 == all.size() || all[i + 1].key != all[i].key) {
      out.push_back(all[i]);
    }
  }
  return out;
}

Rebalancer::Rebalancer(ConcurrentPMA* pma, size_t num_workers)
    : pma_(pma),
      workers_(num_workers,
               // Per-shard worker affinity (ISSUE 8): when the config
               // names CPUs, each worker pins to its round-robin slot in
               // that set via the topology-aware pinner. Best effort —
               // a failed pin leaves the worker floating, as before.
               pma->config().worker_cpus.empty()
                   ? std::function<void(size_t)>(nullptr)
                   : [pma](size_t i) {
                       const auto& cpus = pma->config().worker_cpus;
                       PinToCpu(cpus[i % cpus.size()]);
                     }) {}

Rebalancer::~Rebalancer() { Stop(); }

void Rebalancer::Start() {
  if (master_.joinable()) return;
  master_ = std::thread([this] {
    // The master shares the shard's first CPU: it mostly coordinates
    // (drains queues, plans windows) and sleeps between requests, so
    // co-locating it with worker 0 keeps the whole rebalance pipeline
    // of a shard on that shard's cores.
    if (!pma_->config().worker_cpus.empty()) {
      PinToCpu(pma_->config().worker_cpus[0]);
    }
    MasterLoop();
  });
  if (pma_->watchdog_ms_ > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

void Rebalancer::Stop() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (!master_.joinable()) return;
    stop_ = true;
    ignore_due_times_ = true;
  }
  cv_.notify_all();
  master_.join();
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(wd_m_);
      wd_stop_ = true;
    }
    wd_cv_.notify_all();
    watchdog_.join();
  }
}

void Rebalancer::Progress(const char* phase) {
  phase_.store(phase, std::memory_order_relaxed);
  progress_stamp_.fetch_add(1, std::memory_order_relaxed);
}

void Rebalancer::WatchdogLoop() {
  const auto interval = std::chrono::milliseconds(pma_->watchdog_ms_);
  uint64_t last_stamp = progress_stamp_.load(std::memory_order_relaxed);
  uint64_t stalled_intervals = 0;
  std::unique_lock<std::mutex> lk(wd_m_);
  for (;;) {
    if (wd_cv_.wait_for(lk, interval, [&] { return wd_stop_; })) return;
    const char* phase = phase_.load(std::memory_order_relaxed);
    const uint64_t stamp = progress_stamp_.load(std::memory_order_relaxed);
    if (phase == nullptr || stamp != last_stamp) {
      last_stamp = stamp;
      stalled_intervals = 0;
      continue;
    }
    ++stalled_intervals;
    // Re-dump with exponential rate limiting if the stall persists
    // (intervals 1, 2, 4, 8, ...), so a wedged master doesn't flood
    // stderr while still leaving a trail.
    if ((stalled_intervals & (stalled_intervals - 1)) != 0) continue;
    watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
    TailEventRing::Global().RecordInstant(TailEvent::kWatchdogStall);
    const size_t gb = active_gb_.load(std::memory_order_relaxed);
    const size_t ge = active_ge_.load(std::memory_order_relaxed);
    std::fprintf(stderr,
                 "[cpma] WATCHDOG: rebalancer made no progress for >= %lld ms "
                 "(phase=%s stamp=%llu window=[%zu,%zu))\n",
                 static_cast<long long>(pma_->watchdog_ms_ *
                                        (stalled_intervals + 1)),
                 phase, static_cast<unsigned long long>(stamp), gb, ge);
    // Gate-state dump for the active window. The epoch pin keeps the
    // snapshot alive while we walk its gates; DumpStateForStall never
    // blocks, so the watchdog cannot join the deadlock it is reporting.
    EpochGuard guard(pma_->gc_);
    Structure* snap = pma_->structure_.load(std::memory_order_acquire);
    constexpr size_t kMaxDumpGates = 32;
    const size_t dump_end = std::min({ge, snap->num_gates(),
                                      gb + kMaxDumpGates});
    for (size_t g = gb; g < dump_end; ++g) {
      snap->gates[g].DumpStateForStall(stderr);
    }
    if (dump_end < ge && dump_end < snap->num_gates()) {
      std::fprintf(stderr, "  ... (%zu more gates suppressed)\n",
                   std::min(ge, snap->num_gates()) - dump_end);
    }
  }
}

void Rebalancer::RequestRebalance(uint64_t version, uint32_t gate_id,
                                  size_t trigger_seg) {
  {
    std::lock_guard<std::mutex> lk(m_);
    ready_.push_back(Request{Request::Type::kRebalance, version, gate_id,
                             trigger_seg, 0});
  }
  cv_.notify_all();
}

void Rebalancer::RequestBatch(uint64_t version, uint32_t gate_id,
                              int64_t due_ms) {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (due_ms <= NowMillis() || ignore_due_times_) {
      ready_.push_back(
          Request{Request::Type::kBatch, version, gate_id, 0, due_ms});
    } else {
      deferred_.push_back(
          Request{Request::Type::kBatch, version, gate_id, 0, due_ms});
    }
  }
  cv_.notify_all();
}

void Rebalancer::RequestShrink(uint64_t version) {
  {
    std::lock_guard<std::mutex> lk(m_);
    ready_.push_back(Request{Request::Type::kShrink, version, 0, 0, 0});
  }
  cv_.notify_all();
}

void Rebalancer::Drain() {
  std::unique_lock<std::mutex> lk(m_);
  if (!master_.joinable()) return;
  ignore_due_times_ = true;
  cv_.notify_all();
  idle_cv_.wait(lk, [&] {
    return ready_.empty() && deferred_.empty() && !processing_;
  });
  ignore_due_times_ = false;
}

bool Rebalancer::Idle() {
  std::lock_guard<std::mutex> lk(m_);
  return ready_.empty() && deferred_.empty() && !processing_;
}

void Rebalancer::MasterLoop() {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    // Promote due deferred batches.
    const int64_t now = NowMillis();
    int64_t next_due = INT64_MAX;
    for (auto it = deferred_.begin(); it != deferred_.end();) {
      if (ignore_due_times_ || it->due_ms <= now) {
        ready_.push_back(*it);
        it = deferred_.erase(it);
      } else {
        next_due = std::min(next_due, it->due_ms);
        ++it;
      }
    }
    if (!ready_.empty()) {
      Request req = ready_.front();
      ready_.pop_front();
      processing_ = true;
      lk.unlock();
      Dispatch(req);
      lk.lock();
      processing_ = false;
      idle_cv_.notify_all();
      continue;
    }
    idle_cv_.notify_all();
    if (stop_) return;
    if (next_due == INT64_MAX) {
      cv_.wait(lk);
    } else {
      cv_.wait_for(lk, std::chrono::milliseconds(next_due - now + 1));
    }
  }
}

void Rebalancer::Dispatch(const Request& req) {
  if (CPMA_FAILPOINT("rebalancer.stall")) {
    // Injected stall (watchdog tests): freeze the master with the phase
    // set and the stamp unmoving — long enough for several watchdog
    // samples even under scheduler jitter, or a token pause when the
    // watchdog is disabled.
    const int64_t ms = pma_->watchdog_ms_ > 0 ? pma_->watchdog_ms_ * 5 : 10;
    Progress("stall(injected)");
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  switch (req.type) {
    case Request::Type::kRebalance:
    case Request::Type::kBatch:
      HandleWindowWork(req);
      break;
    case Request::Type::kShrink:
      HandleShrink(req);
      break;
  }
  Progress(nullptr);  // idle: the watchdog stands down
}

// Gate-version lifecycle across the rebalance protocol (ISSUE 4): every
// acquisition below rides the gate state machine, which bumps the
// seqlock word on its WRITE/REBAL edges — MasterAcquire turns a FREE
// gate odd (a transferred REBAL gate is already odd from its writer and
// keeps the same mutation window), MasterRelease turns it even again
// after fences/storage settled, and InvalidateAndRelease publishes the
// invalidated flag on the same release edge so optimistic readers of
// the retired snapshot restart instead of validating stale chunks. No
// explicit version manipulation belongs here.
void Rebalancer::AcquireGates(Structure* snap, size_t nb, size_t ne,
                              size_t* gb, size_t* ge) {
  // Stamp before every potentially-blocking acquisition: a gate that
  // never frees leaves the stamp frozen in the "acquire" phase, which is
  // exactly the diagnosis the watchdog prints.
  auto acquire = [&](size_t g) {
    Progress("acquire-gates");
    snap->gates[g].MasterAcquire();
  };
  if (*gb == *ge) {  // nothing held yet
    for (size_t g = nb; g < ne; ++g) acquire(g);
    *gb = nb;
    *ge = ne;
  } else {
    CPMA_CHECK(nb <= *gb && ne >= *ge);
    for (size_t g = nb; g < *gb; ++g) acquire(g);
    for (size_t g = *ge; g < ne; ++g) acquire(g);
    *gb = nb;
    *ge = ne;
  }
  active_gb_.store(*gb, std::memory_order_relaxed);
  active_ge_.store(*ge, std::memory_order_relaxed);
}

void Rebalancer::ReleaseGates(Structure* snap, size_t gb, size_t ge) {
  for (size_t g = gb; g < ge; ++g) snap->gates[g].MasterRelease();
}

void Rebalancer::AcquireGatesAndDrain(Structure* snap, size_t nb, size_t ne,
                                      size_t* gb, size_t* ge,
                                      std::vector<GateOp>* raw) {
  const size_t old_b = *gb, old_e = *ge;
  AcquireGates(snap, nb, ne, gb, ge);
  auto drain = [&](size_t g) {
    Gate& gate = snap->gates[g];
    gate.MasterClearWriterActive();
    const std::vector<GateOp> q = gate.MasterTakeQueue();
    pma_->pending_async_.fetch_sub(static_cast<int64_t>(q.size()),
                                   std::memory_order_relaxed);
    raw->insert(raw->end(), q.begin(), q.end());
  };
  if (old_b == old_e) {
    for (size_t g = *gb; g < *ge; ++g) drain(g);
  } else {
    for (size_t g = *gb; g < old_b; ++g) drain(g);
    for (size_t g = old_e; g < *ge; ++g) drain(g);
  }
}

void Rebalancer::HandleWindowWork(const Request& req) {
  TailSpan tail_span(TailEvent::kRebalanceWindow);
  Progress("window:start");
  Structure* snap = pma_->structure_.load(std::memory_order_acquire);
  if (snap->version != req.version) return;  // resized since: gate retired
  const size_t spg = snap->segments_per_gate;
  Storage* st = snap->storage.get();
  const size_t B = st->segment_capacity();

  size_t gb = req.gate_id, ge = req.gate_id;
  std::vector<GateOp> raw;
  AcquireGatesAndDrain(snap, req.gate_id, req.gate_id + 1, &gb, &ge, &raw);
  Gate& origin = snap->gates[req.gate_id];

  size_t trigger = req.trigger_seg;
  if (trigger < origin.seg_begin() || trigger >= origin.seg_end()) {
    trigger = origin.seg_begin();
  }
  // A rebalance request may have been resolved by an absorbed window
  // while queued; with no batched work left, it is a no-op.
  if (req.type == Request::Type::kRebalance && raw.empty() &&
      st->card(trigger) < B) {
    ReleaseGates(snap, gb, ge);
    return;
  }

  DensityBounds bounds(pma_->cfg_.pma, st->num_segments());
  const size_t gate_level = Log2Floor(spg);
  for (size_t level = gate_level; level <= bounds.root_level(); ++level) {
    size_t b, e;
    WindowAt(trigger, level, &b, &e);
    AcquireGatesAndDrain(snap, b / spg, e / spg, &gb, &ge, &raw);
    std::vector<BatchEntry> batch = CanonicalizeBatch(raw);
    size_t ins = 0, del = 0;
    const size_t total = CountMerged(*st, b, e, batch, &ins, &del);
    const size_t cap = (e - b) * B;
    const double delta =
        static_cast<double>(total) / static_cast<double>(cap);
    if (delta <= bounds.Tau(level) && total + (e - b) <= cap) {
      // COW snapshots (ISSUE 9): capture every window gate's pre-image
      // while all of them are held, so the fence moves and the storage
      // rewrite land atomically on one side of each snapshot's cut.
      // (ExecuteResize needs no hook: it merges *out* of the old
      // storage, which snapshots pin via their epoch slot.)
      for (size_t g = b / spg; g < e / spg; ++g) {
        pma_->PreserveGateForSnapshots(snap, &snap->gates[g]);
      }
      Progress("window:spread");
      if (batch.empty()) {
        ExecuteSpread(snap, b, e, trigger);
      } else {
        ExecuteMergedSpread(snap, b, e, batch, total);
        pma_->count_.fetch_add(ins, std::memory_order_relaxed);
        pma_->count_.fetch_sub(del, std::memory_order_relaxed);
        pma_->stat_batches_.fetch_add(1, std::memory_order_relaxed);
      }
      UpdateFences(snap, b / spg, e / spg);
      const int64_t now = NowMillis();
      for (size_t g = b / spg; g < e / spg; ++g) {
        snap->gates[g].set_last_global_rebalance_ms(now);
      }
      pma_->stat_global_rebalances_.fetch_add(1, std::memory_order_relaxed);
      ReleaseGates(snap, gb, ge);
      return;
    }
  }
  // Even the root violates its threshold: resize, merging the batch. On
  // allocation failure ExecuteResize requeues the drained ops and
  // releases the gates itself; there is nothing more to do here.
  AcquireGates(snap, 0, snap->num_gates(), &gb, &ge);
  ExecuteResize(snap, std::move(raw));
}

void Rebalancer::HandleShrink(const Request& req) {
  Structure* snap = pma_->structure_.load(std::memory_order_acquire);
  if (snap->version != req.version) return;
  if (snap->num_gates() <= 2) return;
  size_t gb = 0, ge = 0;
  AcquireGates(snap, 0, snap->num_gates(), &gb, &ge);
  // Re-validate under full ownership.
  Storage* st = snap->storage.get();
  size_t total = 0;
  for (size_t s = 0; s < st->num_segments(); ++s) total += st->card(s);
  if (static_cast<double>(total) <
      pma_->cfg_.pma.shrink_density * static_cast<double>(st->capacity())) {
    if (!ExecuteResize(snap)) {
      // Shrink failed on allocation (gates already released by the
      // failure path): clear the request flag so a future density drop
      // can ask again — shrinking is an optimization, not a correctness
      // requirement, so no dedicated retry is scheduled.
      snap->resize_requested.store(false, std::memory_order_release);
    }
  } else {
    snap->resize_requested.store(false, std::memory_order_release);
    ReleaseGates(snap, gb, ge);
  }
}

void Rebalancer::ExecuteSpread(Structure* snap, size_t seg_b, size_t seg_e,
                               size_t trigger_seg) {
  Storage* st = snap->storage.get();
  const size_t spg = snap->segments_per_gate;
  const size_t window_gates = (seg_e - seg_b) / spg;
  WindowPlan plan = PlanSpread(*st, seg_b, seg_e, pma_->adaptive_effective(),
                               trigger_seg);
  const size_t P =
      std::min(workers_.num_threads(), window_gates);
  if (P >= 2 &&
      window_gates >= pma_->cfg_.parallel_rebalance_min_gates) {
    // Phase 1: all partitions copy into the buffer (reads from the live
    // array never conflict with buffer writes). Phase 2: only after every
    // copy completed are the pages rewired — the "delayed rewiring"
    // coordination of §3.3.
    //
    // Partition boundaries balance *live elements*, not gate counts: a
    // partition's copy cost is the elements it writes, and skewed
    // windows (a hot append gate, adaptive plans) used to hand one
    // worker nearly all of them while the rest idled. Cutting the
    // cumulative target-cardinality prefix at each 1/P share keeps the
    // workers even; boundaries stay on gates so SwapWindow keeps its
    // page alignment for rewiring.
    std::vector<std::pair<size_t, size_t>> parts;
    uint64_t acc = 0;
    size_t start_gate = 0;
    for (size_t g = 0; g < window_gates; ++g) {
      for (size_t s = 0; s < spg; ++s) acc += plan.target_card[g * spg + s];
      if (g + 1 == window_gates ||
          (parts.size() + 1 < P &&
           acc * P >= uint64_t{plan.total} * (parts.size() + 1))) {
        parts.emplace_back(seg_b + start_gate * spg, seg_b + (g + 1) * spg);
        start_gate = g + 1;
      }
    }
    WaitGroup wg;
    Progress("spread:copy");
    wg.Add(static_cast<int>(parts.size()));
    for (auto [pb, pe] : parts) {
      workers_.Submit([st, &plan, pb, pe, &wg] {
        CopyPartitionToBuffer(st, plan, pb, pe);
        wg.Done();
      });
    }
    wg.Wait();
    Progress("spread:swap");
    wg.Add(static_cast<int>(parts.size()));
    for (auto [pb, pe] : parts) {
      workers_.Submit([st, pb, pe, &wg] {
        st->SwapWindow(pb, pe);
        wg.Done();
      });
    }
    wg.Wait();
    FinishSpread(st, plan, /*swap=*/false);
  } else {
    CopyPartitionToBuffer(st, plan, seg_b, seg_e);
    FinishSpread(st, plan, /*swap=*/true);
  }
}

void Rebalancer::ExecuteMergedSpread(Structure* snap, size_t seg_b,
                                     size_t seg_e,
                                     const std::vector<BatchEntry>& ops,
                                     size_t merged_total) {
  Storage* st = snap->storage.get();
  WindowPlan plan = PlanMergedSpread(*st, seg_b, seg_e, merged_total);
  MergedCopyToBuffer(st, plan, ops);
  FinishSpread(st, plan, /*swap=*/true);
}

void Rebalancer::UpdateFences(Structure* snap, size_t gb, size_t ge) {
  RecomputeFences(snap, gb, ge);
}

bool Rebalancer::ExecuteResize(Structure* snap, std::vector<GateOp> extra) {
  TailSpan tail_span(TailEvent::kResize);
  Storage* st = snap->storage.get();
  // Drain every combining queue; those updates are merged into the new
  // array in one pass (then the queues' gates die with the snapshot).
  Progress("resize:drain");
  std::vector<GateOp> all_ops = std::move(extra);
  for (size_t g = 0; g < snap->num_gates(); ++g) {
    Gate& gate = snap->gates[g];
    gate.MasterClearWriterActive();
    const std::vector<GateOp> q = gate.MasterTakeQueue();
    pma_->pending_async_.fetch_sub(static_cast<int64_t>(q.size()),
                                   std::memory_order_relaxed);
    all_ops.insert(all_ops.end(), q.begin(), q.end());
  }
  std::vector<BatchEntry> batch = CanonicalizeBatch(all_ops);
  size_t ins = 0, del = 0;
  const size_t total =
      CountMerged(*st, 0, st->num_segments(), batch, &ins, &del);

  // Everything fallible happens before any mutation of shared state:
  // storage through the retry/degradation ladder, then the whole new
  // snapshot (gates, index, fences) under a bad_alloc net. Only once the
  // replacement exists in full do we publish — a failure at any point
  // leaves the old snapshot untouched and falls to the requeue path.
  Progress("resize:alloc");
  // The old buffer is idle (every gate is held) and only scratch: hand
  // its pages back before the new storage is faulted in, so the resize
  // peak holds two regions and not the old buffer too. A failed resize
  // keeps the old storage, whose next rebalance faults the pages anew.
  st->ReleaseBuffer();
  const size_t new_segs = SegmentsForCount(total);
  Status status;
  std::unique_ptr<Storage> fresh =
      AllocStorageWithRetry(new_segs, total, &status);
  Structure* ns = nullptr;
  if (fresh != nullptr) {
    Progress("resize:merge");
    const size_t got_segs = fresh->num_segments();
    try {
      MergedStreamInto(*st, batch, total, fresh.get());
      ns = new Structure();
      ns->version = snap->version + 1;
      ns->segments_per_gate = snap->segments_per_gate;
      ns->storage = std::move(fresh);
      const size_t num_gates = got_segs / snap->segments_per_gate;
      for (size_t g = 0; g < num_gates; ++g) {
        ns->gates.emplace_back(static_cast<uint32_t>(g),
                               g * snap->segments_per_gate,
                               (g + 1) * snap->segments_per_gate);
      }
      ns->index =
          std::make_unique<StaticIndex>(num_gates, pma_->cfg_.index_fanout);
      RecomputeFences(ns, 0, num_gates);
    } catch (const std::bad_alloc&) {
      delete ns;
      ns = nullptr;
      status = Status::ResourceExhausted(
          "resize: snapshot metadata allocation failed");
    }
  }
  if (ns == nullptr) {
    if (status.ok()) status = Status::ResourceExhausted("resize failed");
    RequeueAndReschedule(snap, all_ops);
    pma_->ReportError(status);
    return false;
  }
  consecutive_resize_failures_ = 0;

  Progress("resize:publish");
  pma_->count_.store(total, std::memory_order_relaxed);
  pma_->structure_.store(ns, std::memory_order_release);
  pma_->stat_resizes_.fetch_add(1, std::memory_order_relaxed);

  // Wake every client parked on the old gates; they observe the
  // invalidation, refresh their epoch and restart on the new snapshot.
  for (size_t g = 0; g < snap->num_gates(); ++g) {
    snap->gates[g].InvalidateAndRelease();
  }
  // Byte-accounted retirement (§3.4): the snapshot's dominant footprint
  // is its storage (live region + rebalance buffer), so a parked reader
  // pinning a few multi-MB snapshots trips the bytes watermark long
  // before the count watermark would notice.
  const size_t snap_bytes = sizeof(Structure) +
                            2 * snap->storage->capacity() * sizeof(Item) +
                            snap->num_gates() * sizeof(Gate);
  pma_->gc_.Retire(snap, snap_bytes);
  return true;
}

std::unique_ptr<Storage> Rebalancer::AllocStorageWithRetry(size_t new_segs,
                                                           size_t total,
                                                           Status* status) {
  const size_t B = pma_->cfg_.pma.segment_capacity;
  const bool use_rewiring = pma_->cfg_.pma.use_rewiring;
  const size_t min_segs = 2 * pma_->cfg_.segments_per_gate;
  // Rung 1: retry at the target capacity. Between attempts, run an
  // epoch-GC pass — retired snapshots are the dominant heap consumers,
  // so a collect is the most likely thing to actually free memory — and
  // back off briefly to let concurrent frees land.
  constexpr int kAttempts = 3;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    if (attempt > 0) {
      pma_->stat_rebalance_retries_.fetch_add(1, std::memory_order_relaxed);
      pma_->gc_.Collect();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(int64_t{1} << (attempt - 1)));
    }
    if (auto s = Storage::TryCreate(new_segs, B, use_rewiring, status)) {
      return s;
    }
  }
  // Rung 2: degrade to denser (smaller) capacities while the merged
  // elements still fit with one free slot per segment (MergedStreamInto
  // needs total <= segs * B; the extra slack keeps the array usable).
  // A denser array rebalances more often — degraded, not broken.
  for (size_t segs = new_segs / 2; segs >= min_segs; segs /= 2) {
    if (total + segs > segs * B) break;
    pma_->stat_rebalance_retries_.fetch_add(1, std::memory_order_relaxed);
    if (auto s = Storage::TryCreate(segs, B, use_rewiring, status)) {
      std::fprintf(stderr,
                   "[cpma] resize degraded: allocated %zu segments instead "
                   "of %zu (%s)\n",
                   segs, new_segs, status->ToString().c_str());
      return s;
    }
  }
  return nullptr;
}

void Rebalancer::RequeueAndReschedule(Structure* snap,
                                      const std::vector<GateOp>& ops) {
  const size_t num_gates = snap->num_gates();
  // Bucket the drained ops back into their fence-owning gates, in seq
  // order. All gates are held, so fences cannot move under us; the index
  // may lag the fences, so walk to the owning neighbour after Lookup
  // (same protocol as the client paths).
  std::vector<GateOp> sorted(ops.begin(), ops.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const GateOp& a, const GateOp& b) {
                     return a.seq < b.seq;
                   });
  std::vector<std::vector<GateOp>> per_gate(num_gates);
  for (const GateOp& op : sorted) {
    size_t g = std::min(snap->index->Lookup(op.key), num_gates - 1);
    while (g > 0 && op.key < snap->gates[g].low_fence()) --g;
    while (g + 1 < num_gates && op.key > snap->gates[g].high_fence()) ++g;
    per_gate[g].push_back(op);
  }
  size_t requeued = 0, affected_gates = 0;
  for (size_t g = 0; g < num_gates; ++g) {
    if (per_gate[g].empty()) continue;
    snap->gates[g].MasterRequeue(per_gate[g]);
    requeued += per_gate[g].size();
    ++affected_gates;
  }
  // The drain decremented pending_async_ for these ops; they are pending
  // again now, and Flush() must keep waiting for them.
  pma_->pending_async_.fetch_add(static_cast<int64_t>(requeued),
                                 std::memory_order_relaxed);

  const size_t shift = std::min<size_t>(consecutive_resize_failures_, 6);
  ++consecutive_resize_failures_;
  const int64_t backoff_ms = std::min<int64_t>(1000, int64_t{10} << shift);

  Progress("resize:requeue");
  ReleaseGates(snap, 0, num_gates);

  // One deferred retry batch per gate holding requeued ops. Drain()'s
  // ignore_due_times_ promotes these immediately, so a Flush() blocked
  // on the requeued ops converges as soon as allocation recovers.
  if (requeued > 0) {
    const int64_t due = NowMillis() + backoff_ms;
    {
      std::lock_guard<std::mutex> lk(m_);
      for (size_t g = 0; g < num_gates; ++g) {
        if (per_gate[g].empty()) continue;
        Request r{Request::Type::kBatch, snap->version,
                  static_cast<uint32_t>(g), 0, due};
        if (ignore_due_times_) {
          ready_.push_back(r);
        } else {
          deferred_.push_back(r);
        }
      }
    }
    cv_.notify_all();
  }
  std::fprintf(stderr,
               "[cpma] resize failed (%zu consecutive): requeued %zu op(s) "
               "across %zu gate(s), retrying in %lld ms\n",
               consecutive_resize_failures_, requeued, affected_gates,
               static_cast<long long>(backoff_ms));
}

size_t Rebalancer::SegmentsForCount(size_t count) const {
  const size_t B = pma_->cfg_.pma.segment_capacity;
  size_t segs = 2 * pma_->cfg_.segments_per_gate;
  while (static_cast<double>(count) >
         0.6 * static_cast<double>(segs) * static_cast<double>(B)) {
    segs *= 2;
  }
  return segs;
}

}  // namespace cpma
