// ConcurrentPMA — the paper's contribution (§3): a packed memory array
// supporting concurrent reads and updates via
//   gates (chunk latches + fence keys)      §3.1  concurrent/gate.h
//   a latch-free static index over gates    §3.2  concurrent/static_index.h
//   a master/worker rebalancer service      §3.3  concurrent/rebalancer.h
//   epoch-based GC for resizes              §3.4  common/epoch_gc.h
//   asynchronous updates (local combining)  §3.5  here + gate.h
//
// Writer protocol (writers hold at most one latch):
//   1. enter an epoch; load the current snapshot (storage+gates+index);
//   2. traverse the static index without latches -> candidate gate;
//   3. acquire the gate latch; the fence keys decide whether the key
//      belongs here — if not, walk to the neighbour gate;
//   4. if the gate is invalidated (resize happened), refresh the epoch
//      and restart from the new snapshot;
//   5. writers finding an active writer on the gate append their update
//      to its combining queue and return (async modes). The owner applies
//      its op, then drains the queue; finding it empty, it releases the
//      gate in the same mutex round trip. Without contention the owner
//      path neither allocates nor frees: the queue owns no memory while
//      empty (gate.h (c)), and the reroute list of DispatchStamped is
//      created only by a reroute (tests/test_alloc_free.cc checks every
//      mode). Layout rule: a field every op reads (`structure_`) never
//      shares a cache line with a word that ops read-modify-write per op
//      (`count_`, `seq_gen_`, `pending_async_`, the stat counters).
//
// Reader protocol (ISSUE 4 — optimistic, normally latch-free): readers
// run the same descent but, instead of taking the READ latch, snapshot
// the gate's sequence-lock version word (gate.h (f)):
//   1. enter an epoch; load the snapshot; index descent -> candidate;
//   2. read the gate version; if odd (writer/rebalancer active), retry;
//   3. check `invalidated`: a retired gate means refresh + restart;
//   4. read the fence keys and — only after re-validating the version,
//      which proves the [low, high] pair was untorn — walk to the
//      neighbour gate on mismatch, exactly like the latched descent;
//   5. run the SIMD segment search / scan read directly on the live
//      storage with tagged accesses (common/tagged.h). Scans and SumAll
//      start at the resume key's segment and work one segment run at a
//      time: a run is read inside the window, validated, and only then
//      handed over — Scan emits from a bounded stack copy and stops the
//      moment its callback does, SumAll folds in place — so a failed
//      window discards at most one run;
//   6. validate the version; on success the read linearizes at the
//      validation point. On failure retry; after
//      `ConcurrentConfig::optimistic_retries` failed windows per gate
//      (env override CPMA_OPTIMISTIC_RETRIES; 0 forces fallback) fall
//      back to the blocking READ latch, the pre-ISSUE-4 protocol. A
//      scan's latch hold gathers runs until its reader is full and
//      hands them over after the release, so callbacks never run
//      inside a latch.
// Scans resume from a key, not a gate: everything below the resume key
// was handed over; it advances past each validated run, and to the high
// fence + 1 once the rest of a gate validated. A restart (resize) or
// fallback re-enters at the resume key and never re-reads what
// validated. A window rebalance may move a fence right between the
// visits of two gates; the resume key then lies below the next gate's
// low fence, and the scan walks left to the gate now holding it, as a
// point read does, instead of skipping the keys the move shifted (the
// latched fallback passes the resume key to ReaderAccess, whose
// kTooLow/kTooHigh answer drives the same walk). Epoch pinning keeps a
// rewired/retired storage alive across the validation window, so torn
// reads are bounded but never wild. Memory-ordering argument:
// SeqVersion in common/latches.h.
//
// Updates may therefore complete asynchronously; Flush() waits until all
// queued work (including rebalancer batches) has been applied.
//
// Async ordering contract (§3.5, strengthened in ISSUE 5): with
// `ConcurrentConfig::strict_async_order` (default on), updates on the
// SAME key are applied in the order their producer issued them —
// per-key, per-producer FIFO — across every async mode, including ops
// parked in combining queues while a fence-moving multi-gate rebalance
// or a resize runs. Three mechanisms compose into the guarantee:
//   1. every GateOp is stamped with a monotone enqueue sequence in
//      Update(); CanonicalizeBatch picks per-key winners by stamp;
//   2. fences never move over a non-empty combining queue: the master
//      drains the queue of every gate its window covers and folds the
//      drained ops into the merged spread while holding those gates;
//   3. a writer whose op needs a multi-gate rebalance pushes the op
//      into its gate's queue BEFORE transferring the latch, so the op
//      rides mechanism 2 instead of being re-dispatched through the
//      index after the fences moved (the pre-ISSUE-5 race: a younger
//      op could reach the destination gate first).
// With strict_async_order off, mechanism 3 reverts to the relaxed
// re-dispatch and same-key inversions are possible again (kept for A/B;
// the reroute-storm test in tests/test_reroute_order.cc demonstrates
// the inversion deterministically). Cross-key ordering stays relaxed in
// both settings, exactly as the paper specifies.

#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/epoch_gc.h"
#include "common/status.h"
#include "common/ordered_map.h"
#include "concurrent/gate.h"
#include "concurrent/static_index.h"
#include "pma/config.h"
#include "pma/storage.h"

// Feature macro: lets bench drivers compile against trees with and
// without the strict async ordering contract (ISSUE 5); it goes away
// together with the relaxed contract.
#define CPMA_STRICT_ASYNC_ORDER 1

namespace cpma {

class Rebalancer;
class PMASnapshot;
struct Structure;

/// Recompute fence keys + index separators for gates [gb, ge) from the
/// live chunk contents, preserving the window's outer boundaries. The
/// caller must own the gates (or be single-threaded at construction).
void RecomputeFences(Structure* snap, size_t gb, size_t ge);

/// Everything that is replaced wholesale by a resize. Clients reach a
/// Structure through an atomic pointer and keep it alive via their epoch.
struct Structure {
  uint64_t version = 0;
  std::unique_ptr<Storage> storage;
  std::deque<Gate> gates;  // deque: Gate is immovable (mutex member)
  std::unique_ptr<StaticIndex> index;
  size_t segments_per_gate = 8;
  std::atomic<bool> resize_requested{false};

  size_t num_gates() const { return gates.size(); }
};

class ConcurrentPMA : public OrderedMap {
 public:
  explicit ConcurrentPMA(const ConcurrentConfig& config = ConcurrentConfig());
  ~ConcurrentPMA() override;

  void Insert(Key key, Value value) override;
  void Remove(Key key) override;
  bool Find(Key key, Value* value) const override;
  uint64_t SumAll() const override;
  void Scan(Key min, Key max, const ScanCallback& cb) const override;

  /// Batched front-door hand-off (ISSUE 8): apply a producer-ordered run
  /// of ops, equivalent to calling Insert/Remove for each in order but
  /// with ONE enqueue-stamp reservation for the whole run instead of a
  /// fetch_add per op — the contended-counter amortization the sharded
  /// coalescing front door exists for. The block reservation linearizes
  /// the run at the reservation point, so per-producer FIFO (ISSUE 5)
  /// is preserved exactly as if the ops had been issued one by one
  /// there; callers flushing staging buffers must therefore serialize
  /// UpdateBatch calls per producer (the sharded front door holds the
  /// producer slot's flush lock across the call). Ops are dispatched in
  /// array order; `ops[i].seq` is overwritten.
  void UpdateBatch(GateOp* ops, size_t n);

  /// Pull-based ordered read cursor (ISSUE 8): Scan's gate visit
  /// exposed as an explicit cursor, so a consumer can merge several
  /// PMAs' streams (the sharded front end's k-way scan merge) without
  /// inverting control through callbacks. Each NextChunk() delivers the
  /// next validated run of items in (last delivered, max] — at most one
  /// segment's run, read under the same optimistic seqlock/fallback
  /// protocol as Scan and trimmed to the range — or returns false when
  /// the range is exhausted. The cursor pins its epoch for its whole
  /// lifetime; hold it only for the duration of a scan pass.
  class ScanCursor {
   public:
    ScanCursor(const ConcurrentPMA& pma, Key min, Key max);

    ScanCursor(const ScanCursor&) = delete;
    ScanCursor& operator=(const ScanCursor&) = delete;

    /// Fill `out` with the next chunk (ascending keys, all in range,
    /// non-empty on true). False = range exhausted; `out` is cleared.
    bool NextChunk(std::vector<Item>* out);

   private:
    const ConcurrentPMA& pma_;
    EpochGuard guard_;
    const Key max_;
    Key from_;  // resume key: everything below it was delivered
    bool done_;
  };
  size_t Size() const override {
    return count_.load(std::memory_order_relaxed);
  }
  void Flush() override;
  std::string Name() const override;

  const ConcurrentConfig& config() const { return cfg_; }
  size_t capacity() const;

  // --- statistics ---
  uint64_t num_local_rebalances() const {
    return stat_local_rebalances_.load(std::memory_order_relaxed);
  }
  uint64_t num_global_rebalances() const {
    return stat_global_rebalances_.load(std::memory_order_relaxed);
  }
  uint64_t num_resizes() const {
    return stat_resizes_.load(std::memory_order_relaxed);
  }
  uint64_t num_queued_ops() const {
    return stat_queued_ops_.load(std::memory_order_relaxed);
  }
  uint64_t num_batches() const {
    return stat_batches_.load(std::memory_order_relaxed);
  }

  /// Times a read (Find, or one gate of a Scan/SumAll) exhausted its
  /// optimistic retry budget and took the blocking READ latch. Zero
  /// under quiescence proves the optimistic path carried every read;
  /// the forced-fallback mode (retry budget 0) counts every read here.
  uint64_t num_read_fallbacks() const {
    return stat_read_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Gate visits served latch-free by validated optimistic windows:
  /// once per gate a Scan or SumAll reads, once per NextChunk of a
  /// ScanCursor (Find avoids a shared counter on its hot path).
  uint64_t num_optimistic_gate_reads() const {
    return stat_optimistic_gate_reads_.load(std::memory_order_relaxed);
  }

  /// Effective per-gate optimistic retry budget (config, possibly
  /// overridden by CPMA_OPTIMISTIC_RETRIES at construction).
  int optimistic_retries() const { return optimistic_retries_; }

  /// Effective async ordering contract (config, possibly overridden by
  /// CPMA_STRICT_ASYNC at construction). True = per-key FIFO.
  bool strict_async_order() const { return strict_async_order_; }

  /// Epoch-reclamation counters (§3.4): pending/retired/freed garbage,
  /// retired-bytes high-water mark, epoch advances, collector passes.
  /// Surfaced into bench JSON and the nightly soak artifact.
  EpochGCStats ebr_stats() const { return gc_.Stats(); }

  /// Direct access to the reclamation subsystem (tests: parked-reader
  /// soaks drive Collect() and the collector stepping hooks).
  EpochGC& epoch_gc() const { return gc_; }

  /// Ops re-dispatched through the index after losing their gate to a
  /// fence move or resize. Structurally zero under strict_async_order
  /// (such ops ride the rebalancer's merged spread instead); non-zero
  /// counts are the relaxed mode's reordering windows.
  uint64_t num_reroutes() const {
    return stat_reroutes_.load(std::memory_order_relaxed);
  }

  /// Test-only: invoked on the re-dispatching thread for every rerouted
  /// op, after the origin gate was released and before the re-dispatch
  /// descends the index — i.e. inside the relaxed mode's reordering
  /// window, so tests can deterministically interleave a younger op.
  /// Set under quiescence (before concurrent clients exist).
  void SetRerouteHookForTest(std::function<void(const GateOp&)> hook) {
    reroute_hook_ = std::move(hook);
  }

  // Storage observability (ROADMAP huge-page visibility): what publish
  // mechanism and page size the current snapshot actually uses, for
  // bench JSON records.
  bool storage_rewiring_enabled() const;
  size_t storage_page_bytes() const;
  size_t storage_backing_page_bytes() const;
  uint64_t storage_num_remaps() const;
  uint64_t storage_num_fallback_copies() const;
  uint64_t storage_num_remap_failures() const;

  // ------------------------------------------- fault tolerance (ISSUE 7)

  /// True when use_rewiring was requested and the current storage does
  /// not rewire: memfd/mmap denied or CPMA_FORCE_NO_REWIRE=1 (anonymous
  /// backend), or a region that degraded after a remap publication
  /// failure. Always false on the default copy backend.
  bool fallback_backend_active() const;

  /// Install a callback fired (from the rebalancer master thread) every
  /// time a background rebalance exhausts its degradation ladder — the
  /// affected ops are requeued and retried, so this is a health signal,
  /// not a data-loss notice. Set under quiescence (before concurrent
  /// clients exist); pass nullptr to remove.
  void SetErrorCallback(std::function<void(const Status&)> cb) {
    error_cb_ = std::move(cb);
  }

  /// Sticky most-recent background error (Status::OK when none was ever
  /// reported). A non-OK value with a later successful Flush means the
  /// condition was transient and every op still applied.
  Status last_error() const {
    std::lock_guard<std::mutex> lk(error_mu_);
    return last_error_;
  }

  /// Storage allocation retries performed by the rebalancer's resize
  /// ladder (EpochGC collect + backoff + denser-capacity attempts).
  uint64_t num_rebalance_retries() const {
    return stat_rebalance_retries_.load(std::memory_order_relaxed);
  }

  /// Stall diagnoses emitted by the rebalancer watchdog (0 unless
  /// watchdog_ms/CPMA_WATCHDOG_MS armed the checker and a rebalance
  /// exceeded the threshold without progress).
  uint64_t num_watchdog_trips() const;

  /// Effective watchdog threshold (config, possibly overridden by
  /// CPMA_WATCHDOG_MS at construction; 0 = disabled).
  int64_t watchdog_ms() const { return watchdog_ms_; }

  // ------------------------------------------- COW snapshots (ISSUE 9)

  /// Capture a frozen, consistent point-in-time view without stopping
  /// the world. The snapshot forms a consistent cut: per gate, its
  /// capture point is the first post-snapshot mutation of that gate
  /// (which preserves the chunk's pre-image first — COW through the
  /// rewiring layer when page alignment permits, a heap copy
  /// otherwise), or the moment the snapshot reads it, whichever comes
  /// first. Window rebalances preserve every window gate while all of
  /// them are held, so fence moves land atomically on one side of the
  /// cut and sequential gate iteration always yields an ordered,
  /// retry-free scan. Reads on the snapshot (Scan/SumAll/Find) never
  /// block writers; writers pay two relaxed loads per gate op while a
  /// snapshot is open (one when none was ever taken) plus a one-time
  /// per-gate preservation. Destroy the snapshot to release the pinned
  /// structure and COW pages (retired through the epoch GC's
  /// byte-accounted limbo).
  std::unique_ptr<PMASnapshot> Snapshot() const;

  /// Snapshots currently open / ever taken on this PMA.
  uint64_t snapshots_open() const {
    return snapshots_open_.load(std::memory_order_relaxed);
  }
  uint64_t num_snapshots_taken() const {
    return stat_snapshots_taken_.load(std::memory_order_relaxed);
  }

  /// Bytes of superseded file pages kept alive only because an open
  /// snapshot view pins them (the COW memory overhead of snapshots).
  uint64_t cow_pages_retained_bytes() const;

  /// Structural validation: fences contiguous and sorted, chunk contents
  /// within fences, per-segment sortedness, index separators == fences,
  /// element count. Requires quiescence (no concurrent clients); call
  /// after Flush().
  bool CheckInvariants(std::string* error) const;

 private:
  friend class Rebalancer;
  friend class PMASnapshot;

  /// Rebalancer -> client surface: record the sticky error and invoke
  /// the callback (master thread).
  void ReportError(const Status& status);

  // Shared update entry point for Insert/Remove.
  void Update(GateOp op);

  // Dispatch an op that already carries its enqueue stamp (Update stamps
  // one op, UpdateBatch reserves a block): index descent, gate access,
  // owner apply / queue hand-off, reroute worklist.
  void DispatchStamped(GateOp op);

  // Owner path: apply `op`, then drain the combining queue according to
  // the configured async mode. Ops that no longer fit the gate's fences
  // are pushed onto `reroute` for the caller to re-dispatch.
  void OwnerApplyAndDrain(Structure* snap, Gate* gate, GateOp op,
                          std::vector<GateOp>* reroute);

  /// Apply one op inside the gate, running local (in-gate) rebalances as
  /// needed. Returns false when a global rebalance is required; then
  /// *trigger_seg holds the violating segment.
  bool ApplyOpLocal(Structure* snap, Gate* gate, const GateOp& op,
                    size_t* trigger_seg);

  /// Apply a sorted batch of ops whose keys are within the gate's fences
  /// entirely inside the gate. Returns false when the merged result does
  /// not fit (global batch needed).
  bool ApplyBatchLocal(Structure* snap, Gate* gate,
                       std::vector<GateOp>* pending);

  /// Fold a canonical batch into the gate's window with one merged
  /// spread, if the merged total fits the gate-level density threshold.
  /// Updates the element counter / batch stats and requests a shrink
  /// after net deletions. Returns false (nothing changed) otherwise.
  bool TryMergedGateSpread(Structure* snap, Gate* gate,
                           const std::vector<BatchEntry>& ops);

  // In-gate navigation: the rightmost non-empty segment of the chunk
  // whose routing key is <= key, or the leftmost non-empty segment, or
  // seg_begin() for an empty chunk. Route loads are tagged, so readers
  // holding no latch may call it too: on torn data the result stays
  // within the chunk and their version validation rejects the window.
  size_t LocateSegment(const Structure& snap, const Gate& gate, Key key) const;

  // ------------------------------------------- optimistic read path

  /// One budget-bounded optimistic point lookup against `snap`.
  enum class OptRead { kHit, kMiss, kFallback, kRestart };
  OptRead TryOptimisticFind(const Structure& snap, Key key,
                            Value* value) const;

  /// The one gate visit behind Scan, ScanCursor and SumAll: hands the
  /// items in [*from, max] to `reader` one validated segment run at a
  /// time and advances *from past them (defined and instantiated in
  /// concurrent_pma.cc; contract there).
  template <typename Reader>
  bool VisitGates(EpochGuard* guard, Key* from, Key max,
                  Reader* reader) const;

  /// True if the effective spread policy is adaptive (paper: one-by-one
  /// leverages adaptive rebalancing, batch uses traditional).
  bool adaptive_effective() const {
    return cfg_.pma.adaptive &&
           cfg_.async_mode != ConcurrentConfig::AsyncMode::kBatch;
  }

  // ------------------------------------------- COW snapshots (ISSUE 9)

  /// Mutator-side hook, called with `gate` held exclusively (writer or
  /// master) BEFORE the first storage/fence mutation of the hold: when
  /// any open snapshot of `snap` has not captured this gate yet, build
  /// its frozen image (GateSnap) now. Fast path: two relaxed loads (one
  /// while no snapshot was ever taken).
  void PreserveGateForSnapshots(Structure* snap, Gate* gate) const {
    const uint64_t sv = snap_stamp_.load(std::memory_order_relaxed);
    if (sv == 0) return;
    if (gate->cow_stamp() == sv) return;
    PreserveGateSlow(snap, gate);
  }
  void PreserveGateSlow(Structure* snap, Gate* gate) const;

  /// Fire-and-forget shrink check after deletions.
  void MaybeRequestShrink(Structure* snap);

  Structure* BuildInitialStructure();

  ConcurrentConfig cfg_;
  // Effective retry budget (cfg_ value or CPMA_OPTIMISTIC_RETRIES).
  int optimistic_retries_ = 8;
  // Effective ordering contract (cfg_ value or CPMA_STRICT_ASYNC).
  bool strict_async_order_ = true;
  // Effective watchdog threshold (cfg_ value or CPMA_WATCHDOG_MS).
  int64_t watchdog_ms_ = 0;
  std::function<void(const GateOp&)> reroute_hook_;
  mutable EpochGC gc_;
  std::unique_ptr<Rebalancer> rebalancer_;

  // Hot-atomic layout: a field every op reads never shares a cache line
  // with a word that ops read-modify-write, or each RMW would evict it
  // from every other core. `structure_` (loaded by every Find, Scan and
  // update) has a line to itself; each word RMW'd per op or per queued
  // op by many threads has its own line; the counters the master or rare
  // paths bump share one line.
  alignas(64) std::atomic<Structure*> structure_;
  // Global enqueue stamp generator; see GateOp::seq. One RMW per update.
  alignas(64) std::atomic<uint64_t> seq_gen_{1};
  alignas(64) std::atomic<size_t> count_{0};  // RMW per insert/remove
  alignas(64) std::atomic<int64_t> pending_async_{0};  // per queued op
  alignas(64) std::atomic<uint64_t> stat_queued_ops_{0};
  alignas(64) std::atomic<uint64_t> stat_local_rebalances_{0};
  alignas(64) mutable std::atomic<uint64_t> stat_read_fallbacks_{0};
  alignas(64) mutable std::atomic<uint64_t> stat_optimistic_gate_reads_{0};
  alignas(64) std::atomic<uint64_t> stat_global_rebalances_{0};
  std::atomic<uint64_t> stat_resizes_{0};
  std::atomic<uint64_t> stat_batches_{0};
  std::atomic<uint64_t> stat_reroutes_{0};
  std::atomic<uint64_t> stat_rebalance_retries_{0};

  // Background-error surface (ISSUE 7). Aligned so the snapshot stamp
  // below, which every mutation reads, stays off the counters' line.
  alignas(64) std::function<void(const Status&)> error_cb_;
  mutable std::mutex error_mu_;
  Status last_error_;

  // COW snapshot registry (ISSUE 9). snap_stamp_ is bumped once per
  // Snapshot() under snaps_mu_; a gate whose cow_stamp matches it has
  // been preserved for every open snapshot. Preservation itself is
  // serialized by snaps_mu_ — it runs at most once per (gate, snapshot),
  // so contention there is a cold path by construction.
  mutable std::mutex snaps_mu_;
  mutable std::vector<PMASnapshot*> open_snaps_;
  mutable std::atomic<uint64_t> snap_stamp_{0};
  mutable std::atomic<uint64_t> stat_snapshots_taken_{0};
  mutable std::atomic<uint64_t> snapshots_open_{0};
};

}  // namespace cpma
