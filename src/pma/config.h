// Tunables of the packed memory array (paper §2 and §4 configuration).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cpma {

struct PmaConfig {
  /// Slots per segment (B in the paper; 128 in the evaluation, ablation
  /// uses 256). Must be a power of two >= 4.
  size_t segment_capacity = 128;

  /// Density thresholds 0 <= rho_leaf < rho_root <= tau_root < tau_leaf <= 1
  /// (rho_1, rho_h, tau_h, tau_1 in the paper). Defaults are the paper's:
  /// rho_1 = 0.5, tau_1 = 1, rho_h = tau_h = 0.75.
  double rho_leaf = 0.5;
  double rho_root = 0.75;
  double tau_root = 0.75;
  double tau_leaf = 1.0;

  /// Paper §4: "we relax the lower threshold to rho_1 = 0". When true,
  /// deletions only trigger a local rebalance when a segment would become
  /// empty (we keep >= 1 element per segment whenever N >= #segments so
  /// that routing stays well-defined), and the array shrinks only on the
  /// global density check below.
  bool relax_lower = true;

  /// Global density below which the array is downsized. The paper states
  /// 50%; combined with power-of-two capacity halving/doubling that value
  /// would oscillate (doubling lands at 37.5%), so we use 0.3 as the
  /// hysteresis point (documented in DESIGN.md).
  double shrink_density = 0.3;

  /// Adaptive rebalancing (Bender & Hu; paper §2 "Adaptive rebalancing").
  /// Gaps are allocated proportionally to recent insertion activity.
  bool adaptive = true;

  /// Publish rebalances by memory rewiring (paper §2) instead of by
  /// copy. The default (false) keeps the items in anonymous memory
  /// advised for 2 MiB transparent huge pages and publishes each
  /// rebalance window with one copy. Rewiring maps a memfd whose pages
  /// are 4 KiB unless the kernel enables THP for shmem (it usually
  /// does not): every publish costs one mmap per page run plus a minor
  /// fault per remapped page on its next touch, and every access walks
  /// 4 KiB page tables. What it buys is zero-copy COW snapshot views;
  /// without it, snapshots copy each gate's chunk to the heap before
  /// the first write after capture. See rewiring/rewiring.h.
  bool use_rewiring = false;

  /// Initial number of segments (power of two, >= 2).
  size_t initial_num_segments = 2;
};

struct ConcurrentConfig {
  PmaConfig pma;

  /// Segments per gate (paper §4: 8).
  size_t segments_per_gate = 8;

  /// Fan-out of the static index over gates.
  size_t index_fanout = 16;

  /// Worker threads in the rebalancer pool (paper §4: 8).
  size_t rebalancer_workers = 8;

  /// Asynchronous update policy (paper §3.5).
  enum class AsyncMode { kSync, kOneByOne, kBatch };
  AsyncMode async_mode = AsyncMode::kBatch;

  /// Minimum time between global rebalances of the same gate in batch
  /// mode (paper §3.5; evaluation default 100 ms).
  int64_t t_delay_ms = 100;

  /// Segment span above which a worker-parallel rebalance is used rather
  /// than the master doing the spread alone (always a multiple of gates).
  size_t parallel_rebalance_min_gates = 4;

  /// Per-key FIFO ordering for the async modes (ISSUE 5). When true
  /// (default), operations on the same key are applied in the order
  /// their producer issued them even across fence-moving multi-gate
  /// rebalances and resizes: every GateOp carries a monotone enqueue
  /// stamp, batch canonicalization picks per-key winners by stamp, and a
  /// writer whose op needs a rebalance hands the op to the master
  /// *inside* the gate's combining queue, so it is folded into the
  /// merged spread while all affected gates are held instead of being
  /// racily re-dispatched after the fences moved. When false, the
  /// pre-ISSUE-5 relaxed §3.5 contract applies: a queued op that is
  /// re-dispatched after a fence move can be overtaken by a younger op
  /// on the same key (kept selectable for A/B measurement; see
  /// BENCH_PR5.json). Overridden at construction by the
  /// CPMA_STRICT_ASYNC environment variable (0 or 1) when set.
  bool strict_async_order = true;

  /// Rebalancer stall watchdog (ISSUE 7). When > 0, a background checker
  /// thread inside the rebalancer samples the master's monotone progress
  /// stamp and, if the master is mid-rebalance and the stamp has not
  /// moved for this many milliseconds, logs a diagnosis (phase, active
  /// window, per-gate state dumps) to stderr and bumps the
  /// watchdog_trips counter. Detection only — it never kills or steals
  /// work. 0 (default) disables the checker. Overridden at construction
  /// by the CPMA_WATCHDOG_MS environment variable when set.
  int64_t watchdog_ms = 0;

  /// Rebalancer-thread affinity (ISSUE 8). When non-empty, the master
  /// thread and every rebalancer worker pin themselves to these logical
  /// CPU ids at startup (worker i -> worker_cpus[i % size], master ->
  /// worker_cpus[0]), via the topology-aware pinner in common/pin.h.
  /// The sharded front end uses this to give each shard's background
  /// work a home core so N shards' rebalancers don't migrate onto each
  /// other. Empty (default) = unpinned, the pre-ISSUE-8 behaviour.
  std::vector<int> worker_cpus;

  /// Optimistic read path (ISSUE 4): how many seqlock windows a reader
  /// attempts per gate (failed validations, mutator-active snapshots and
  /// neighbour walks all count) before falling back to the blocking READ
  /// latch. 0 disables the optimistic path entirely — every read takes
  /// the latch, which is also the forced-fallback test mode. Overridden
  /// at construction by the CPMA_OPTIMISTIC_RETRIES environment
  /// variable when set.
  int optimistic_retries = 8;
};

}  // namespace cpma
