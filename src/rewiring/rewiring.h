// Item-region memory and its two publish backends.
//
// A RewiredRegion is a live region plus an equally sized staging buffer.
// Rebalance workers copy elements into the buffer once and then publish
// a window of it into the region. There are two backends:
//
//  - Anonymous (the default; PmaConfig::use_rewiring = false). Region
//    and buffer are private anonymous mappings, zero on first touch. The
//    live region is 2 MiB aligned and advised MADV_HUGEPAGE, so under
//    THP `madvise` or `always` reads and inserts walk 2 MiB pages; the
//    buffer stays on base pages. A publish is one tagged copy
//    (CopyPublish).
//  - Rewired (use_rewiring = true; Schuhknecht et al., "RUMA has it",
//    PVLDB'16; paper §2). Both ranges map pages of one in-memory file
//    (memfd) and SwapPages exchanges the *mappings*, so the copied data
//    appears in the region without a second copy and the region's old
//    physical pages become the next buffer. Its mapping unit is the
//    file's page: 4 KiB unless the kernel enables THP for shmem. Each
//    publish then costs one mmap(MAP_FIXED) per page run plus a minor
//    fault per remapped page on its next touch, and every access walks
//    4 KiB page tables. What it buys is zero-copy COW snapshot views
//    (below); on the anonymous backend snapshots copy gate chunks to the
//    heap instead.
//
// Backend ladder: use_rewiring = true tries the memfd first; a failed
// memfd_create/ftruncate/mmap (or CPMA_FORCE_NO_REWIRE=1) falls back to
// the anonymous backend, and a failed remap publication degrades the
// region to copy publishes. rewiring_requested() && !rewiring_enabled()
// is that "fell back" state.
//
// Copy-on-write snapshot views (rewired backend only): a SnapshotView is
// a second, read-only mapping of the file pages that back the region at
// capture time (O(mapped runs) mmap calls, zero copy). The view pins
// those file pages; writers that need to mutate a pinned page first
// re-back the live region with a fresh file page carrying a copy of the
// current content (CowPreserveRange), so the view's image never changes.
// Superseded pages stay allocated until the last view pinning them
// closes, then their file extent is hole-punched and recycled.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/latches.h"
#include "common/status.h"

namespace cpma {

class RewiredRegion {
 public:
  /// Create a region of `region_bytes` plus a buffer of `buffer_bytes`;
  /// both are rounded up to whole pages. `use_rewiring` selects the
  /// memfd backend, falling back to the anonymous one as described in
  /// the file comment; with false the anonymous backend is built
  /// directly. Only when the anonymous allocation fails (or the
  /// rewiring.fallback_alloc failpoint fires) does Create return
  /// nullptr, with `status` (when non-null) set to ResourceExhausted.
  static std::unique_ptr<RewiredRegion> Create(size_t region_bytes,
                                               size_t buffer_bytes,
                                               bool use_rewiring,
                                               Status* status = nullptr);

  ~RewiredRegion();

  RewiredRegion(const RewiredRegion&) = delete;
  RewiredRegion& operator=(const RewiredRegion&) = delete;

  char* data() { return region_; }
  const char* data() const { return region_; }
  char* buffer() { return buffer_; }

  size_t region_bytes() const { return region_bytes_; }
  size_t buffer_bytes() const { return buffer_bytes_; }
  size_t page_size() const { return page_size_; }

  /// True when real mmap-based rewiring is active (as opposed to copy
  /// publishes) and the region has not degraded to copy publishes after
  /// a remap failure.
  bool rewiring_enabled() const {
    return fd_ >= 0 && !degraded_.load(std::memory_order_relaxed);
  }

  /// The use_rewiring argument of Create.
  bool rewiring_requested() const { return rewiring_requested_; }

  /// True once a remap publication failed and the region permanently
  /// switched to the tagged-copy publish path (memory stays valid; only
  /// the zero-copy exchange is lost). Sticky.
  bool degraded_to_copy() const {
    return degraded_.load(std::memory_order_relaxed);
  }

  /// True iff the given byte range can be swapped by remapping (both
  /// offsets and the length are page aligned and in range).
  bool CanSwap(size_t region_offset, size_t buffer_offset, size_t len) const;

  /// Exchange the backing of region[region_offset, +len) with
  /// buffer[buffer_offset, +len). Page aligned ranges only (CanSwap).
  /// Postcondition: the region range contains what the buffer range
  /// contained. With rewiring active the exchange is bidirectional (old
  /// array pages become buffer); otherwise it is a CopyPublish and the
  /// buffer range keeps a stale copy.
  void SwapPages(size_t region_offset, size_t buffer_offset, size_t len);

  /// Publish buffer[buffer_offset, +len) into region[region_offset, +len)
  /// by one tagged copy, on either backend and at any word-aligned
  /// offsets.
  void CopyPublish(size_t region_offset, size_t buffer_offset, size_t len);

  /// Hand the buffer's physical pages back to the kernel on the
  /// anonymous backend (its content reads as zero afterwards). Only
  /// while nothing stages into or publishes from the buffer. A no-op on
  /// the rewired backend, whose buffer maps memfd pages that swaps and
  /// COW views share with the region.
  void ReleaseBuffer();

  /// Number of mmap(MAP_FIXED) calls made by remap publications so far
  /// (one per coalesced page run, region and buffer side each).
  uint64_t num_remaps() const {
    return num_remaps_.load(std::memory_order_relaxed);
  }

  /// Number of copy publishes (CopyPublish calls, including SwapPages
  /// calls that copied). Together with num_remaps this tells a bench run
  /// which publish mechanism it actually measured.
  uint64_t num_fallback_copies() const {
    return num_fallback_copies_.load(std::memory_order_relaxed);
  }

  /// Remap publications that failed (real mmap error or injected fault)
  /// and were recovered by restoring the old mappings and publishing via
  /// the tagged-copy path instead.
  uint64_t num_remap_failures() const {
    return num_remap_failures_.load(std::memory_order_relaxed);
  }

  /// Mapping granularity (the unit SwapPages exchanges) — sysconf page
  /// size. See backing_page_bytes() for the physical page size.
  size_t page_bytes() const { return page_size_; }

  /// Physical page size actually backing the live region *right now*:
  /// 2 MiB when the kernel honoured MADV_HUGEPAGE for this mapping
  /// (probed via /proc/self/smaps, so the answer reflects faulted-in
  /// state, not just the request), else the 4 KiB base page size.
  /// ROADMAP: benches report this so huge-page A/Bs are labelled with
  /// what a run really used instead of what it asked for.
  size_t backing_page_bytes() const;

  // ----------------------------------------------------- COW snapshots

  /// Read-only point-in-time mapping of the region's backing pages.
  /// The image of a byte is guaranteed frozen (equal to the region
  /// content at the last successful CowPreserveRange covering it) only
  /// for ranges a caller explicitly preserved; other pages are shared
  /// with the live region and mutate with it. Views must be destroyed
  /// before their RewiredRegion (the region's destructor checks).
  class SnapshotView {
   public:
    ~SnapshotView();
    SnapshotView(const SnapshotView&) = delete;
    SnapshotView& operator=(const SnapshotView&) = delete;

    const char* data() const { return base_; }
    size_t bytes() const { return bytes_; }

   private:
    friend class RewiredRegion;
    SnapshotView() = default;

    RewiredRegion* owner_ = nullptr;
    char* base_ = nullptr;
    size_t bytes_ = 0;
    // File page backing each view page, captured at creation. The live
    // region's image of page i equals the view's iff region_backing_[i]
    // still matches — the staleness test CowPreserveRange applies.
    std::vector<size_t> backing_;
  };

  /// Capture a view of the whole region. O(mapped runs) mmaps, no data
  /// copy. Returns nullptr with `status` set when the backend cannot
  /// support views (anonymous backend) or mapping fails
  /// (including the rewiring.view_mmap failpoint) — callers degrade to
  /// heap copies.
  std::unique_ptr<SnapshotView> CreateSnapshotView(Status* status = nullptr);

  enum class CowResult {
    kFrozen,       // view image of the page-aligned interior is now stable
    kStale,        // region was re-backed since capture; view image is stale
    kUnavailable,  // backend/allocation cannot freeze; nothing guaranteed
  };

  /// Freeze the view's image of the page-aligned interior of
  /// [offset, offset+len): every file page still shared between the
  /// live region and the view is copied to a fresh file page and the
  /// region is remapped onto the copy, so subsequent region writes no
  /// longer reach the view. Partial-page edges are NOT frozen — callers
  /// preserve those few bytes themselves (they may share pages with
  /// neighbours they don't own). On kStale/kUnavailable the caller must
  /// fall back to copying the range; already-frozen pages stay valid.
  CowResult CowPreserveRange(const SnapshotView& view, size_t offset,
                             size_t len);

  /// COW observability: views ever created / currently open, pages
  /// copied to preserve a view, and bytes of file pages alive only
  /// because a view pins them (the snapshot memory overhead).
  uint64_t num_snapshot_views() const {
    return views_created_.load(std::memory_order_relaxed);
  }
  uint64_t snapshot_views_open() const {
    return views_open_.load(std::memory_order_relaxed);
  }
  uint64_t cow_page_copies() const {
    return cow_page_copies_.load(std::memory_order_relaxed);
  }
  uint64_t cow_retained_page_bytes() const {
    return cow_retained_pages_.load(std::memory_order_relaxed) * page_size_;
  }

 private:
  RewiredRegion() = default;

  // Remap-publication internals (rewired mode only). TrySwapRemap swaps
  // the backing tables and republishes both ranges with mmap(MAP_FIXED);
  // on any per-run failure it restores the pre-swap tables and mappings
  // and returns false so SwapPages can publish by tagged copy instead.
  bool TrySwapRemap(size_t region_offset, size_t buffer_offset, size_t len);
  bool RemapRuns(char* base, size_t first_page, size_t pages,
                 const std::vector<size_t>& backing, size_t lo,
                 bool allow_failpoints);
  void DegradeToCopy(const char* reason, int saved_errno);

  // COW internals; all called with cow_mu_ held exclusive.
  void LazyInitCowTables();
  bool AllocFileTailPage(size_t* out_page);
  void ReleaseFilePage(size_t page);
  void CloseSnapshotView(SnapshotView* view);

  char* region_ = nullptr;
  char* buffer_ = nullptr;
  size_t region_bytes_ = 0;
  size_t buffer_bytes_ = 0;
  size_t page_size_ = 4096;
  int fd_ = -1;  // memfd; -1 => anonymous backend
  bool rewiring_requested_ = false;

  // Physical (file) page index backing each virtual page.
  std::vector<size_t> region_backing_;
  std::vector<size_t> buffer_backing_;

  // Atomic: parallel rebalance workers swap disjoint partitions.
  std::atomic<uint64_t> num_remaps_{0};
  std::atomic<uint64_t> num_fallback_copies_{0};
  std::atomic<uint64_t> num_remap_failures_{0};

  // Set once a remap publication failed; all later SwapPages publish by
  // copy. Workers race to set it (relaxed is fine — it only ever goes
  // false -> true and the copy path is always correct).
  std::atomic<bool> degraded_{false};

  // --- COW snapshot state. The backing tables are read by parallel
  // rebalance workers on disjoint ranges (no sync needed among them) but
  // whole-table readers/writers appeared with views: swap publishes hold
  // cow_mu_ shared, view create/close and CowPreserveRange hold it
  // exclusive. Uncontended shared acquire is one CAS — noise next to the
  // mmap calls it brackets.
  mutable FairSharedMutex cow_mu_;
  size_t file_pages_ = 0;                // current fd length, pages
  std::vector<uint32_t> page_pins_;      // per file page: # open views mapping it
  std::vector<uint8_t> page_in_tables_;  // 1 iff in region_/buffer_backing_
  std::vector<size_t> free_file_pages_;  // allocated, unreferenced, hole-punched
  std::atomic<uint64_t> views_created_{0};
  std::atomic<uint64_t> views_open_{0};
  std::atomic<uint64_t> cow_page_copies_{0};
  std::atomic<uint64_t> cow_retained_pages_{0};
};

}  // namespace cpma
