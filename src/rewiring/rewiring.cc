#include "rewiring/rewiring.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/failpoint.h"
#include "common/tagged.h"

#include <sys/mman.h>
#include <unistd.h>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/syscall.h>
#endif

namespace cpma {

namespace {

size_t RoundUp(size_t x, size_t align) {
  return (x + align - 1) / align * align;
}

bool ForceNoRewire() {
  const char* env = std::getenv("CPMA_FORCE_NO_REWIRE");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

constexpr size_t kHugePageBytes = size_t{2} << 20;

// Private anonymous mapping of `bytes` (a page multiple), zero on first
// touch; nullptr on failure. With `huge`, the mapping starts on a 2 MiB
// boundary (mapped with slack and trimmed when the kernel did not align
// it) and is advised MADV_HUGEPAGE, so the fault path can back it with
// PMD-mapped pages under THP `madvise` as well as `always`.
char* MapAnonymous(size_t bytes, bool huge) {
  const int prot = PROT_READ | PROT_WRITE;
  const int flags = MAP_PRIVATE | MAP_ANONYMOUS;
  void* p = mmap(nullptr, bytes, prot, flags, -1, 0);
  if (p == MAP_FAILED) return nullptr;
  char* base = static_cast<char*>(p);
  if (!huge) return base;
  if (bytes >= kHugePageBytes &&
      reinterpret_cast<uintptr_t>(base) % kHugePageBytes != 0) {
    munmap(base, bytes);
    p = mmap(nullptr, bytes + kHugePageBytes, prot, flags, -1, 0);
    if (p == MAP_FAILED) return nullptr;
    char* raw = static_cast<char*>(p);
    base = reinterpret_cast<char*>(
        RoundUp(reinterpret_cast<uintptr_t>(raw), kHugePageBytes));
    if (base > raw) munmap(raw, static_cast<size_t>(base - raw));
    munmap(base + bytes, static_cast<size_t>(raw + kHugePageBytes - base));
  }
#if defined(MADV_HUGEPAGE)
  madvise(base, bytes, MADV_HUGEPAGE);  // best effort
#endif
  return base;
}

#if defined(__linux__)

// ftruncate can be interrupted by a signal before completing (EINTR);
// retry until it settles one way or the other.
int FtruncateRetry(int fd, off_t len) {
  int rc;
  do {
    rc = ftruncate(fd, len);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

// mmap is not documented to fail with EINTR, but file-backed mappings
// can surface it through the backing store on some kernels; a defensive
// retry loop costs nothing on the success path.
void* MmapRetry(void* addr, size_t len, int prot, int flags, int fd,
                off_t off) {
  for (;;) {
    void* p = mmap(addr, len, prot, flags, fd, off);
    if (p != MAP_FAILED || errno != EINTR) return p;
  }
}

// Returns the memfd on success; on failure returns -1 with errno
// describing the reason and *failed_call naming the syscall.
int CreateMemFd(size_t bytes, const char** failed_call) {
#if defined(SYS_memfd_create)
  if (CPMA_FAILPOINT("rewiring.memfd")) {
    errno = EMFILE;
    *failed_call = "memfd_create(injected)";
    return -1;
  }
  int fd = static_cast<int>(syscall(SYS_memfd_create, "cpma_rewire", 0u));
  if (fd < 0) {
    *failed_call = "memfd_create";
    return -1;
  }
  const bool truncate_injected = CPMA_FAILPOINT("rewiring.ftruncate");
  if (truncate_injected) errno = ENOSPC;
  if (truncate_injected || FtruncateRetry(fd, static_cast<off_t>(bytes)) != 0) {
    *failed_call = truncate_injected ? "ftruncate(injected)" : "ftruncate";
    const int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  return fd;
#else
  (void)bytes;
  errno = ENOSYS;
  *failed_call = "memfd_create(unsupported)";
  return -1;
#endif
}

// Remap retry tuning: transient failures (EAGAIN/ENOMEM can clear when
// another thread releases mappings or the kernel reclaims) get a few
// attempts with capped exponential backoff before we give up on the
// zero-copy publish.
constexpr int kRemapAttempts = 4;
constexpr int kRemapBackoffBaseUs = 50;
constexpr int kRemapBackoffCapUs = 2000;

bool ErrnoTransient(int err) {
  return err == EAGAIN || err == ENOMEM || err == EINTR;
}

#endif  // __linux__

}  // namespace

std::unique_ptr<RewiredRegion> RewiredRegion::Create(size_t region_bytes,
                                                     size_t buffer_bytes,
                                                     bool use_rewiring,
                                                     Status* status) {
  auto r = std::unique_ptr<RewiredRegion>(new RewiredRegion());
  r->page_size_ = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  r->region_bytes_ = RoundUp(region_bytes, r->page_size_);
  r->buffer_bytes_ = RoundUp(buffer_bytes, r->page_size_);
  r->rewiring_requested_ = use_rewiring;
  const size_t total = r->region_bytes_ + r->buffer_bytes_;

#if defined(__linux__)
  if (use_rewiring && !ForceNoRewire()) {
    const char* failed_call = nullptr;
    r->fd_ = CreateMemFd(total, &failed_call);
    if (r->fd_ < 0) {
      std::fprintf(stderr,
                   "cpma: rewiring unavailable: %s failed: errno %d (%s); "
                   "falling back to anonymous copy backend\n",
                   failed_call, errno, std::strerror(errno));
    } else {
      void* region = nullptr;
      void* buffer = nullptr;
      if (CPMA_FAILPOINT("rewiring.mmap")) {
        errno = ENOMEM;
      } else {
        region = MmapRetry(nullptr, r->region_bytes_, PROT_READ | PROT_WRITE,
                           MAP_SHARED, r->fd_, 0);
        buffer = MmapRetry(nullptr, r->buffer_bytes_, PROT_READ | PROT_WRITE,
                           MAP_SHARED, r->fd_,
                           static_cast<off_t>(r->region_bytes_));
        if (region == MAP_FAILED) region = nullptr;
        if (buffer == MAP_FAILED) buffer = nullptr;
      }
      if (region == nullptr || buffer == nullptr) {
        std::fprintf(stderr,
                     "cpma: rewiring unavailable: mmap failed: errno %d (%s); "
                     "falling back to anonymous copy backend\n",
                     errno, std::strerror(errno));
        if (region != nullptr) munmap(region, r->region_bytes_);
        if (buffer != nullptr) munmap(buffer, r->buffer_bytes_);
        close(r->fd_);
        r->fd_ = -1;
      } else {
        r->region_ = static_cast<char*>(region);
        r->buffer_ = static_cast<char*>(buffer);
#if defined(MADV_HUGEPAGE)
        // Best effort; memfd-backed maps stay on 4K pages unless the
        // kernel enables THP for shmem, but asking is free.
        madvise(region, r->region_bytes_, MADV_HUGEPAGE);
        madvise(buffer, r->buffer_bytes_, MADV_HUGEPAGE);
#endif
        const size_t region_pages = r->region_bytes_ / r->page_size_;
        const size_t buffer_pages = r->buffer_bytes_ / r->page_size_;
        r->region_backing_.resize(region_pages);
        r->buffer_backing_.resize(buffer_pages);
        for (size_t i = 0; i < region_pages; ++i) r->region_backing_[i] = i;
        for (size_t i = 0; i < buffer_pages; ++i) {
          r->buffer_backing_[i] = region_pages + i;
        }
        if (status != nullptr) *status = Status::OK();
        return r;
      }
    }
  }
#endif  // __linux__

  // Anonymous backend: private anonymous memory, publishes by copy. It
  // is the last rung of the ladder — if even this fails, report
  // ResourceExhausted instead of letting the caller abort. Only the live
  // region is huge-page advised: the buffer is touched one window at a
  // time, and a huge page would fault in 2 MiB for a window that needs
  // a few KiB of it.
  char* region_mem = nullptr;
  char* buffer_mem = nullptr;
  if (!CPMA_FAILPOINT("rewiring.fallback_alloc")) {
    region_mem = MapAnonymous(r->region_bytes_, /*huge=*/true);
    buffer_mem = MapAnonymous(r->buffer_bytes_, /*huge=*/false);
  }
  if (region_mem == nullptr || buffer_mem == nullptr) {
    if (region_mem != nullptr) munmap(region_mem, r->region_bytes_);
    if (buffer_mem != nullptr) munmap(buffer_mem, r->buffer_bytes_);
    if (status != nullptr) {
      *status = Status::ResourceExhausted(
          "RewiredRegion anonymous allocation failed (" +
          std::to_string(total) + " bytes)");
    }
    return nullptr;
  }
  r->region_ = region_mem;
  r->buffer_ = buffer_mem;
  if (status != nullptr) *status = Status::OK();
  return r;
}

RewiredRegion::~RewiredRegion() {
  CPMA_CHECK_MSG(views_open_.load(std::memory_order_relaxed) == 0,
                 "RewiredRegion destroyed with open snapshot views");
  munmap(region_, region_bytes_);
  munmap(buffer_, buffer_bytes_);
  if (fd_ >= 0) close(fd_);
}

bool RewiredRegion::CanSwap(size_t region_offset, size_t buffer_offset,
                            size_t len) const {
  if (len == 0) return false;
  if (region_offset % page_size_ != 0 || buffer_offset % page_size_ != 0 ||
      len % page_size_ != 0) {
    return false;
  }
  return region_offset + len <= region_bytes_ &&
         buffer_offset + len <= buffer_bytes_;
}

#if defined(__linux__)

// Republish [first_page, first_page + pages) of `base` from the backing
// table, coalescing physically contiguous runs into single mmap calls
// (runs are long right after creation; they fragment as swaps
// accumulate, which is the realistic rewiring behaviour). Transient
// errors retry with capped exponential backoff. Returns false (with the
// range possibly partially remapped) on persistent failure or when the
// rewiring.remap_run failpoint fires; the caller restores.
bool RewiredRegion::RemapRuns(char* base, size_t first_page, size_t pages,
                              const std::vector<size_t>& backing, size_t lo,
                              bool allow_failpoints) {
  size_t i = 0;
  while (i < pages) {
    size_t run = 1;
    while (i + run < pages &&
           backing[lo + i + run] == backing[lo + i] + run) {
      ++run;
    }
    void* addr = base + (first_page + i) * page_size_;
    const off_t file_off = static_cast<off_t>(backing[lo + i] * page_size_);
    bool mapped = false;
    for (int attempt = 0; attempt < kRemapAttempts; ++attempt) {
      if (attempt > 0) {
        const int us = std::min(kRemapBackoffCapUs,
                                kRemapBackoffBaseUs << (attempt - 1));
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      }
      if (allow_failpoints && CPMA_FAILPOINT("rewiring.remap_run")) {
        errno = ENOMEM;  // injected transient failure: retry like a real one
        continue;
      }
      void* res = mmap(addr, run * page_size_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_FIXED, fd_, file_off);
      if (res == addr) {
        mapped = true;
        break;
      }
      CPMA_CHECK_MSG(res == MAP_FAILED,
                     "mmap(MAP_FIXED) returned an unexpected address "
                     "during rewiring");
      if (!ErrnoTransient(errno)) break;
    }
    if (!mapped) return false;
    num_remaps_.fetch_add(1, std::memory_order_relaxed);
    i += run;
  }
  return true;
}

bool RewiredRegion::TrySwapRemap(size_t region_offset, size_t buffer_offset,
                                 size_t len) {
  const size_t pages = len / page_size_;
  const size_t r0 = region_offset / page_size_;
  const size_t b0 = buffer_offset / page_size_;
  // Swap the backing tables, then republish both ranges.
  for (size_t i = 0; i < pages; ++i) {
    std::swap(region_backing_[r0 + i], buffer_backing_[b0 + i]);
  }
  if (RemapRuns(region_, r0, pages, region_backing_, r0,
                /*allow_failpoints=*/true) &&
      RemapRuns(buffer_, b0, pages, buffer_backing_, b0,
                /*allow_failpoints=*/true)) {
    return true;
  }
  // A run failed to publish partway through: un-swap the tables and
  // republish both ranges from the restored tables so every virtual page
  // maps its pre-call physical page again. Restoration must not fail —
  // a half-restored range would alias region and buffer pages — so it
  // bypasses failpoints and a persistent kernel failure here is still
  // terminal (with errno in the message via CheckFailed).
  const int saved_errno = errno;
  for (size_t i = 0; i < pages; ++i) {
    std::swap(region_backing_[r0 + i], buffer_backing_[b0 + i]);
  }
  CPMA_CHECK_MSG(RemapRuns(region_, r0, pages, region_backing_, r0,
                           /*allow_failpoints=*/false),
                 "failed to restore region mappings after remap failure");
  CPMA_CHECK_MSG(RemapRuns(buffer_, b0, pages, buffer_backing_, b0,
                           /*allow_failpoints=*/false),
                 "failed to restore buffer mappings after remap failure");
  DegradeToCopy("remap publication failed", saved_errno);
  return false;
}

#endif  // __linux__

void RewiredRegion::DegradeToCopy(const char* reason, int saved_errno) {
  num_remap_failures_.fetch_add(1, std::memory_order_relaxed);
  bool was = degraded_.exchange(true, std::memory_order_relaxed);
  if (!was) {
    std::fprintf(stderr,
                 "cpma: rewiring degraded to copy publishes: %s: errno %d "
                 "(%s)\n",
                 reason, saved_errno, std::strerror(saved_errno));
  }
}

void RewiredRegion::SwapPages(size_t region_offset, size_t buffer_offset,
                              size_t len) {
  CPMA_CHECK(CanSwap(region_offset, buffer_offset, len));

#if defined(__linux__)
  if (fd_ >= 0 && !degraded_.load(std::memory_order_relaxed)) {
    if (CPMA_FAILPOINT("rewiring.remap")) {
      // Whole-publication failure injected before any mapping changed:
      // degrade straight to the copy path below.
      DegradeToCopy("injected rewiring.remap failure", ENOMEM);
    } else {
      // Shared vs the exclusive COW ops (view capture reads the whole
      // backing table; CowPreserveRange rewrites entries): parallel
      // workers swapping disjoint partitions still proceed together.
      cow_mu_.lock_shared();
      const bool swapped = TrySwapRemap(region_offset, buffer_offset, len);
      cow_mu_.unlock_shared();
      if (swapped) return;
    }
    // TrySwapRemap restored the old mappings; fall through to copy.
  }
#endif

  CopyPublish(region_offset, buffer_offset, len);
}

void RewiredRegion::CopyPublish(size_t region_offset, size_t buffer_offset,
                                size_t len) {
  CPMA_CHECK(region_offset + len <= region_bytes_ &&
             buffer_offset + len <= buffer_bytes_);
  // Single copy buffer -> region (callers stage data in the buffer; this
  // is the classical two-copies rebalance, second copy here). The
  // destination races with optimistic gate readers, so the copy is
  // tagged (common/tagged.h).
  TaggedCopyWords(region_ + region_offset, buffer_ + buffer_offset, len);
  num_fallback_copies_.fetch_add(1, std::memory_order_relaxed);
}

void RewiredRegion::ReleaseBuffer() {
  if (fd_ < 0) madvise(buffer_, buffer_bytes_, MADV_DONTNEED);
}

// --------------------------------------------------------------- COW

RewiredRegion::SnapshotView::~SnapshotView() {
  if (owner_ != nullptr) owner_->CloseSnapshotView(this);
}

// First view of this region: size the pin/ref tables. Every file page
// allocated so far is referenced by exactly one backing table (swaps
// exchange table entries, they never orphan a page), so "in tables" is
// uniformly true and pins are zero.
void RewiredRegion::LazyInitCowTables() {
  if (!page_pins_.empty()) return;
  file_pages_ = (region_bytes_ + buffer_bytes_) / page_size_;
  page_pins_.assign(file_pages_, 0);
  page_in_tables_.assign(file_pages_, 1);
}

#if defined(__linux__)

// Fresh file page for a COW copy: recycle a hole-punched page if one is
// free, else grow the fd by one page. Failure (real ENOSPC or the
// rewiring.cow_grow failpoint) is reported, not fatal — the caller
// falls back to heap-copying its range.
bool RewiredRegion::AllocFileTailPage(size_t* out_page) {
  if (!free_file_pages_.empty()) {
    *out_page = free_file_pages_.back();
    free_file_pages_.pop_back();
    return true;
  }
  if (CPMA_FAILPOINT("rewiring.cow_grow")) {
    errno = ENOSPC;
    return false;
  }
  const size_t page = file_pages_;
  if (FtruncateRetry(fd_, static_cast<off_t>((page + 1) * page_size_)) != 0) {
    return false;
  }
  file_pages_ = page + 1;
  page_pins_.push_back(0);
  page_in_tables_.push_back(0);
  *out_page = page;
  return true;
}

// Return a dead file page (no view pin, no table reference) to the free
// list, releasing its physical memory. Punch-hole support is best
// effort: without it the page's memory stays resident until recycled.
void RewiredRegion::ReleaseFilePage(size_t page) {
#if defined(FALLOC_FL_PUNCH_HOLE) && defined(FALLOC_FL_KEEP_SIZE)
  int rc;
  do {
    rc = fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                   static_cast<off_t>(page * page_size_),
                   static_cast<off_t>(page_size_));
  } while (rc != 0 && errno == EINTR);
#endif
  free_file_pages_.push_back(page);
}

std::unique_ptr<RewiredRegion::SnapshotView> RewiredRegion::CreateSnapshotView(
    Status* status) {
  if (fd_ < 0) {
    if (status != nullptr) {
      *status = Status::InvalidArgument(
          "snapshot views need the fd-backed rewiring backend (region is on "
          "the anonymous backend)");
    }
    return nullptr;
  }
  cow_mu_.lock();
  LazyInitCowTables();
  auto fail = [&](const char* what, int err) {
    cow_mu_.unlock();
    if (status != nullptr) {
      *status = Status::ResourceExhausted(
          std::string("snapshot view mapping failed: ") + what + ": errno " +
          std::to_string(err) + " (" + std::strerror(err) + ")");
    }
    return std::unique_ptr<SnapshotView>();
  };
  if (CPMA_FAILPOINT("rewiring.view_mmap")) return fail("mmap(injected)", ENOMEM);
  // Reserve the range, then overlay read-only file mappings run by run
  // (same coalescing as RemapRuns — a freshly created region is one
  // run; swap history fragments it).
  void* reserve = MmapRetry(nullptr, region_bytes_, PROT_NONE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (reserve == MAP_FAILED) return fail("mmap(reserve)", errno);
  char* base = static_cast<char*>(reserve);
  const size_t pages = region_bytes_ / page_size_;
  size_t i = 0;
  while (i < pages) {
    size_t run = 1;
    while (i + run < pages &&
           region_backing_[i + run] == region_backing_[i] + run) {
      ++run;
    }
    void* addr = base + i * page_size_;
    void* res = MmapRetry(addr, run * page_size_, PROT_READ,
                          MAP_SHARED | MAP_FIXED, fd_,
                          static_cast<off_t>(region_backing_[i] * page_size_));
    if (res != addr) {
      const int err = errno;
      munmap(base, region_bytes_);
      return fail("mmap(view run)", err);
    }
    i += run;
  }
  auto v = std::unique_ptr<SnapshotView>(new SnapshotView());
  v->owner_ = this;
  v->base_ = base;
  v->bytes_ = region_bytes_;
  v->backing_ = region_backing_;
  for (size_t p : v->backing_) ++page_pins_[p];
  views_created_.fetch_add(1, std::memory_order_relaxed);
  views_open_.fetch_add(1, std::memory_order_relaxed);
  cow_mu_.unlock();
  if (status != nullptr) *status = Status::OK();
  return v;
}

void RewiredRegion::CloseSnapshotView(SnapshotView* view) {
  cow_mu_.lock();
  munmap(view->base_, view->bytes_);
  for (size_t p : view->backing_) {
    if (--page_pins_[p] == 0 && page_in_tables_[p] == 0) {
      // Alive only for this view: release the superseded page.
      ReleaseFilePage(p);
      cow_retained_pages_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  views_open_.fetch_sub(1, std::memory_order_relaxed);
  cow_mu_.unlock();
  view->owner_ = nullptr;
}

RewiredRegion::CowResult RewiredRegion::CowPreserveRange(
    const SnapshotView& view, size_t offset, size_t len) {
  CPMA_CHECK(view.owner_ == this && offset + len <= region_bytes_);
  // Page-aligned interior; the partial-page edges stay the caller's
  // problem (they may share pages with ranges owned by other writers,
  // which this view must not freeze mid-write).
  const size_t lo = (offset + page_size_ - 1) / page_size_;
  const size_t hi = (offset + len) / page_size_;
  if (lo >= hi) return CowResult::kFrozen;  // no whole page inside
  cow_mu_.lock();
  // Staleness test: the view's image of a page equals live content only
  // while the region still maps the file page captured at view
  // creation. A swap publish that rewired this range since capture (a
  // writer that raced the capture and skipped preservation) broke that;
  // the caller must copy its bytes instead.
  for (size_t p = lo; p < hi; ++p) {
    if (region_backing_[p] != view.backing_[p]) {
      cow_mu_.unlock();
      return CowResult::kStale;
    }
  }
  for (size_t p = lo; p < hi; ++p) {
    const size_t old_page = region_backing_[p];
    if (page_pins_[old_page] == 0) continue;  // already exclusive
    size_t fresh = 0;
    char* vaddr = region_ + p * page_size_;
    // Copy current content to the fresh page through the fd, then remap
    // the live region page onto it. The old page keeps the view's pin
    // and leaves the tables: frozen until the last view closes.
    if (!AllocFileTailPage(&fresh) ||
        !PwriteFully(fd_, vaddr, page_size_, fresh * page_size_).ok()) {
      cow_mu_.unlock();
      return CowResult::kUnavailable;  // pages frozen so far stay valid
    }
    void* res = MmapRetry(vaddr, page_size_, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_FIXED, fd_,
                          static_cast<off_t>(fresh * page_size_));
    if (res != vaddr) {
      CPMA_CHECK_MSG(res == MAP_FAILED,
                     "mmap(MAP_FIXED) returned an unexpected address during "
                     "COW preserve");
      ReleaseFilePage(fresh);
      cow_mu_.unlock();
      return CowResult::kUnavailable;
    }
    region_backing_[p] = fresh;
    page_in_tables_[old_page] = 0;
    page_in_tables_[fresh] = 1;
    cow_page_copies_.fetch_add(1, std::memory_order_relaxed);
    cow_retained_pages_.fetch_add(1, std::memory_order_relaxed);
  }
  cow_mu_.unlock();
  return CowResult::kFrozen;
}

#else  // !__linux__

bool RewiredRegion::AllocFileTailPage(size_t*) { return false; }
void RewiredRegion::ReleaseFilePage(size_t) {}

std::unique_ptr<RewiredRegion::SnapshotView> RewiredRegion::CreateSnapshotView(
    Status* status) {
  if (status != nullptr) {
    *status = Status::InvalidArgument("snapshot views require linux");
  }
  return nullptr;
}

void RewiredRegion::CloseSnapshotView(SnapshotView* view) {
  view->owner_ = nullptr;
}

RewiredRegion::CowResult RewiredRegion::CowPreserveRange(const SnapshotView&,
                                                         size_t, size_t) {
  return CowResult::kUnavailable;
}

#endif  // __linux__

size_t RewiredRegion::backing_page_bytes() const {
#if defined(__linux__)
  // Walk /proc/self/smaps to the mapping holding the live region and
  // report 2 MiB iff the kernel has PMD-sized pages faulted in for it
  // (memfd maps show ShmemPmdMapped/FilePmdMapped, the anonymous
  // backend AnonHugePages). Reading smaps is microseconds — callers
  // are bench reporters, not hot paths.
  std::FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return page_size_;
  const unsigned long target = reinterpret_cast<unsigned long>(region_);
  char line[256];
  bool in_mapping = false;
  size_t result = page_size_;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line, "%lx-%lx ", &lo, &hi) == 2) {
      if (in_mapping && target < lo) break;  // past our mapping
      in_mapping = target >= lo && target < hi;
      continue;
    }
    if (!in_mapping) continue;
    size_t kb = 0;
    if (std::sscanf(line, "AnonHugePages: %zu", &kb) == 1 ||
        std::sscanf(line, "ShmemPmdMapped: %zu", &kb) == 1 ||
        std::sscanf(line, "FilePmdMapped: %zu", &kb) == 1) {
      if (kb > 0) {
        result = 2u * 1024 * 1024;
        break;
      }
    }
  }
  std::fclose(f);
  return result;
#else
  return page_size_;
#endif
}

}  // namespace cpma
