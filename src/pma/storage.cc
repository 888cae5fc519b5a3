#include "pma/storage.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/failpoint.h"

namespace cpma {

bool Storage::Init(size_t num_segments, size_t segment_capacity,
                   bool use_rewiring, Status* status) {
  CPMA_CHECK(num_segments >= 1);
  CPMA_CHECK(segment_capacity >= 4);
  num_segments_ = num_segments;
  segment_capacity_ = segment_capacity;
  if (CPMA_FAILPOINT("storage.create")) {
    *status = Status::ResourceExhausted("injected storage.create failure");
    return false;
  }
  const size_t bytes = capacity() * sizeof(Item);
  region_ = RewiredRegion::Create(bytes, bytes, use_rewiring, status);
  if (region_ == nullptr) return false;
  items_ = reinterpret_cast<Item*>(region_->data());
  buffer_ = reinterpret_cast<Item*>(region_->buffer());
  try {
    card_.assign(num_segments_, 0);
    route_.assign(num_segments_, kKeySentinel);
    inserts_.assign(num_segments_, 0);
  } catch (const std::bad_alloc&) {
    *status = Status::ResourceExhausted(
        "Storage metadata allocation failed (" +
        std::to_string(num_segments_) + " segments)");
    return false;
  }
  route_[0] = kKeyMin;
  *status = Status::OK();
  return true;
}

Storage::Storage(size_t num_segments, size_t segment_capacity,
                 bool use_rewiring) {
  Status st;
  if (!Init(num_segments, segment_capacity, use_rewiring, &st)) {
    CPMA_CHECK_MSG(false, st.ToString().c_str());
  }
}

std::unique_ptr<Storage> Storage::TryCreate(size_t num_segments,
                                            size_t segment_capacity,
                                            bool use_rewiring,
                                            Status* status) {
  auto s = std::unique_ptr<Storage>(new (std::nothrow) Storage());
  if (s == nullptr) {
    *status = Status::ResourceExhausted("Storage object allocation failed");
    return nullptr;
  }
  if (!s->Init(num_segments, segment_capacity, use_rewiring, status)) {
    return nullptr;
  }
  return s;
}

size_t Storage::RouteSegment(Key key) const {
  // upper_bound returns the first route > key; the target segment is the
  // one before it. route_[0] == kKeyMin <= key always, so idx >= 1.
  //
  // Deliberately branchy (PR 2 A/B'd a branchless cmov upper bound here
  // and dropped it): the route array outgrows L1 (128 KiB at 16k
  // segments), where a cmov chain serializes one cache miss per level,
  // while a predicted branch speculates ahead and overlaps the loads —
  // and wins on ascending/zipf patterns outright. Contrast with the
  // in-cache segment kernels in common/hotpath/search.h.
  auto it = std::upper_bound(route_.begin(), route_.end(), key);
  return static_cast<size_t>(it - route_.begin()) - 1;
}

void Storage::SwapWindow(size_t seg_begin, size_t seg_end) {
  CPMA_CHECK(seg_begin < seg_end && seg_end <= num_segments_);
  const size_t off = seg_begin * segment_bytes();
  const size_t len = (seg_end - seg_begin) * segment_bytes();
#if !CPMA_TSAN
  if (region_->CanSwap(off, off, len)) {
    region_->SwapPages(off, off, len);  // remaps only with rewiring active
    return;
  }
#endif
  // Copy publish (alignment forbids a remap, or a TSan build). The
  // destination races with optimistic readers, so the copy is tagged
  // (plain memcpy in production, per-word atomics under TSan —
  // common/tagged.h). Under TSan the remap publish is disabled
  // outright: the interceptor models mmap(MAP_FIXED) as a plain write
  // to the whole range, and a page exchange cannot be expressed as
  // atomics — readers racing a remap see either the old or the new
  // page image, word-atomically either way, and validation discards
  // the window; the instrumented build proves exactly that protocol on
  // the copy mechanism (the remap mechanism itself stays covered by
  // the unit/asan rewiring suites).
  region_->CopyPublish(off, off, len);
}

void Storage::RebuildRoutes(size_t seg_begin, size_t seg_end) {
  for (size_t s = seg_begin; s < seg_end; ++s) {
    if (s == 0) {
      set_route(0, kKeyMin);
    } else if (card(s) > 0) {
      set_route(s, segment(s)[0].key);
    } else {
      set_route(s, kKeySentinel);
    }
  }
}

}  // namespace cpma
