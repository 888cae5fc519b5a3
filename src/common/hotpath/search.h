// Hot-path search kernels (ISSUE 2): the PMA's segment and routing
// searches, deduplicated out of the two anonymous-namespace copies that
// used to live in sequential_pma.cc / concurrent_pma.cc, plus the
// software-prefetch helpers used by the scan loops.
//
// Two kernels, chosen by what FOLLOWS the search (all choices A/B'd on
// the dev box, min-CPU-time over interleaved runs; see BENCH_PR2.json):
//
//  - Read paths (Find, scan cursor placement) call the dispatched
//    SegmentLowerBound (cpu_dispatch.h): a branchless halving loop whose
//    step compiles to a conditional move — log2(n) data-dependent loads,
//    zero branch mispredictions — or its AVX2 widening (search_avx2.h).
//    Nothing depends on the result but a compare, so the serial chain is
//    the whole cost and removing mispredicts wins outright (-40% on
//    BM_SequentialPmaFind).
//
//  - Update paths (Insert/Remove) call SegmentLowerBoundForUpdate: an
//    append fast path plus a deliberately BRANCHY binary search. The
//    element shift that follows depends on the result; a predicted
//    branchy search lets the CPU speculate `pos` and start the memmove's
//    loads early, while a cmov chain stalls them behind every level of
//    the search. Branchless lost ~14% on BM_SequentialPmaInsertUniform
//    in the A/B; the ascending pattern additionally gets the fast path
//    (one always-taken branch instead of any search at all).

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/hotpath/cpu_dispatch.h"
#include "pma/item.h"

namespace cpma::hotpath {

/// Branchless lower bound over the keys of the sorted array seg[0..n):
/// index of the first item with key >= `key`, n if none. Read-path
/// kernel; reached via the SegmentLowerBound dispatch on CPUs without
/// AVX2 (or with CPMA_DISABLE_AVX2 set).
inline size_t ScalarItemLowerBound(const Item* seg, size_t n, Key key) {
  const Item* base = seg;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base += static_cast<size_t>(base[half - 1].key < key) * half;
    len -= half;
  }
  return static_cast<size_t>(base - seg) +
         ((n > 0 && base->key < key) ? 1 : 0);
}

/// Lower bound for update call sites (see file comment for why this one
/// is branchy). The append fast path reads the segment's last item — for
/// updates that line is touched by the shift anyway, so it costs nothing
/// (which is why Find must NOT use this wrapper: there the tail read
/// would be a wasted cold miss).
inline size_t SegmentLowerBoundForUpdate(const Item* seg, uint32_t card,
                                         Key key) {
  if (card == 0 || seg[card - 1].key < key) return card;
  size_t lo = 0, hi = card;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (seg[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Prefetch the head of a segment into all cache levels — issued for
/// segment s+1 while a scan consumes segment s (the B+-tree baseline
/// prefetches its next leaf the same way; see btree.cc). Only the first
/// few lines are touched explicitly; the hardware prefetcher keeps up
/// once the scan streams sequentially inside the segment.
inline void PrefetchSegment(const Item* seg, uint32_t card) {
#if defined(__GNUC__) || defined(__clang__)
  constexpr size_t kLine = 64;
  constexpr size_t kMaxBytes = 4 * kLine;
  const size_t bytes =
      std::min(static_cast<size_t>(card) * sizeof(Item), kMaxBytes);
  const char* p = reinterpret_cast<const char*>(seg);
  for (size_t off = 0; off < bytes; off += kLine) {
    __builtin_prefetch(p + off, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)seg;
  (void)card;
#endif
}

/// Prefetch every cache line that overlaps [p, p + bytes), for reading,
/// into all cache levels. The point-op descents issue it as soon as an
/// address is known — the gate and its route/card slices right after
/// the index lookup, a segment's occupied prefix right after its card —
/// so the misses of one op overlap instead of each waiting on the one
/// before (pB+-trees, Chen et al., SIGMOD'01: a prefetched wide node
/// costs about one miss). Never touches memory: no line past the range
/// is named, and an empty range issues nothing.
inline void PrefetchRange(const void* p, size_t bytes) {
#if defined(__GNUC__) || defined(__clang__)
  constexpr uintptr_t kLine = 64;
  if (bytes == 0) return;
  const uintptr_t begin = reinterpret_cast<uintptr_t>(p);
  const uintptr_t end = begin + bytes;
  for (uintptr_t a = begin & ~(kLine - 1); a < end; a += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(a), /*rw=*/0,
                       /*locality=*/3);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace cpma::hotpath
