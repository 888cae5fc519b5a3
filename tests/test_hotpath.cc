// Property tests for the hot-path search kernels (ISSUE 2): the scalar
// and AVX2 lower bounds must agree with std::lower_bound on ~10k random
// segments across every cardinality 0..segment_capacity, with duplicate
// keys and keys at the sentinel boundary (the AVX2 kernel compares
// unsigned via a sign-bit flip — the boundary cases prove it). Segments
// are allocated exactly `card` items so ASan catches any out-of-bounds
// read by the vector window logic.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

#include "common/hotpath/cpu_dispatch.h"
#include "common/hotpath/search.h"
#include "common/hotpath/search_avx2.h"
#include "common/random.h"
#include "pma/item.h"

namespace cpma {
namespace {

size_t ReferenceLowerBound(const std::vector<Item>& seg, Key key) {
  auto it = std::lower_bound(
      seg.begin(), seg.end(), key,
      [](const Item& a, Key k) { return a.key < k; });
  return static_cast<size_t>(it - seg.begin());
}

/// Sorted segment of exactly `card` items. `domain` small => duplicates
/// likely; `near_sentinel` clusters keys at the top of the key space.
std::vector<Item> MakeSegment(Random& rng, size_t card, uint64_t domain,
                              bool near_sentinel) {
  std::vector<Item> seg(card);
  for (size_t i = 0; i < card; ++i) {
    Key k = rng.NextBounded(domain);
    if (near_sentinel) k = kKeyMax - (k % 1000);
    seg[i] = {k, i};
  }
  std::sort(seg.begin(), seg.end(),
            [](const Item& a, const Item& b) { return a.key < b.key; });
  return seg;
}

std::vector<Key> ProbeKeys(Random& rng, const std::vector<Item>& seg,
                           uint64_t domain) {
  std::vector<Key> probes = {0, 1, domain - 1, kKeyMax, kKeySentinel};
  for (const Item& it : seg) {
    probes.push_back(it.key);
    if (it.key > 0) probes.push_back(it.key - 1);
    if (it.key < kKeySentinel) probes.push_back(it.key + 1);
  }
  for (int i = 0; i < 4; ++i) probes.push_back(rng.NextBounded(domain));
  return probes;
}

struct Shape {
  size_t cap;
  uint64_t domain;
  bool near_sentinel;
};

void RunPropertySuite(
    const std::function<size_t(const Item*, size_t, Key)>& kernel,
    const char* name) {
  Random rng(20260730);
  const Shape shapes[] = {
      {4, 1 << 20, false},    {16, 1 << 20, false},
      {100, 1 << 20, false},  // non-power-of-two length
      {128, 1 << 20, false},  // the paper's B
      {128, 64, false},       // tiny domain: heavy duplicates
      {256, 1 << 20, false},  // ablation B
      {128, 1 << 20, true},   // keys hugging kKeyMax/kKeySentinel
  };
  size_t segments = 0;
  for (const Shape& sh : shapes) {
    // Every cardinality 0..cap once, then random cardinalities until
    // this shape has contributed ~1500 segments.
    std::vector<size_t> cards;
    for (size_t c = 0; c <= sh.cap; ++c) cards.push_back(c);
    while (cards.size() < 1500) {
      cards.push_back(rng.NextBounded(sh.cap + 1));
    }
    for (size_t card : cards) {
      const auto seg = MakeSegment(rng, card, sh.domain, sh.near_sentinel);
      for (Key probe : ProbeKeys(rng, seg, sh.domain)) {
        const size_t expect = ReferenceLowerBound(seg, probe);
        const size_t got = kernel(seg.data(), seg.size(), probe);
        ASSERT_EQ(got, expect)
            << name << ": cap=" << sh.cap << " card=" << card
            << " near_sentinel=" << sh.near_sentinel << " key=" << probe;
      }
      ++segments;
    }
  }
  ASSERT_GE(segments, 10000u) << "property suite lost coverage";
}

TEST(HotpathSearch, ScalarMatchesStdLowerBound) {
  RunPropertySuite(hotpath::ScalarItemLowerBound, "scalar");
}

TEST(HotpathSearch, Avx2MatchesStdLowerBound) {
#if CPMA_HAVE_AVX2_IMPL
  if (!hotpath::Avx2Supported()) {
    GTEST_SKIP() << "CPU lacks AVX2; portable path covered elsewhere";
  }
  RunPropertySuite(hotpath::Avx2ItemLowerBound, "avx2");
#else
  GTEST_SKIP() << "AVX2 kernel not compiled on this target";
#endif
}

TEST(HotpathSearch, DispatchedSegmentLowerBoundMatchesScalar) {
  Random rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t card = rng.NextBounded(129);
    const auto seg = MakeSegment(rng, card, 1 << 16, trial % 2 == 1);
    for (Key probe : ProbeKeys(rng, seg, 1 << 16)) {
      const size_t expect =
          hotpath::ScalarItemLowerBound(seg.data(), card, probe);
      ASSERT_EQ(hotpath::SegmentLowerBound(
                    seg.data(), static_cast<uint32_t>(card), probe),
                expect);
      ASSERT_EQ(hotpath::SegmentLowerBoundForUpdate(
                    seg.data(), static_cast<uint32_t>(card), probe),
                expect);
    }
  }
}

TEST(HotpathSearch, PrefetchSegmentIsSafeOnAllCardinalities) {
  // Prefetch is a hint, but the address arithmetic must stay in bounds
  // conceptually; just exercise the helper across shapes.
  Random rng(5);
  for (size_t card : {0u, 1u, 3u, 4u, 16u, 128u, 256u}) {
    const auto seg = MakeSegment(rng, card, 1 << 10, false);
    hotpath::PrefetchSegment(seg.data(), static_cast<uint32_t>(card));
  }
  SUCCEED();
}

TEST(HotpathSearch, PrefetchRangeIsSafeOnAllCardinalities) {
  // The descents prefetch a segment's occupied prefix [0, card), and an
  // insert [0, card] capped at B. Place the segment flush against the
  // end of its mapping, with an inaccessible page right after it: if the
  // helper ever named (or touched) a byte past the range, a real load
  // would fault here. ASan sees it too, since the items it is given
  // always fit the segment.
  constexpr size_t B = 128;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  ASSERT_GE(page, B * sizeof(Item));
  void* map = ::mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(map, MAP_FAILED);
  char* base = static_cast<char*>(map);
  ASSERT_EQ(::mprotect(base + page, page, PROT_NONE), 0);
  Item* seg = reinterpret_cast<Item*>(base + page) - B;
  for (size_t i = 0; i < B; ++i) seg[i] = Item{2 * i + 1, i};
  for (size_t card = 0; card <= B; ++card) {
    hotpath::PrefetchRange(seg, card * sizeof(Item));
    hotpath::PrefetchRange(seg, std::min(card + 1, B) * sizeof(Item));
    // The prefetch changes nothing the search then reads.
    const Key probe = 2 * (card / 2);  // falls between stored keys
    EXPECT_EQ(hotpath::SegmentLowerBound(seg, card, probe),
              std::min(card, card / 2));
  }
  // Unaligned starts and ranges inside one line.
  for (size_t off = 0; off < 64; ++off) {
    hotpath::PrefetchRange(reinterpret_cast<char*>(seg) + off, 1);
    hotpath::PrefetchRange(base + page - 1 - off, off + 1);
  }
  hotpath::PrefetchRange(base + page, 0);  // empty: names no byte at all
  EXPECT_EQ(seg[B - 1].key, 2 * (B - 1) + 1);
  ASSERT_EQ(::munmap(map, 2 * page), 0);
}

// ci.sh and the scalar-fallback CI job grep this test's output to check
// which kernels a run selected; it also pins the dispatch contract: env
// override and missing CPU support must force the scalar path for EVERY
// kernel family (search, rebalance copy, gate locate — they share one
// CPUID + env decision).
TEST(HotpathDispatch, ReportsActivePath) {
  const char* name = hotpath::ActiveDispatchName();
  const char* copy_name = hotpath::ActiveCopyDispatchName();
  const char* locate_name = hotpath::ActiveLocateDispatchName();
  EXPECT_TRUE(std::strcmp(name, "avx2") == 0 ||
              std::strcmp(name, "scalar") == 0);
  if (!hotpath::Avx2Supported() || hotpath::Avx2DisabledByEnv()) {
    EXPECT_STREQ(name, "scalar");
  } else {
    EXPECT_STREQ(name, "avx2");
  }
  EXPECT_STREQ(copy_name, name);
  EXPECT_STREQ(locate_name, name);
  std::printf(
      "[hotpath] dispatch=%s search=%s copy=%s locate=%s "
      "(avx2 supported=%d, disabled=%d)\n",
      name, name, copy_name, locate_name, hotpath::Avx2Supported() ? 1 : 0,
      hotpath::Avx2DisabledByEnv() ? 1 : 0);
}

}  // namespace
}  // namespace cpma
