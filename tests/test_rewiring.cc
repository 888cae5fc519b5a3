// Tests for mmap-based memory rewiring: aliasing behaviour, page swaps,
// fallback copies and alignment validation; and for the Storage backends
// above it: publish counters and huge-page advice.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pma/config.h"
#include "pma/storage.h"
#include "rewiring/rewiring.h"

namespace cpma {
namespace {

// Create's use_rewiring argument: every region here asks for the memfd
// backend (CPMA_FORCE_NO_REWIRE=1, the `norewire` CTest entry, turns it
// into the anonymous one).
constexpr bool kRewire = true;

// Scoped CPMA_FORCE_NO_REWIRE=1: the env knob is read once per Create,
// so setting it only around construction pins that region (and only
// that region) to the anonymous fallback backend.
class ForcedNoRewire {
 public:
  ForcedNoRewire() {
    const char* prev = std::getenv("CPMA_FORCE_NO_REWIRE");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("CPMA_FORCE_NO_REWIRE", "1", 1);
  }
  ~ForcedNoRewire() {
    if (had_prev_) {
      setenv("CPMA_FORCE_NO_REWIRE", prev_.c_str(), 1);
    } else {
      unsetenv("CPMA_FORCE_NO_REWIRE");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(Rewiring, CreateZeroInitialised) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, kRewire);
  ASSERT_NE(r, nullptr);
  for (size_t i = 0; i < r->region_bytes(); ++i) {
    ASSERT_EQ(r->data()[i], 0);
  }
}

TEST(Rewiring, RoundsUpToPages) {
  auto r = RewiredRegion::Create(1, 1, kRewire);
  EXPECT_EQ(r->region_bytes() % r->page_size(), 0u);
  EXPECT_GE(r->region_bytes(), r->page_size());
}

TEST(Rewiring, SwapMovesBufferContentIntoRegion) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, kRewire);
  const size_t page = r->page_size();
  std::memset(r->data(), 0xAA, page);
  std::memset(r->buffer(), 0xBB, page);
  r->SwapPages(0, 0, page);
  EXPECT_EQ(static_cast<unsigned char>(r->data()[0]), 0xBB);
  EXPECT_EQ(static_cast<unsigned char>(r->data()[page - 1]), 0xBB);
  if (r->rewiring_enabled()) {
    // True rewiring is an exchange: the old region page is now the buffer.
    EXPECT_EQ(static_cast<unsigned char>(r->buffer()[0]), 0xAA);
  }
}

TEST(Rewiring, SwapAtNonZeroOffsets) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, kRewire);
  const size_t page = r->page_size();
  std::memset(r->buffer() + 2 * page, 0x11, 3 * page);
  r->SwapPages(5 * page, 2 * page, 3 * page);
  for (size_t i = 0; i < 3 * page; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(r->data()[5 * page + i]), 0x11);
  }
  // Neighbours untouched.
  EXPECT_EQ(r->data()[4 * page], 0);
  EXPECT_EQ(r->data()[8 * page], 0);
}

TEST(Rewiring, RepeatedSwapsStayConsistent) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, kRewire);
  const size_t page = r->page_size();
  // Write generation tags through the buffer, swap, verify, repeat. This
  // exercises the backing-table bookkeeping as the mappings fragment.
  for (int gen = 1; gen <= 20; ++gen) {
    const size_t off = (static_cast<size_t>(gen) % 8) * page;
    std::memset(r->buffer() + off, gen, page);
    r->SwapPages(off, off, page);
    ASSERT_EQ(r->data()[off], static_cast<char>(gen)) << "gen " << gen;
  }
}

TEST(Rewiring, CanSwapValidatesAlignment) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, kRewire);
  const size_t page = r->page_size();
  EXPECT_TRUE(r->CanSwap(0, 0, page));
  EXPECT_FALSE(r->CanSwap(1, 0, page));
  EXPECT_FALSE(r->CanSwap(0, 1, page));
  EXPECT_FALSE(r->CanSwap(0, 0, page / 2));
  EXPECT_FALSE(r->CanSwap(0, 0, 0));
  EXPECT_FALSE(r->CanSwap(r->region_bytes(), 0, page));
  EXPECT_TRUE(r->CanSwap(r->region_bytes() - page, 0, page));
}

TEST(Rewiring, LargeMultiPageSwap) {
  const size_t bytes = 1 << 20;
  auto r = RewiredRegion::Create(bytes, bytes, kRewire);
  std::vector<char> expect(bytes);
  std::iota(expect.begin(), expect.end(), 0);
  std::memcpy(r->buffer(), expect.data(), bytes);
  r->SwapPages(0, 0, bytes);
  EXPECT_EQ(std::memcmp(r->data(), expect.data(), bytes), 0);
}

TEST(Rewiring, PublishCounterAdvances) {
  // num_remaps counts mmap calls only; a copy publish counts as a
  // fallback copy instead.
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, kRewire);
  r->SwapPages(0, 0, r->page_size());
  if (r->rewiring_enabled()) {
    EXPECT_GT(r->num_remaps(), 0u);
    EXPECT_EQ(r->num_fallback_copies(), 0u);
  } else {
    EXPECT_EQ(r->num_remaps(), 0u);
    EXPECT_EQ(r->num_fallback_copies(), 1u);
  }
}

TEST(Rewiring, AliasingAfterInterleavedSwaps) {
  // Swap pages 0 and 1 with buffer pages in opposite order and verify the
  // contents land where expected even as backing offsets scramble.
  auto r = RewiredRegion::Create(1 << 14, 1 << 14, kRewire);
  const size_t page = r->page_size();
  std::memset(r->buffer() + 0 * page, 0x01, page);
  std::memset(r->buffer() + 1 * page, 0x02, page);
  r->SwapPages(0 * page, 1 * page, page);  // region p0 <- 0x02
  r->SwapPages(1 * page, 0 * page, page);  // region p1 <- 0x01
  EXPECT_EQ(r->data()[0], 0x02);
  EXPECT_EQ(r->data()[page], 0x01);
  // Swap them back out and in once more.
  std::memset(r->buffer() + 2 * page, 0x03, page);
  r->SwapPages(0, 2 * page, page);
  EXPECT_EQ(r->data()[0], 0x03);
}

// ---------------------------------------- degraded backend (ISSUE 7)
//
// CPMA_FORCE_NO_REWIRE=1 must yield a region that is slower (SwapPages
// copies) but otherwise indistinguishable: same zero-init, same swap
// semantics, same alignment validation. The `norewire` CTest
// configuration re-runs this whole suite plus test_concurrent_pma under
// the env var; these tests additionally pin the contract in-process so
// a plain `ctest` run covers it too.

TEST(RewiringNoRewire, ForcedFallbackIsFullyFunctional) {
  ForcedNoRewire guard;
  Status status;
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, kRewire, &status);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(r->rewiring_enabled());
  EXPECT_FALSE(r->degraded_to_copy());  // fallback != degraded-after-failure
  // Zero-initialised, page-rounded, swap moves buffer content.
  const size_t page = r->page_size();
  EXPECT_EQ(r->region_bytes() % page, 0u);
  for (size_t i = 0; i < r->region_bytes(); ++i) ASSERT_EQ(r->data()[i], 0);
  std::memset(r->buffer() + page, 0x5C, 2 * page);
  const uint64_t copies_before = r->num_fallback_copies();
  r->SwapPages(3 * page, page, 2 * page);
  for (size_t i = 0; i < 2 * page; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(r->data()[3 * page + i]), 0x5C);
  }
  EXPECT_EQ(r->data()[2 * page], 0);
  EXPECT_EQ(r->data()[5 * page], 0);
  EXPECT_GT(r->num_fallback_copies(), copies_before);
  // Alignment validation is backend-independent.
  EXPECT_TRUE(r->CanSwap(0, 0, page));
  EXPECT_FALSE(r->CanSwap(1, 0, page));
}

TEST(RewiringNoRewire, ForcedFallbackSurvivesRepeatedSwaps) {
  ForcedNoRewire guard;
  auto r = RewiredRegion::Create(1 << 14, 1 << 14, kRewire);
  ASSERT_NE(r, nullptr);
  ASSERT_FALSE(r->rewiring_enabled());
  const size_t page = r->page_size();
  for (int gen = 1; gen <= 20; ++gen) {
    const size_t off = (static_cast<size_t>(gen) % 4) * page;
    std::memset(r->buffer() + off, gen, page);
    r->SwapPages(off, off, page);
    ASSERT_EQ(r->data()[off], static_cast<char>(gen)) << "gen " << gen;
  }
}

// --------------------------------------------- COW snapshot views (ISSUE 9)

TEST(RewiringSnapshot, ViewAliasesRegionUntilPreserved) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, kRewire);
  ASSERT_NE(r, nullptr);
  if (!r->rewiring_enabled()) GTEST_SKIP() << "fallback backend: no views";
  std::memset(r->data(), 0x5A, r->region_bytes());

  Status st;
  auto view = r->CreateSnapshotView(&st);
  ASSERT_NE(view, nullptr) << st.ToString();
  EXPECT_EQ(r->snapshot_views_open(), 1u);
  EXPECT_EQ(view->bytes(), r->region_bytes());
  // Unpreserved pages are shared: the view follows live writes.
  EXPECT_EQ(static_cast<unsigned char>(view->data()[0]), 0x5A);
  r->data()[0] = 0x11;
  EXPECT_EQ(static_cast<unsigned char>(view->data()[0]), 0x11);

  // Preserve the whole region, then mutate: the view image is frozen.
  ASSERT_EQ(r->CowPreserveRange(*view, 0, r->region_bytes()),
            RewiredRegion::CowResult::kFrozen);
  EXPECT_GT(r->cow_page_copies(), 0u);
  EXPECT_GT(r->cow_retained_page_bytes(), 0u);
  std::memset(r->data(), 0xEE, r->region_bytes());
  EXPECT_EQ(static_cast<unsigned char>(view->data()[0]), 0x11);
  for (size_t i = 1; i < view->bytes(); ++i) {
    ASSERT_EQ(static_cast<unsigned char>(view->data()[i]), 0x5A) << i;
  }

  view.reset();
  EXPECT_EQ(r->snapshot_views_open(), 0u);
  // Superseded pages were unpinned and recycled at view close.
  EXPECT_EQ(r->cow_retained_page_bytes(), 0u);
  EXPECT_EQ(r->num_snapshot_views(), 1u);
}

TEST(RewiringSnapshot, RemapPublicationWhileViewOpen) {
  // The ISSUE 9 satellite: SwapPages (the rebalancer's remap publish)
  // while a snapshot view is open. A preserved range must stay frozen
  // across the publication; the live region sees the buffer content.
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, kRewire);
  ASSERT_NE(r, nullptr);
  if (!r->rewiring_enabled()) GTEST_SKIP() << "fallback backend: no views";
  const size_t page = r->page_size();
  std::memset(r->data(), 0xAA, 4 * page);

  auto view = r->CreateSnapshotView(nullptr);
  ASSERT_NE(view, nullptr);
  ASSERT_EQ(r->CowPreserveRange(*view, 0, 4 * page),
            RewiredRegion::CowResult::kFrozen);

  std::memset(r->buffer(), 0xBB, 2 * page);
  r->SwapPages(0, 0, 2 * page);
  EXPECT_EQ(static_cast<unsigned char>(r->data()[0]), 0xBB);
  EXPECT_EQ(static_cast<unsigned char>(r->data()[2 * page]), 0xAA);
  for (size_t i = 0; i < 4 * page; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(view->data()[i]), 0xAA) << i;
  }

  // Any re-backed page — whether swapped by the publication above or
  // remapped by the preserve itself — makes a later preserve of that
  // range report stale: the caller must fall back to a heap copy (the
  // view's image of those pages is already fixed either way).
  EXPECT_EQ(r->CowPreserveRange(*view, 0, 2 * page),
            RewiredRegion::CowResult::kStale);
  EXPECT_EQ(r->CowPreserveRange(*view, 2 * page, 2 * page),
            RewiredRegion::CowResult::kStale);
}

TEST(RewiringSnapshot, TwoViewsFreezeIndependently) {
  auto r = RewiredRegion::Create(1 << 15, 1 << 15, kRewire);
  ASSERT_NE(r, nullptr);
  if (!r->rewiring_enabled()) GTEST_SKIP() << "fallback backend: no views";
  const size_t page = r->page_size();

  std::memset(r->data(), 1, page);
  auto v1 = r->CreateSnapshotView(nullptr);
  ASSERT_NE(v1, nullptr);
  ASSERT_EQ(r->CowPreserveRange(*v1, 0, page),
            RewiredRegion::CowResult::kFrozen);

  std::memset(r->data(), 2, page);
  auto v2 = r->CreateSnapshotView(nullptr);
  ASSERT_NE(v2, nullptr);
  ASSERT_EQ(r->CowPreserveRange(*v2, 0, page),
            RewiredRegion::CowResult::kFrozen);

  std::memset(r->data(), 3, page);
  EXPECT_EQ(v1->data()[0], 1);
  EXPECT_EQ(v2->data()[0], 2);
  EXPECT_EQ(r->data()[0], 3);

  // Close the older view first; the newer one keeps its image.
  v1.reset();
  EXPECT_EQ(v2->data()[0], 2);
  v2.reset();
  EXPECT_EQ(r->cow_retained_page_bytes(), 0u);
}

TEST(RewiringSnapshot, FallbackBackendReportsUnavailable) {
  ForcedNoRewire guard;
  auto r = RewiredRegion::Create(1 << 14, 1 << 14, kRewire);
  ASSERT_NE(r, nullptr);
  ASSERT_FALSE(r->rewiring_enabled());
  Status st;
  auto view = r->CreateSnapshotView(&st);
  EXPECT_EQ(view, nullptr);
  EXPECT_FALSE(st.ok());
}

TEST(RewiringNoRewire, EnvReadPerCreateNotProcessWide) {
  std::unique_ptr<RewiredRegion> forced;
  {
    ForcedNoRewire guard;
    forced = RewiredRegion::Create(1 << 14, 1 << 14, kRewire);
  }
  auto fresh = RewiredRegion::Create(1 << 14, 1 << 14, kRewire);
  ASSERT_NE(forced, nullptr);
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(forced->rewiring_enabled());
  // With the env var restored, a new region negotiates its own backend
  // (real rewiring on any Linux box where memfd works).
  if (fresh->rewiring_enabled()) {
    EXPECT_EQ(fresh->num_fallback_copies(), 0u);
  }
}

// ------------------------------------------------ Storage backends

// Fill buffer segments [b, e) with a per-segment tag and publish them.
void PublishTagged(Storage* st, size_t b, size_t e, Key tag) {
  for (size_t s = b; s < e; ++s) {
    for (size_t i = 0; i < st->segment_capacity(); ++i) {
      st->buffer_segment(s)[i] = Item{tag + s, i};
    }
  }
  st->SwapWindow(b, e);
  for (size_t s = b; s < e; ++s) {
    ASSERT_EQ(st->segment(s)[0].key, tag + s) << "segment " << s;
  }
}

// 32 segments x 128 items x 16 B = 64 KiB windows: page aligned, so the
// rewired backend publishes them by remap; one 2 KiB segment is not.
TEST(StoragePublish, RewiredCountsMmapCallsOnly) {
  if (CPMA_TSAN) GTEST_SKIP() << "TSan builds publish by copy only";
  Storage st(64, 128, /*use_rewiring=*/true);
  if (!st.rewiring_enabled()) {
    // No memfd (or CPMA_FORCE_NO_REWIRE=1): the requested backend is not
    // active, which is exactly what fallback_backend_active reports.
    EXPECT_TRUE(st.fallback_backend_active());
    GTEST_SKIP() << "no memfd rewiring here";
  }
  EXPECT_FALSE(st.fallback_backend_active());
  PublishTagged(&st, 0, 32, 1000);
  // A fresh region is one physical run: one mmap per side.
  EXPECT_EQ(st.num_remaps(), 2u);
  EXPECT_EQ(st.num_fallback_copies(), 0u);
  PublishTagged(&st, 40, 41, 2000);
  EXPECT_EQ(st.num_remaps(), 2u);
  EXPECT_EQ(st.num_fallback_copies(), 1u);
}

TEST(StoragePublish, AnonymousCountsEveryCopy) {
  Storage st(64, 128, /*use_rewiring=*/false);
  EXPECT_FALSE(st.rewiring_enabled());
  EXPECT_FALSE(st.fallback_backend_active());  // chosen, not fallen back to
  PublishTagged(&st, 0, 32, 1000);
  PublishTagged(&st, 40, 41, 2000);
  EXPECT_EQ(st.num_remaps(), 0u);
  EXPECT_EQ(st.num_fallback_copies(), 2u);
}

// The bracketed value of the THP `enabled` setting ("never" if absent).
std::string ThpEnabledMode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(f, line)) return "never";
  const size_t a = line.find('['), b = line.find(']');
  return a == std::string::npos || b == std::string::npos
             ? line
             : line.substr(a + 1, b - a - 1);
}

// The value of `field` (e.g. "VmFlags:") in the /proc/self/smaps entry
// of the mapping that contains `addr`; empty if not found.
std::string SmapsField(const void* addr, const std::string& field) {
  std::ifstream f("/proc/self/smaps");
  const auto target = reinterpret_cast<uintptr_t>(addr);
  std::string line;
  bool in_mapping = false;
  while (std::getline(f, line)) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      in_mapping = target >= lo && target < hi;
    } else if (in_mapping && line.rfind(field, 0) == 0) {
      return line.substr(field.size());
    }
  }
  return "";
}

std::set<std::string> VmFlagsOf(const void* addr) {
  std::istringstream flags(SmapsField(addr, "VmFlags:"));
  std::set<std::string> out;
  for (std::string flag; flags >> flag;) out.insert(flag);
  return out;
}

// The default Storage advises only its live region for huge pages and
// aligns it to 2 MiB. VmFlags `hg` is what MADV_HUGEPAGE sets, so this
// holds whether or not the kernel found free 2 MiB pages (AnonHugePages
// would not be deterministic).
TEST(StorageBackend, DefaultRegionIsHugePageAdvisedBufferIsNot) {
  if (ThpEnabledMode() == "never") GTEST_SKIP() << "THP disabled";
  Storage st(1024, 128, PmaConfig().use_rewiring);  // 2 MiB of items
  EXPECT_FALSE(st.rewiring_enabled());
  const std::set<std::string> region = VmFlagsOf(st.segment(0));
  const std::set<std::string> buffer = VmFlagsOf(st.buffer_segment(0));
  ASSERT_FALSE(region.empty()) << "region mapping not found in smaps";
  ASSERT_FALSE(buffer.empty()) << "buffer mapping not found in smaps";
  EXPECT_EQ(region.count("hg"), 1u);
  EXPECT_EQ(buffer.count("hg"), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(st.segment(0)) % (2u << 20), 0u);
}

// A resize hands the old storage's buffer back before the new storage
// is faulted in: on the anonymous backend its pages leave the resident
// set and read as zero; on the rewired backend nothing changes.
TEST(StorageBackend, ReleaseBufferDropsAnonymousPages) {
  for (bool rewire : {false, true}) {
    SCOPED_TRACE(rewire ? "rewired" : "anonymous");
    Storage st(1024, 128, rewire);  // 2 MiB buffer
    for (size_t s = 0; s < st.num_segments(); ++s) {
      st.buffer_segment(s)[0] = Item{s + 1, s};
    }
    // Rss of the buffer's mapping, which may have merged with a
    // neighbouring mapping: compare differences, not absolutes.
    auto rss_kb = [&] {
      return std::strtoul(SmapsField(st.buffer_segment(0), "Rss:").c_str(),
                          nullptr, 10);
    };
    const unsigned long before = rss_kb();
    EXPECT_GE(before, 2048u);
    st.ReleaseBuffer();
    if (st.rewiring_enabled()) {
      EXPECT_EQ(st.buffer_segment(1023)[0].key, 1024u);
    } else {
      EXPECT_EQ(st.buffer_segment(1023)[0].key, 0u);
      EXPECT_LE(rss_kb() + 2048, before);
    }
  }
}

}  // namespace
}  // namespace cpma
