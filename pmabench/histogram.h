// Latency histogram with buckets at most 1/64 (1.6%) of their value
// wide: values below 64 ns get one bucket each, every power of two above
// is split into 64 equal sub-buckets. The repo's bench/driver.h
// histogram has 4 sub-buckets per octave (19-25% steps), too coarse for
// a p99 with a 10% regression bound. Values clamp at 2^kMaxBits ns; the
// per-slice histograms, read only for their median, clamp at ~17 ms to
// stay small.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace pmabench {

template <int kMaxBits>
class BasicHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub * (kMaxBits - kSubBits + 1);

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    if (msb >= kMaxBits) return kBuckets - 1;
    const int shift = msb - kSubBits;
    return static_cast<size_t>(kSub * (shift + 1) + ((v >> shift) - kSub));
  }
  /// Smallest value that maps to bucket `i`.
  static uint64_t Lower(size_t i) {
    if (i < kSub) return i;
    const int shift = static_cast<int>(i / kSub) - 1;
    return (kSub + i % kSub) << shift;
  }
  /// One past the largest value that maps to bucket `i`.
  static uint64_t Upper(size_t i) {
    if (i < kSub) return i + 1;
    return Lower(i) + (uint64_t{1} << (i / kSub - 1));
  }

  /// Records `v` as `weight` samples.
  void Record(uint64_t v, uint64_t weight = 1) {
    counts_[Index(v)] += weight;
    n_ += weight;
  }

  void Merge(const BasicHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  uint64_t count() const { return n_; }

  /// The q-quantile (0 < q <= 1) of the samples: the ceil(q * n)-th
  /// smallest, interpolated linearly by rank inside its bucket, so the
  /// estimate stays within that bucket. 0 when empty.
  double Percentile(double q) const {
    if (n_ == 0) return 0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(n_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[i]);
        return static_cast<double>(Lower(i)) +
               within * static_cast<double>(Upper(i) - 1 - Lower(i));
      }
      seen += counts_[i];
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t n_ = 0;
};

using Histogram = BasicHistogram<44>;       // clamps at ~4.9 h
using SliceHistogram = BasicHistogram<24>;  // clamps at ~17 ms

}  // namespace pmabench
