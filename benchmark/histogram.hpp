// Fixed-size log-bucket histogram for reader query latencies.
//
// Readers record millions of samples per run; an unbounded sample vector
// would grow peak RSS by hundreds of MB and so distort peak_rss_mb. This
// histogram has 32 linear sub-buckets per power of two (every bucket is at
// most ~3% of its value wide), lives in a fixed 15 KB array, and answers
// quantiles by interpolating inside the bucket that holds the rank.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace overmatch::benchmark {

class LogHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void add(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++total_;
  }

  void merge(const LogHistogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  /// Value at quantile q in [0, 1]; 0 when empty. The rank is placed
  /// uniformly inside its bucket, so the result moves with the counts
  /// instead of snapping to bucket edges.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (static_cast<double>(below + c) > rank) {
        const double within =
            (rank - static_cast<double>(below) + 0.5) / static_cast<double>(c);
        return static_cast<double>(lower(i)) +
               within * static_cast<double>(width(i));
      }
      below += c;
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub +
           static_cast<std::size_t>(sub);
  }
  static std::uint64_t lower(std::size_t i) noexcept {
    if (i < kSub) return i;
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    return (kSub + i % kSub) << (e - kSubBits);
  }
  static std::uint64_t width(std::size_t i) noexcept {
    if (i < kSub) return 1;
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    return std::uint64_t{1} << (e - kSubBits);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace overmatch::benchmark
