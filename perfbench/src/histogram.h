// Fixed-size log-linear latency histogram: 64 linear sub-buckets per power
// of two, so any value lands in a bucket at most 1/64 of its magnitude wide.
// Bounded memory however long a run lasts, mergeable across CPUs, and
// quantiles interpolate linearly inside the bucket they fall in.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace perfbench {

class Histogram {
 public:
  void Record(std::uint64_t value) {
    ++counts_[IndexOf(value)];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  // q in [0, 1]. Returns 0 for an empty histogram.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    const double target = q * static_cast<double>(count_);
    double seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      const double in_bucket = static_cast<double>(counts_[i]);
      if (seen + in_bucket >= target) {
        const double fraction = (target - seen) / in_bucket;
        return static_cast<double>(LowerBound(i)) +
               fraction * static_cast<double>(Width(i));
      }
      seen += in_bucket;
    }
    return static_cast<double>(LowerBound(kBuckets - 1));
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = kSub * 58 + 2 * kSub;

  // Values below 2*kSub map to themselves; above, `exp` is how far the
  // top kSubBits+1 bits are shifted down.
  static std::size_t IndexOf(std::uint64_t value) {
    if (value < 2 * kSub) {
      return static_cast<std::size_t>(value);
    }
    const int exp = std::bit_width(value) - 1 - kSubBits;
    return static_cast<std::size_t>(kSub * exp + (value >> exp));
  }
  static std::uint64_t LowerBound(std::size_t index) {
    if (index < 2 * kSub) {
      return index;
    }
    const std::size_t exp = index / kSub - 1;
    return (index - kSub * exp) << exp;
  }
  static std::uint64_t Width(std::size_t index) {
    return index < 2 * kSub ? 1 : std::uint64_t{1} << (index / kSub - 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
