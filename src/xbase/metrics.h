// Fixed-size log-linear latency histogram: 64 linear sub-buckets per power
// of two, so any value lands in a bucket at most 1/64 of its magnitude wide.
// Bounded memory however long a run lasts, mergeable across CPUs, and
// quantiles interpolate linearly inside the bucket they fall in. Not
// synchronized: a shared histogram needs its owner's lock.
#pragma once

#include <array>
#include <bit>

#include "src/xbase/types.h"

namespace xbase {

class Histogram {
 public:
  void Record(u64 value) {
    ++counts_[IndexOf(value)];
    ++count_;
  }

  // Adds every sample `other` recorded, as if recorded here.
  void Merge(const Histogram& other) {
    for (usize i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
  }

  u64 count() const { return count_; }

  // q in [0, 1]. Returns 0 for an empty histogram.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    const double target = q * static_cast<double>(count_);
    double seen = 0;
    for (usize i = 0; i < kBuckets; ++i) {
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
  static constexpr u64 kSub = u64{1} << kSubBits;
  static constexpr usize kBuckets = kSub * 58 + 2 * kSub;

  // Values below 2*kSub map to themselves; above, `exp` is how far the
  // top kSubBits+1 bits are shifted down.
  static usize IndexOf(u64 value) {
    if (value < 2 * kSub) {
      return static_cast<usize>(value);
    }
    const int exp = std::bit_width(value) - 1 - kSubBits;
    return static_cast<usize>(kSub * static_cast<u64>(exp) + (value >> exp));
  }
  static u64 LowerBound(usize index) {
    if (index < 2 * kSub) {
      return index;
    }
    const usize exp = index / kSub - 1;
    return (index - kSub * exp) << exp;
  }
  static u64 Width(usize index) {
    return index < 2 * kSub ? 1 : u64{1} << (index / kSub - 1);
  }

  std::array<u64, kBuckets> counts_{};
  u64 count_ = 0;
};

}  // namespace xbase
