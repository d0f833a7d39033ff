#include "histogram.hpp"

#include <bit>
#include <cmath>

namespace farmbench {

void Histogram::record(std::uint64_t v) noexcept {
  constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  std::size_t idx = static_cast<std::size_t>(v);
  if (v >= kSub) {
    const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
    const std::uint64_t mantissa = (v >> (e - kSubBits)) & (kSub - 1);
    idx = static_cast<std::size_t>(((e - kSubBits + 1) << kSubBits) + mantissa);
  }
  ++buckets_[idx];
  ++count_;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n == 0 || below + n <= rank) {
      below += n;
      continue;
    }
    // Bucket i spans [lo, lo + width); spread its samples evenly.
    double lo = static_cast<double>(i), width = 1;
    if (i >= (std::size_t{1} << kSubBits)) {
      const std::size_t e = (i >> kSubBits) + kSubBits - 1;
      const std::size_t m = i & ((std::size_t{1} << kSubBits) - 1);
      width = std::ldexp(1.0, static_cast<int>(e - kSubBits));
      lo = std::ldexp(static_cast<double>((std::size_t{1} << kSubBits) + m),
                      static_cast<int>(e - kSubBits));
    }
    return lo + width * (rank - below + 0.5) / n;
  }
  return 0.0;
}

}  // namespace farmbench
