// Fixed-memory latency histogram shared by the workloads and the span
// recorder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace farmbench {

/// Fixed-memory histogram of non-negative integers (durations):
/// exact below 128, then log-linear buckets 1/128 of an octave wide.
/// Quantiles interpolate inside a bucket, so they keep their digits.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept;
  void merge(const Histogram& other) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  static constexpr unsigned kSubBits = 7;
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(std::size_t{64} << kSubBits, 0);
  std::uint64_t count_ = 0;
};

}  // namespace farmbench
