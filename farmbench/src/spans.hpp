// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public function, timed from outside:
// name, start, end, the span that was open on the same thread when it began
// (its parent) and the request it served. Spans are kept in per-thread
// buffers and written out once, when the benchmark ends; nothing is written
// while a workload runs.
//
// Every span also feeds a per-name aggregate (count, total, self time and
// a duration histogram), so per-layer numbers cover every call even though
// the raw span list is capped. A span's self time is its duration minus the
// part its children on the same thread cover.
//
// Recording is off unless enable(true) was called; a disabled Span costs
// one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "histogram.hpp"

namespace farmbench {

[[nodiscard]] std::int64_t now_ns() noexcept;

inline constexpr std::uint64_t kNoRequest =
    std::numeric_limits<std::uint64_t>::max();

/// Per-name totals over every recorded span of that name, all threads.
struct SpanAggregate {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  Histogram durations;  ///< in ticks; see quantile_ns
  double ns_per_tick = 1.0;

  /// Duration percentile, in ns (0 when none).
  [[nodiscard]] double quantile_ns(double q) const {
    return durations.quantile(q) * ns_per_tick;
  }
};

namespace spans {

void enable(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Aggregate for `name` over all threads (zeroed when never recorded).
/// Call only after the recording threads have finished.
[[nodiscard]] SpanAggregate aggregate(const std::string& name);

/// Every span name recorded or declared so far.
[[nodiscard]] std::vector<std::string> names();

/// Writes the raw spans (up to the cap) and every aggregate as JSON to
/// `path`, with `header` (a JSON object body) as the first field.
void write_json(const std::string& path, const std::string& header);

/// Interned span-name id; construct once per call site (function-local
/// static) so recording never touches the name table.
class Name {
 public:
  explicit Name(const char* name);
  [[nodiscard]] std::uint16_t id() const noexcept { return id_; }

 private:
  std::uint16_t id_;
};

}  // namespace spans

/// RAII span: records [construction, destruction) under `name` when
/// recording is enabled.
class Span {
 public:
  explicit Span(const spans::Name& name,
                std::uint64_t request = kNoRequest) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace farmbench
