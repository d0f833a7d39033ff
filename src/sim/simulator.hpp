// Discrete-event simulation engine.
//
// A single-threaded event loop over a (time, sequence) min-heap. Events are
// arbitrary callbacks; the sequence number makes simultaneous events fire in
// scheduling order, which keeps every run bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hpp"

namespace farmer {

/// Callbacks parked under slot numbers until they run. A slot is reused once
/// its callback is taken, so a warm pool parks callbacks without allocating
/// (as long as each fits std::function's inline buffer).
class CallbackSlots {
 public:
  std::uint32_t put(std::function<void()> fn) {
    if (free_.empty()) {
      fns_.push_back(std::move(fn));
      return static_cast<std::uint32_t>(fns_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    fns_[slot] = std::move(fn);
    return slot;
  }
  /// Moves the callback out and frees its slot.
  std::function<void()> take(std::uint32_t slot) {
    std::function<void()> fn = std::move(fns_[slot]);
    fns_[slot] = nullptr;
    free_.push_back(slot);
    return fn;
  }

 private:
  std::vector<std::function<void()>> fns_;
  std::vector<std::uint32_t> free_;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time (µs).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` to run at absolute time `at` (clamped to now).
  void schedule_at(SimTime at, Callback cb);

  /// Schedules `cb` after `delay` µs.
  void schedule_after(SimTime delay, Callback cb) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  /// Runs until the event queue drains. Returns events executed.
  std::size_t run();

  /// Runs until the queue drains or simulated time passes `deadline`.
  std::size_t run_until(SimTime deadline);

  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }

 private:
  // The heap orders small keys; each callback waits in a slot of
  // `callbacks_`, so a heap sift moves 24 bytes rather than a
  // std::function.
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  CallbackSlots callbacks_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
};

}  // namespace farmer
