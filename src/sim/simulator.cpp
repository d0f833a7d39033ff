#include "sim/simulator.hpp"

namespace farmer {

void Simulator::schedule_at(SimTime at, Callback cb) {
  if (at < now_) at = now_;
  queue_.push({at, next_seq_++, callbacks_.put(std::move(cb))});
}

std::size_t Simulator::run() { return run_until(INT64_MAX); }

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t n = 0;
  while (!queue_.empty()) {
    const Event top = queue_.top();
    if (top.at > deadline) break;
    queue_.pop();
    now_ = top.at;
    // Taken out before it runs: the callback may schedule more events.
    callbacks_.take(top.slot)();
    ++n;
    ++executed_;
  }
  return n;
}

}  // namespace farmer
