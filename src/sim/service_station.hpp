// Priority service station: an m-server, two-priority, non-preemptive queue.
//
// Models the MDS's Berkeley-DB/disk stage. Demand requests (priority 0)
// always dequeue before prefetch requests (priority 1) — the paper's
// "priority-based request-scheduling model" with a demand queue and a
// prefetch queue — but a prefetch already in service is not preempted,
// which is exactly how aggressive prefetching hurts demand latency.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "sim/simulator.hpp"

namespace farmer {

class ServiceStation {
 public:
  using Completion = std::function<void()>;

  static constexpr int kDemand = 0;
  static constexpr int kPrefetch = 1;

  /// `servers`: concurrent service slots (disk spindles / DB threads).
  ServiceStation(Simulator& sim, unsigned servers)
      : sim_(sim), free_servers_(servers == 0 ? 1 : servers) {}

  /// Enqueues a job of `service_time` µs at `priority`; `done` fires at
  /// completion time.
  void submit(int priority, SimTime service_time, Completion done);

  /// Jobs currently waiting at the given priority.
  [[nodiscard]] std::size_t queued(int priority) const noexcept {
    return priority == kDemand ? demand_q_.size() : prefetch_q_.size();
  }
  [[nodiscard]] unsigned busy_servers() const noexcept { return busy_; }

  /// Aggregate waiting-time statistics per priority (µs).
  [[nodiscard]] const RunningStats& wait_stats(int priority) const noexcept {
    return priority == kDemand ? demand_wait_ : prefetch_wait_;
  }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

 private:
  // Queued and running jobs name their completion by its slot in
  // `completions_`, so the service-end event captures two words.
  struct Job {
    SimTime enqueue_time;
    SimTime service_time;
    std::uint32_t slot;
  };
  // FIFO over a vector: pops advance `head`, and a push first drops the
  // consumed prefix once it is half the vector, so a warm queue never
  // allocates.
  struct Queue {
    std::vector<Job> jobs;
    std::size_t head = 0;
    [[nodiscard]] std::size_t size() const noexcept {
      return jobs.size() - head;
    }
    void push(const Job& job);
    Job pop() noexcept { return jobs[head++]; }
  };

  void try_dispatch();
  void start(const Job& job, int priority);
  void finish(std::uint32_t slot);

  Simulator& sim_;
  unsigned free_servers_;
  unsigned busy_ = 0;
  Queue demand_q_;
  Queue prefetch_q_;
  CallbackSlots completions_;
  RunningStats demand_wait_;
  RunningStats prefetch_wait_;
  std::uint64_t completed_ = 0;
};

}  // namespace farmer
