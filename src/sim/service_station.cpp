#include "sim/service_station.hpp"

namespace farmer {

void ServiceStation::submit(int priority, SimTime service_time,
                            Completion done) {
  (priority == kDemand ? demand_q_ : prefetch_q_)
      .push({sim_.now(), service_time, completions_.put(std::move(done))});
  try_dispatch();
}

void ServiceStation::Queue::push(const Job& job) {
  if (head > 0 && 2 * head >= jobs.size()) {
    jobs.erase(jobs.begin(), jobs.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  jobs.push_back(job);
}

void ServiceStation::try_dispatch() {
  while (free_servers_ > 0) {
    if (demand_q_.size() > 0) {
      start(demand_q_.pop(), kDemand);
    } else if (prefetch_q_.size() > 0) {
      start(prefetch_q_.pop(), kPrefetch);
    } else {
      break;
    }
  }
}

void ServiceStation::start(const Job& job, int priority) {
  --free_servers_;
  ++busy_;
  const auto wait = static_cast<double>(sim_.now() - job.enqueue_time);
  (priority == kDemand ? demand_wait_ : prefetch_wait_).add(wait);
  sim_.schedule_after(job.service_time,
                      [this, slot = job.slot] { finish(slot); });
}

void ServiceStation::finish(std::uint32_t slot) {
  // The station's own bookkeeping runs first to free the server.
  ++free_servers_;
  --busy_;
  ++completed_;
  if (const Completion done = completions_.take(slot)) done();
  try_dispatch();
}

}  // namespace farmer
