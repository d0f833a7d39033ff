// End-to-end cluster replay: clients -> MDS under discrete-event time.
//
// Clients re-issue the trace's requests at (scaled) trace timestamps — an
// open-loop arrival process, as in the paper's HUSt replay — and record the
// response time of every demand request. This produces the latency figures
// (Fig. 6 and Fig. 8); hit-ratio figures use the faster zero-latency replay
// in src/prefetch/replay.hpp.
#pragma once

#include <span>

#include "common/stats.hpp"
#include "storage/mds.hpp"
#include "trace/record.hpp"

namespace farmer {

/// The self-clocking open-loop arrival chain run_cluster() and serve()
/// drive: record i reaches the MDS at (timestamp - origin) * time_scale,
/// and each arrival schedules the next, keeping the event queue O(1) in
/// trace length. Its events capture a pointer to the chain, so the chain
/// must outlive the simulator run.
struct ArrivalChain {
  Simulator& sim;
  MdsServer& mds;
  std::span<const TraceRecord> records;
  SimTime origin;
  double time_scale;

  /// Schedules the first arrival.
  void start() {
    if (!records.empty()) sim.schedule_at(at(0), [this] { arrive(0); });
  }

 private:
  [[nodiscard]] SimTime at(std::size_t i) const noexcept {
    return static_cast<SimTime>(
        static_cast<double>(records[i].timestamp - origin) * time_scale);
  }
  void arrive(std::size_t i) {
    if (i + 1 < records.size())
      sim.schedule_at(at(i + 1), [this, i] { arrive(i + 1); });
    mds.handle_demand(records[i]);
  }
};

struct ClusterConfig {
  MdsConfig mds;
  /// Multiplies trace inter-arrival gaps; < 1 compresses time and raises
  /// load. Tuned per trace so the MDS runs at a realistic utilisation.
  double time_scale = 1.0;
};

struct ClusterMetrics {
  LatencyHistogram response;   ///< demand response times, µs
  CacheStats cache;
  RunningStats demand_wait;    ///< queueing wait at the disk, µs
  RunningStats prefetch_wait;
  std::uint64_t requests = 0;
  std::uint64_t prefetch_batches = 0;
  std::uint64_t duplicate_suppressed = 0;
  SimTime sim_duration = 0;

  [[nodiscard]] double mean_response_ms() const noexcept {
    return response.mean() / 1000.0;
  }
};

/// Replays `trace` through an MDS driven by `predictor`.
[[nodiscard]] ClusterMetrics run_cluster(const Trace& trace,
                                         Predictor& predictor,
                                         const ClusterConfig& cfg);

}  // namespace farmer
