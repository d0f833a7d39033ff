#include "storage/cluster.hpp"

namespace farmer {

ClusterMetrics run_cluster(const Trace& trace, Predictor& predictor,
                           const ClusterConfig& cfg) {
  ClusterMetrics metrics;
  Simulator sim;
  MdsServer mds(sim, cfg.mds, predictor, [&metrics](SimTime rt) {
    metrics.response.record(static_cast<std::uint64_t>(rt));
  });
  mds.populate(trace.file_count());

  ArrivalChain arrivals{sim, mds, trace.records, 0, cfg.time_scale};
  arrivals.start();
  sim.run();

  metrics.cache = mds.cache().stats();
  metrics.demand_wait = mds.disk().wait_stats(ServiceStation::kDemand);
  metrics.prefetch_wait = mds.disk().wait_stats(ServiceStation::kPrefetch);
  metrics.requests = trace.records.size();
  metrics.prefetch_batches = mds.prefetch_batches();
  metrics.duplicate_suppressed = mds.duplicate_suppressed();
  metrics.sim_duration = sim.now();
  return metrics;
}

}  // namespace farmer
