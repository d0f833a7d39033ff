#include "core/cominer.hpp"

namespace farmer {

double CoMiner::correlation_degree(FileId pred, const Signature& pred_sig,
                                   FileId succ,
                                   const Signature& succ_sig) const {
  return degree(similarity(pred_sig, succ_sig),
                graph_.access_frequency(pred, succ));
}

double CoMiner::evaluate_pair(CorrelationGraph::Node& pred,
                              const Signature& pred_sig, FileId succ,
                              const Signature& succ_sig, double nab) {
  const double freq =
      pred.access_count == 0
          ? 0.0
          : nab / static_cast<double>(pred.access_count);
  const double r = degree(similarity(pred_sig, succ_sig), freq);
  ++stats_.pairs_evaluated;
  if (r >= cfg_.max_strength) {
    ++stats_.pairs_accepted;
    graph_.upsert_correlator(pred, {succ, static_cast<float>(r)});
  } else {
    ++stats_.pairs_filtered;
    // Correlations decay: a pair once valid can fall below the threshold as
    // N_pred grows; keep the list honest.
    CorrelationGraph::remove_correlator(pred, succ);
  }
  return r;
}

}  // namespace farmer
