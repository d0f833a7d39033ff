// Metadata server (MDS) — the HUSt component FARMER plugs into.
//
// The MDS serves metadata lookups from a bounded cache backed by a KV store
// (the Berkeley DB stand-in). Misses go to a disk/DB service station.
// After answering a demand request the MDS consults its predictor and issues
// a *batched* prefetch for the predicted correlator group at low priority —
// the paper's two-queue, demand-over-prefetch scheduling model (Section 4.1).
//
// Duplicate suppression: requests for a file already being fetched (demand
// or prefetch) join the in-flight operation instead of re-hitting the disk.
//
// Every response goes to one sink, given at construction. Once warm, the
// request path allocates nothing: the cache and the in-flight table are
// flat slot arrays, and each event captures at most two words.
#pragma once

#include <functional>
#include <vector>

#include "cache/metadata_cache.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "kvstore/btree.hpp"
#include "prefetch/predictor.hpp"
#include "sim/service_station.hpp"
#include "sim/simulator.hpp"

namespace farmer {

struct MdsConfig {
  std::size_t cache_capacity = 1024;
  CachePolicy policy = CachePolicy::kLRU;
  std::size_t prefetch_degree = 4;
  unsigned disk_servers = 1;
  SimTime cpu_time = 30;            ///< µs per request (hit path)
  SimTime db_fetch_time = 1500;     ///< µs mean per random DB/disk fetch
  SimTime db_fetch_jitter = 400;    ///< uniform +- jitter
  SimTime seq_fetch_time = 250;     ///< µs per extra entry in a batched
                                    ///< prefetch (correlated files laid out
                                    ///< contiguously, Section 4.2)
  bool batch_prefetch = true;       ///< single I/O per correlator group
  std::uint64_t seed = 42;
};

class MdsServer {
 public:
  /// Receives each demand's response time when its reply leaves the MDS.
  using ResponseFn = std::function<void(SimTime response_time_us)>;

  /// `respond` is the server's response sink for its whole life. It must
  /// not call back into the server.
  MdsServer(Simulator& sim, MdsConfig cfg, Predictor& predictor,
            ResponseFn respond);

  /// Loads the metadata table (one KV record per file).
  void populate(std::size_t file_count);

  /// Client-facing entry point: a demand metadata request for `rec.file`
  /// arriving now.
  void handle_demand(const TraceRecord& rec);

  /// Drops `f` from the cache if resident (metadata changed under the MDS:
  /// file deleted/recreated — the serving harness's population-churn
  /// events). A fetch already in flight is unaffected: its completion
  /// re-inserts the entry, modelling the post-change re-fetch.
  void invalidate(FileId f) { cache_.erase(f); }

  [[nodiscard]] const MetadataCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const ServiceStation& disk() const noexcept { return disk_; }
  [[nodiscard]] const BTreeStore& metadata_table() const noexcept {
    return table_;
  }
  [[nodiscard]] std::uint64_t prefetch_batches() const noexcept {
    return prefetch_batches_;
  }
  [[nodiscard]] std::uint64_t duplicate_suppressed() const noexcept {
    return duplicate_suppressed_;
  }

 private:
  /// One disk fetch duration (randomised around the mean).
  [[nodiscard]] SimTime fetch_time();

  void issue_prefetch(const TraceRecord& rec);
  /// Marks `f` in flight; returns its slot in the in-flight table.
  Slot begin_fetch(FileId f);
  /// The fetch in slot `s` landed: cache its file, answer its waiters.
  void land(Slot s, bool prefetched);

  Simulator& sim_;
  MdsConfig cfg_;
  Predictor& predictor_;
  ResponseFn respond_;
  MetadataCache cache_;
  ServiceStation disk_;
  BTreeStore table_;
  Rng rng_;

  // In-flight fetches: file -> slot, and per slot the arrival times of the
  // demands waiting for it plus the next file of its prefetch batch.
  struct Fetch {
    std::vector<SimTime> waiters;
    Slot next_in_batch = SlotIndex::kNone;
  };
  SlotIndex inflight_;
  std::vector<Fetch> fetches_;  // by inflight_ slot
  std::uint64_t prefetch_batches_ = 0;
  std::uint64_t duplicate_suppressed_ = 0;
};

}  // namespace farmer
