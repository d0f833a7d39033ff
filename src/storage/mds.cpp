#include "storage/mds.hpp"

#include <string>

namespace farmer {

MdsServer::MdsServer(Simulator& sim, MdsConfig cfg, Predictor& predictor,
                     ResponseFn respond)
    : sim_(sim),
      cfg_(cfg),
      predictor_(predictor),
      respond_(std::move(respond)),
      cache_(cfg.cache_capacity, cfg.policy),
      disk_(sim, cfg.disk_servers),
      rng_(cfg.seed) {}

void MdsServer::populate(std::size_t file_count) {
  // One metadata record per file: a fixed-shape blob standing in for the
  // inode/object descriptor HUSt keeps in Berkeley DB.
  std::string blob(96, '\0');
  for (std::size_t i = 0; i < file_count; ++i) {
    blob.replace(0, 8, reinterpret_cast<const char*>(&i), 8);
    table_.put(i, blob);
  }
}

SimTime MdsServer::fetch_time() {
  const SimTime jitter = cfg_.db_fetch_jitter > 0
                             ? rng_.next_in(-cfg_.db_fetch_jitter,
                                            cfg_.db_fetch_jitter)
                             : 0;
  const SimTime t = cfg_.db_fetch_time + jitter;
  return t > kMicrosecond ? t : kMicrosecond;
}

void MdsServer::handle_demand(const TraceRecord& rec) {
  const SimTime arrival = sim_.now();
  const FileId file = rec.file;

  // Learning happens on every demand request, hit or miss.
  predictor_.observe(rec);

  if (cache_.access(file)) {
    sim_.schedule_at(arrival + cfg_.cpu_time,
                     [this, arrival] { respond_(sim_.now() - arrival); });
    issue_prefetch(rec);
    return;
  }

  // Miss: coalesce with any in-flight fetch of the same file.
  Slot s = inflight_.find(file);
  if (s != SlotIndex::kNone) {
    ++duplicate_suppressed_;
    fetches_[s].waiters.push_back(arrival);
    issue_prefetch(rec);
    return;
  }

  s = begin_fetch(file);
  fetches_[s].waiters.push_back(arrival);
  disk_.submit(ServiceStation::kDemand, fetch_time(),
               [this, s] { land(s, false); });
  issue_prefetch(rec);
}

Slot MdsServer::begin_fetch(FileId f) {
  const Slot s = inflight_.insert(f);
  if (s >= fetches_.size()) fetches_.resize(s + 1);
  fetches_[s].next_in_batch = SlotIndex::kNone;
  return s;
}

void MdsServer::land(Slot s, bool prefetched) {
  const FileId f = inflight_.key(s);
  // Read the record this fetch paid for.
  (void)table_.find(f.value());
  if (prefetched)
    cache_.insert_prefetch(f);
  else
    cache_.insert_demand(f);
  inflight_.erase(f);
  for (const SimTime arrival : fetches_[s].waiters)
    respond_(sim_.now() + cfg_.cpu_time - arrival);
  fetches_[s].waiters.clear();
}

void MdsServer::issue_prefetch(const TraceRecord& rec) {
  if (cfg_.prefetch_degree == 0) return;
  PredictionList predictions;
  predictor_.predict(rec, cfg_.prefetch_degree, predictions);

  // Claim the candidates that actually need a fetch, chained in prediction
  // order through their in-flight slots.
  Slot head = SlotIndex::kNone, tail = SlotIndex::kNone;
  std::size_t count = 0;
  for (FileId f : predictions) {
    if (f == rec.file || cache_.contains(f) ||
        inflight_.find(f) != SlotIndex::kNone)
      continue;
    const Slot s = begin_fetch(f);
    (tail == SlotIndex::kNone ? head : fetches_[tail].next_in_batch) = s;
    tail = s;
    ++count;
  }
  if (count == 0) return;

  ++prefetch_batches_;
  if (cfg_.batch_prefetch) {
    // Correlated files are laid out contiguously (Section 4.2), so a group
    // costs one seek plus sequential transfers.
    const SimTime t = fetch_time() + static_cast<SimTime>(count - 1) *
                                         cfg_.seq_fetch_time;
    disk_.submit(ServiceStation::kPrefetch, t, [this, head] {
      for (Slot s = head; s != SlotIndex::kNone;) {
        const Slot next = fetches_[s].next_in_batch;
        land(s, true);
        s = next;
      }
    });
  } else {
    for (Slot s = head; s != SlotIndex::kNone; s = fetches_[s].next_in_batch)
      disk_.submit(ServiceStation::kPrefetch, fetch_time(),
                   [this, s] { land(s, true); });
  }
}

}  // namespace farmer
