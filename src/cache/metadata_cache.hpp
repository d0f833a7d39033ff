// Prefetch-aware metadata cache.
//
// The MDS cache holds metadata entries keyed by FileId, enforces a fixed
// entry capacity with a pluggable replacement policy, and distinguishes
// demand-fetched from prefetched entries so the experiments can report:
//
//   * demand hit ratio       — the paper's "cache hit ratio" (Figs 3/5/7)
//   * prefetch accuracy      — prefetched entries that served a demand hit
//                              before eviction / prefetched entries (Tab 3)
//   * cache pollution        — prefetched entries evicted unused
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/replacement.hpp"
#include "common/stats.hpp"

namespace farmer {

struct CacheStats {
  RatioCounter demand;             ///< hits/accesses of demand requests
  std::uint64_t prefetch_inserted = 0;
  std::uint64_t prefetch_used = 0;      ///< first demand hit on a prefetch
  std::uint64_t prefetch_evicted_unused = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_ratio() const noexcept { return demand.ratio(); }
  [[nodiscard]] double prefetch_accuracy() const noexcept {
    return prefetch_inserted
               ? static_cast<double>(prefetch_used) /
                     static_cast<double>(prefetch_inserted)
               : 0.0;
  }
  [[nodiscard]] double pollution_ratio() const noexcept {
    return prefetch_inserted
               ? static_cast<double>(prefetch_evicted_unused) /
                     static_cast<double>(prefetch_inserted)
               : 0.0;
  }
};

class MetadataCache {
 public:
  MetadataCache(std::size_t capacity, CachePolicy policy);

  /// Demand access. Returns true on hit. On miss the caller is expected to
  /// fetch and call `insert_demand` (the cache does not auto-populate, since
  /// in the DES the fetch has latency).
  bool access(FileId f);

  /// Inserts a demand-fetched entry (no-op if present), evicting as needed.
  void insert_demand(FileId f);

  /// Inserts a prefetched entry. Returns false (and counts nothing) if the
  /// entry is already resident — an already-cached prediction costs nothing
  /// and earns nothing. Evicts as needed.
  bool insert_prefetch(FileId f);

  /// Whether `f` is resident (no recency update, no stats).
  [[nodiscard]] bool contains(FileId f) const noexcept;

  /// Invalidates an entry if resident (metadata updates in the MDS).
  void erase(FileId f);

  /// Zeroes the counters without touching residency (warm-up support).
  void reset_stats() noexcept { stats_ = CacheStats{}; }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const char* policy_name() const noexcept {
    return policy_->name();
  }

 private:
  /// Inserts `f` unless resident, evicting as needed; false if resident.
  bool insert(FileId f, bool prefetched);

  std::size_t capacity_;
  std::unique_ptr<ReplacementPolicy> policy_;
  SlotIndex index_;  // the resident set
  // By slot: the entry came from prefetch and has not served a hit yet.
  std::vector<std::uint8_t> prefetched_unused_;
  CacheStats stats_;
};

}  // namespace farmer
