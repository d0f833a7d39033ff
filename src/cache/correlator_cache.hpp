// Epoch-validated cache of hot merged Correlator Lists.
//
// Merging a Correlator List across S shards costs a sort + dedup per query;
// at peta-scale the query stream is heavily skewed (the same hot files are
// asked for by prefetch, grouping and policy propagation), so the merge for
// a hot file is recomputed thousands of times between changes. This cache
// sits in front of the concurrent backend's snapshot query path and
// memoizes merged lists, validated against the per-shard publish epochs:
//
//   * An entry remembers the epoch of every shard it merged from and which
//     shards *contained* the file at build time (access count > 0).
//   * On lookup the entry is revalidated against the current epochs: a
//     contributing shard that republished invalidates it; a non-contributing
//     shard that republished keeps it valid as long as the file is still
//     absent from that shard (the caller answers that via the absence
//     probe — an O(1) read of the published snapshot). Absence re-checks
//     are memoized by bumping the entry's recorded epoch forward.
//
// Validation is lazy (per-lookup) — there is no invalidation broadcast to
// race with, which is what keeps the reader path lock-free outside the
// cache's own stripe. The table is striped: a FileId hashes to one of
// `stripes` sub-caches, each with its own mutex and its own replacement
// policy (reusing cache/replacement.hpp), so concurrent readers of
// different hot files do not serialize on one lock.
//
// Thread-safety: all methods are safe to call concurrently. A lookup hit
// copies the list out under the stripe lock (lists are capped at the
// configured correlator capacity, typically 8 entries).
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "cache/replacement.hpp"
#include "common/types.hpp"
#include "graph/correlation_graph.hpp"

namespace farmer {

/// Aggregate counters across all stripes.
struct CorrelatorCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< absent entries (cold or evicted)
  std::uint64_t invalidations = 0;   ///< entries dropped as epoch-stale
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_ratio() const noexcept {
    const std::uint64_t total = hits + misses + invalidations;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

/// Non-owning callable `bool(shard)` answering "is the file absent from
/// shard s's currently published snapshot?" — a function_ref, so the hot
/// path never allocates for the closure.
class ShardAbsenceProbe {
 public:
  // Constrained so this can never hijack copy construction (Fn = probe)
  // or bind a non-callable: the stored pointer must address a genuine
  // bool(std::size_t) callable that outlives the probe.
  template <typename Fn>
    requires(!std::same_as<std::remove_cvref_t<Fn>, ShardAbsenceProbe> &&
             std::is_invocable_r_v<bool, const Fn&, std::size_t>)
  ShardAbsenceProbe(const Fn& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(&fn), call_([](const void* ctx, std::size_t s) {
          return (*static_cast<const Fn*>(ctx))(s);
        }) {}

  [[nodiscard]] bool operator()(std::size_t shard) const {
    return call_(ctx_, shard);
  }

 private:
  const void* ctx_;
  bool (*call_)(const void*, std::size_t);
};

class CorrelatorCache {
 public:
  static constexpr std::size_t kDefaultStripes = 16;

  /// `capacity` == 0 disables the cache entirely: lookups miss without
  /// counting and inserts are dropped, so a disabled cache is bit-for-bit
  /// the uncached query path.
  explicit CorrelatorCache(std::size_t capacity,
                           CachePolicy policy = CachePolicy::kLRU,
                           std::size_t stripes = kDefaultStripes);

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Returns the cached merged list for `f` if an entry exists and is still
  /// valid against `current_epochs` (one publish count per shard) and the
  /// absence probe. A stale entry is erased and counted as an invalidation.
  [[nodiscard]] std::optional<std::vector<Correlator>> lookup(
      FileId f, std::span<const std::uint64_t> current_epochs,
      ShardAbsenceProbe still_absent);

  /// Memoizes a freshly merged list. `epochs` are the shard epochs the
  /// merge read; `contained[s]` != 0 iff shard s held the file (access
  /// count > 0) at merge time. No-op when disabled.
  void insert(FileId f, std::span<const std::uint64_t> epochs,
              std::vector<std::uint8_t> contained,
              std::vector<Correlator> list);

  /// Drops every entry (stats are kept).
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] CorrelatorCacheStats stats() const;
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  struct Entry {
    std::vector<Correlator> list;
    std::vector<std::uint64_t> epochs;
    std::vector<std::uint8_t> contained;
  };

  struct Stripe {
    mutable std::mutex mu;
    SlotIndex index;
    std::vector<Entry> entries;  // by index slot
    std::unique_ptr<ReplacementPolicy> policy;
    CorrelatorCacheStats stats;  // guarded by mu, aggregated on demand
  };

  [[nodiscard]] Stripe& stripe_of(FileId f) noexcept;
  /// Removes slot `s`'s entry from the stripe.
  static void drop(Stripe& st, Slot s);
  /// True when the entry may still be served; advances the entry's recorded
  /// epochs past shards verified still-absent.
  [[nodiscard]] static bool revalidate(
      Entry& e, std::span<const std::uint64_t> current_epochs,
      const ShardAbsenceProbe& still_absent);

  std::size_t capacity_ = 0;
  std::size_t per_stripe_capacity_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace farmer
