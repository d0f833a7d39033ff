#include "cache/correlator_cache.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace farmer {

CorrelatorCache::CorrelatorCache(std::size_t capacity, CachePolicy policy,
                                 std::size_t stripes)
    : capacity_(capacity) {
  const std::size_t n =
      std::max<std::size_t>(1, std::min(stripes, std::max<std::size_t>(
                                                     capacity, 1)));
  // Ceil split so the stripe capacities sum to >= capacity; a stripe never
  // holds fewer than one entry.
  per_stripe_capacity_ = capacity == 0 ? 0 : (capacity + n - 1) / n;
  stripes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Stripe>();
    s->policy = make_policy(policy, per_stripe_capacity_);
    stripes_.push_back(std::move(s));
  }
}

CorrelatorCache::Stripe& CorrelatorCache::stripe_of(FileId f) noexcept {
  return *stripes_[static_cast<std::size_t>(mix64(f.value())) %
                   stripes_.size()];
}

bool CorrelatorCache::revalidate(Entry& e,
                                 std::span<const std::uint64_t> current_epochs,
                                 const ShardAbsenceProbe& still_absent) {
  // A reconfigured shard count can never match entry state; treat as stale.
  if (e.epochs.size() != current_epochs.size()) return false;
  for (std::size_t s = 0; s < current_epochs.size(); ++s) {
    if (e.epochs[s] == current_epochs[s]) continue;
    // Shard s republished since the merge. If it contributed to the list
    // the entry is stale; if it did not, the entry survives as long as the
    // file is still absent from s (a newly appearing file would change the
    // merge). Memoize the verdict by advancing the recorded epoch.
    if (e.contained[s] || !still_absent(s)) return false;
    e.epochs[s] = current_epochs[s];
  }
  return true;
}

std::optional<std::vector<Correlator>> CorrelatorCache::lookup(
    FileId f, std::span<const std::uint64_t> current_epochs,
    ShardAbsenceProbe still_absent) {
  if (!enabled()) return std::nullopt;
  Stripe& st = stripe_of(f);
  std::lock_guard<std::mutex> lk(st.mu);
  const Slot s = st.index.find(f);
  if (s == SlotIndex::kNone) {
    ++st.stats.misses;
    return std::nullopt;
  }
  if (!revalidate(st.entries[s], current_epochs, still_absent)) {
    drop(st, s);
    ++st.stats.invalidations;
    return std::nullopt;
  }
  st.policy->on_access(s);
  ++st.stats.hits;
  return st.entries[s].list;
}

void CorrelatorCache::drop(Stripe& st, Slot s) {
  st.policy->on_erase(s);
  st.index.erase(st.index.key(s));
  st.entries[s] = Entry{};
}

void CorrelatorCache::insert(FileId f, std::span<const std::uint64_t> epochs,
                             std::vector<std::uint8_t> contained,
                             std::vector<Correlator> list) {
  if (!enabled()) return;
  Stripe& st = stripe_of(f);
  std::lock_guard<std::mutex> lk(st.mu);
  Slot s = st.index.find(f);
  const bool fresh = s == SlotIndex::kNone;
  if (fresh) {
    s = st.index.insert(f);
    if (s >= st.entries.size()) st.entries.resize(s + 1);
  }
  Entry& e = st.entries[s];
  e.list = std::move(list);
  e.epochs.assign(epochs.begin(), epochs.end());
  e.contained = std::move(contained);
  if (fresh) {
    st.policy->on_insert(s, f);
    ++st.stats.insertions;
    while (st.index.size() > per_stripe_capacity_) {
      const Slot victim = st.policy->victim();
      if (victim == SlotIndex::kNone) break;  // defensive: stop evicting
      drop(st, victim);
      ++st.stats.evictions;
    }
  } else {
    st.policy->on_access(s);
  }
}

void CorrelatorCache::clear() {
  for (auto& st : stripes_) {
    std::lock_guard<std::mutex> lk(st->mu);
    for (Slot s = 0; s < st->index.slots(); ++s)
      if (st->index.key(s).valid()) drop(*st, s);
  }
}

std::size_t CorrelatorCache::size() const {
  std::size_t n = 0;
  for (const auto& st : stripes_) {
    std::lock_guard<std::mutex> lk(st->mu);
    n += st->index.size();
  }
  return n;
}

CorrelatorCacheStats CorrelatorCache::stats() const {
  CorrelatorCacheStats total;
  for (const auto& st : stripes_) {
    std::lock_guard<std::mutex> lk(st->mu);
    total.hits += st->stats.hits;
    total.misses += st->stats.misses;
    total.invalidations += st->stats.invalidations;
    total.insertions += st->stats.insertions;
    total.evictions += st->stats.evictions;
  }
  return total;
}

std::size_t CorrelatorCache::footprint_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& st : stripes_) {
    std::lock_guard<std::mutex> lk(st->mu);
    bytes += sizeof(Stripe);
    for (Slot s = 0; s < st->index.slots(); ++s) {
      if (!st->index.key(s).valid()) continue;
      const Entry& e = st->entries[s];
      bytes += sizeof(FileId) + sizeof(Entry) +
               e.list.capacity() * sizeof(Correlator) +
               e.epochs.capacity() * sizeof(std::uint64_t) +
               e.contained.capacity();
    }
  }
  return bytes;
}

}  // namespace farmer
