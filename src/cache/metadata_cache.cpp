#include "cache/metadata_cache.hpp"

#include <cassert>

namespace farmer {

MetadataCache::MetadataCache(std::size_t capacity, CachePolicy policy)
    : capacity_(capacity == 0 ? 1 : capacity),
      policy_(make_policy(policy, capacity_)) {}

bool MetadataCache::access(FileId f) {
  const Slot s = index_.find(f);
  if (s == SlotIndex::kNone) {
    stats_.demand.miss();
    return false;
  }
  if (prefetched_unused_[s]) {  // first demand hit on a prefetched entry
    ++stats_.prefetch_used;
    prefetched_unused_[s] = 0;
  }
  stats_.demand.hit();
  policy_->on_access(s);
  return true;
}

void MetadataCache::insert_demand(FileId f) { (void)insert(f, false); }

bool MetadataCache::insert_prefetch(FileId f) {
  if (!insert(f, true)) return false;
  ++stats_.prefetch_inserted;
  return true;
}

bool MetadataCache::insert(FileId f, bool prefetched) {
  if (index_.find(f) != SlotIndex::kNone) return false;
  while (index_.size() >= capacity_) {
    const Slot victim = policy_->victim();
    assert(victim != SlotIndex::kNone);
    if (victim == SlotIndex::kNone) break;  // defensive: keep serving
    index_.erase(index_.key(victim));
    if (prefetched_unused_[victim]) ++stats_.prefetch_evicted_unused;
    policy_->on_erase(victim);
    ++stats_.evictions;
  }
  const Slot s = index_.insert(f);
  if (s >= prefetched_unused_.size()) prefetched_unused_.resize(s + 1);
  prefetched_unused_[s] = prefetched;
  policy_->on_insert(s, f);
  return true;
}

bool MetadataCache::contains(FileId f) const noexcept {
  return index_.find(f) != SlotIndex::kNone;
}

void MetadataCache::erase(FileId f) {
  const Slot s = index_.erase(f);
  if (s == SlotIndex::kNone) return;
  if (prefetched_unused_[s]) ++stats_.prefetch_evicted_unused;
  policy_->on_erase(s);
}

}  // namespace farmer
