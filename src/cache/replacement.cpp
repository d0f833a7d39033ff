#include "cache/replacement.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace farmer {

const char* cache_policy_name(CachePolicy p) noexcept {
  switch (p) {
    case CachePolicy::kLRU:
      return "LRU";
    case CachePolicy::kLFU:
      return "LFU";
    case CachePolicy::kCLOCK:
      return "CLOCK";
    case CachePolicy::kARC:
      return "ARC";
  }
  return "?";
}

std::unique_ptr<ReplacementPolicy> make_policy(CachePolicy p,
                                               std::size_t capacity) {
  switch (p) {
    case CachePolicy::kLRU:
      return std::make_unique<LruPolicy>();
    case CachePolicy::kLFU:
      return std::make_unique<LfuPolicy>();
    case CachePolicy::kCLOCK:
      return std::make_unique<ClockPolicy>();
    case CachePolicy::kARC:
      return std::make_unique<ArcPolicy>(capacity);
  }
  return nullptr;
}

// ---------------------------------------------------------- SlotIndex ----

std::size_t SlotIndex::home(std::uint32_t key) const noexcept {
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
}

void SlotIndex::place(Bucket b) noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(b.key);
  while (table_[i].slot != kNone) i = (i + 1) & mask;
  table_[i] = b;
}

Slot SlotIndex::find(FileId key) const noexcept {
  if (table_.empty()) return kNone;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = home(key.value());; i = (i + 1) & mask) {
    const Bucket& b = table_[i];
    if (b.slot == kNone || b.key == key.value()) return b.slot;
  }
}

Slot SlotIndex::insert(FileId key) {
  assert(key.valid() && find(key) == kNone);
  if (2 * (size_ + 1) > table_.size()) {
    std::vector<Bucket> old(std::max<std::size_t>(16, 2 * table_.size()),
                            Bucket{0, kNone});
    old.swap(table_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(table_.size()));
    for (const Bucket& b : old)
      if (b.slot != kNone) place(b);
  }
  Slot s;
  if (free_.empty()) {
    s = static_cast<Slot>(keys_.size());
    keys_.push_back(key);
  } else {
    s = free_.back();
    free_.pop_back();
    keys_[s] = key;
  }
  place({key.value(), s});
  ++size_;
  return s;
}

Slot SlotIndex::erase(FileId key) {
  if (table_.empty()) return kNone;
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(key.value());
  while (table_[i].slot != kNone && table_[i].key != key.value())
    i = (i + 1) & mask;
  const Slot s = table_[i].slot;
  if (s == kNone) return kNone;
  // Backward shift: a later bucket of the probe run moves into the hole when
  // the hole lies between its home and it, so no tombstones are needed.
  for (std::size_t j = (i + 1) & mask; table_[j].slot != kNone;
       j = (j + 1) & mask) {
    if (((j - home(table_[j].key)) & mask) >= ((j - i) & mask)) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i].slot = kNone;
  keys_[s] = FileId();
  free_.push_back(s);
  --size_;
  return s;
}

// ---------------------------------------------------------------- LRU ----

void LruPolicy::unlink(Slot s) noexcept {
  const Links l = links_[s];
  (l.prev == SlotIndex::kNone ? head_ : links_[l.prev].next) = l.next;
  (l.next == SlotIndex::kNone ? tail_ : links_[l.next].prev) = l.prev;
}

void LruPolicy::push_front(Slot s) noexcept {
  links_[s] = {SlotIndex::kNone, head_};
  (head_ == SlotIndex::kNone ? tail_ : links_[head_].prev) = s;
  head_ = s;
}

void LruPolicy::on_access(Slot s) {
  if (s == head_) return;
  unlink(s);
  push_front(s);
}

void LruPolicy::on_insert(Slot s, FileId) {
  if (s >= links_.size()) links_.resize(s + 1);
  push_front(s);
}

void LruPolicy::on_erase(Slot s) { unlink(s); }

// ---------------------------------------------------------------- LFU ----

void LfuPolicy::on_access(Slot s) {
  Entry& e = entries_[s];
  auto& old_bucket = buckets_[e.freq];
  old_bucket.erase(e.pos);
  if (old_bucket.empty()) {
    buckets_.erase(e.freq);
    if (min_freq_ == e.freq) ++min_freq_;
  }
  ++e.freq;
  auto& bucket = buckets_[e.freq];
  bucket.push_front(s);
  e.pos = bucket.begin();
}

void LfuPolicy::on_insert(Slot s, FileId) {
  if (s >= entries_.size()) entries_.resize(s + 1);
  auto& bucket = buckets_[1];
  bucket.push_front(s);
  entries_[s] = {1, bucket.begin()};
  ++live_;
  min_freq_ = 1;
}

void LfuPolicy::on_erase(Slot s) {
  const Entry& e = entries_[s];
  auto& bucket = buckets_[e.freq];
  bucket.erase(e.pos);
  if (bucket.empty()) buckets_.erase(e.freq);
  --live_;
}

Slot LfuPolicy::victim() {
  if (live_ == 0) return SlotIndex::kNone;
  auto it = buckets_.find(min_freq_);
  while (it == buckets_.end()) {
    ++min_freq_;  // min bucket emptied by erase; advance lazily
    if (min_freq_ > live_ * 64 + 64) return SlotIndex::kNone;
    it = buckets_.find(min_freq_);
  }
  return it->second.back();  // LRU within the minimum-frequency bucket
}

// -------------------------------------------------------------- CLOCK ----

void ClockPolicy::on_access(Slot s) { frames_[frame_of_[s]].referenced = true; }

void ClockPolicy::on_insert(Slot s, FileId) {
  if (s >= frame_of_.size()) frame_of_.resize(s + 1);
  ++live_;
  // Reuse a dead frame if one exists at/after the hand; else append.
  for (std::size_t scanned = 0; scanned < frames_.size(); ++scanned) {
    std::size_t i = (hand_ + scanned) % frames_.size();
    if (!frames_[i].live) {
      frames_[i] = {s, true, true};
      frame_of_[s] = i;
      return;
    }
  }
  frames_.push_back({s, true, true});
  frame_of_[s] = frames_.size() - 1;
}

void ClockPolicy::on_erase(Slot s) {
  frames_[frame_of_[s]].live = false;
  --live_;
}

Slot ClockPolicy::victim() {
  if (live_ == 0) return SlotIndex::kNone;
  // Classic second chance: clear reference bits until an unreferenced live
  // frame is found. Bounded by two sweeps.
  for (std::size_t scanned = 0; scanned < frames_.size() * 2; ++scanned) {
    Frame& f = frames_[hand_];
    hand_ = (hand_ + 1) % frames_.size();
    if (!f.live) continue;
    if (f.referenced) {
      f.referenced = false;
    } else {
      return f.slot;
    }
  }
  // Every frame referenced: fall back to the frame under the hand.
  for (std::size_t scanned = 0; scanned < frames_.size(); ++scanned) {
    Frame& f = frames_[(hand_ + scanned) % frames_.size()];
    if (f.live) return f.slot;
  }
  return SlotIndex::kNone;
}

// ---------------------------------------------------------------- ARC ----

std::list<FileId>& ArcPolicy::list_of(Where w) {
  switch (w) {
    case Where::kT1:
      return t1_;
    case Where::kT2:
      return t2_;
    case Where::kB1:
      return b1_;
    case Where::kB2:
      return b2_;
  }
  return t1_;
}

void ArcPolicy::move_to(FileId key, Entry& e, Where dst) {
  list_of(e.where).erase(e.pos);
  auto& dl = list_of(dst);
  dl.push_front(key);
  e.where = dst;
  e.pos = dl.begin();
}

void ArcPolicy::trim_ghosts() {
  const std::size_t cap = std::max<std::size_t>(capacity_, 1);
  while (b1_.size() > cap) {
    entries_.erase(b1_.back());
    b1_.pop_back();
  }
  while (b2_.size() > cap) {
    entries_.erase(b2_.back());
    b2_.pop_back();
  }
}

void ArcPolicy::on_access(Slot s) {
  const FileId key = key_of_[s];
  Entry& e = entries_.find(key)->second;
  move_to(key, e, Where::kT2);  // promoted: seen at least twice
  // Ghost hits are handled on insert (the caller re-inserts after a miss).
}

void ArcPolicy::on_insert(Slot s, FileId key) {
  if (s >= key_of_.size()) key_of_.resize(s + 1);
  key_of_[s] = key;
  const double cap = static_cast<double>(std::max<std::size_t>(capacity_, 1));
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& e = it->second;
    assert(e.where == Where::kB1 || e.where == Where::kB2);
    if (e.where == Where::kB1) {
      // Ghost hit in B1: recency list too small -> grow p.
      const double delta =
          std::max(1.0, static_cast<double>(b2_.size()) /
                            std::max<std::size_t>(b1_.size(), 1));
      p_ = std::min(cap, p_ + delta);
    } else {
      // Ghost hit in B2: frequency list too small -> shrink p.
      const double delta =
          std::max(1.0, static_cast<double>(b1_.size()) /
                            std::max<std::size_t>(b2_.size(), 1));
      p_ = std::max(0.0, p_ - delta);
    }
    e.slot = s;
    move_to(key, e, Where::kT2);
    return;
  }
  t1_.push_front(key);
  entries_[key] = {Where::kT1, t1_.begin(), s};
  trim_ghosts();
}

void ArcPolicy::on_erase(Slot s) {
  const FileId key = key_of_[s];
  Entry& e = entries_.find(key)->second;
  // Residents demote to the matching ghost list (ARC's REPLACE).
  e.slot = SlotIndex::kNone;
  move_to(key, e, e.where == Where::kT1 ? Where::kB1 : Where::kB2);
  trim_ghosts();
}

Slot ArcPolicy::victim() {
  if (t1_.empty() && t2_.empty()) return SlotIndex::kNone;
  const bool from_t1 =
      !t1_.empty() &&
      (static_cast<double>(t1_.size()) > p_ || t2_.empty());
  return entries_.find(from_t1 ? t1_.back() : t2_.back())->second.slot;
}

}  // namespace farmer
