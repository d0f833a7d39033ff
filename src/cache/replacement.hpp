// Replacement policies for the metadata cache.
//
// LRU is the paper's baseline replacement policy; LFU, CLOCK and ARC are
// provided both as extensions and as sanity baselines for the ablation
// benches. All policies share one interface so the metadata cache and the
// MDS are policy-agnostic.
//
// A cache names each resident entry by a slot from its SlotIndex, and the
// policies keep their per-entry state in arrays indexed by slot, so the
// cache's one FileId lookup per operation serves the policy too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace farmer {

enum class CachePolicy { kLRU, kLFU, kCLOCK, kARC };

[[nodiscard]] const char* cache_policy_name(CachePolicy p) noexcept;

/// Index of a resident entry in its cache's slot arrays.
using Slot = std::uint32_t;

/// Flat FileId -> Slot map. Open addressing with linear probing and
/// backward-shift deletion over one bucket array (load <= 1/2); freed slots
/// are reused most-recent first. Memory is O(peak entries), whatever the
/// FileId range, and a warm index inserts and erases without allocating.
class SlotIndex {
 public:
  static constexpr Slot kNone = std::numeric_limits<Slot>::max();

  [[nodiscard]] Slot find(FileId key) const noexcept;
  /// Gives absent, valid `key` a slot.
  Slot insert(FileId key);
  /// Frees `key`'s slot and returns it; kNone when `key` is absent.
  Slot erase(FileId key);

  /// The key in slot `s`; an invalid FileId when the slot is free.
  [[nodiscard]] FileId key(Slot s) const noexcept { return keys_[s]; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slots handed out so far, live or free: bounds every slot number.
  [[nodiscard]] std::size_t slots() const noexcept { return keys_.size(); }

 private:
  struct Bucket {
    std::uint32_t key;
    Slot slot;  ///< kNone: empty bucket
  };
  [[nodiscard]] std::size_t home(std::uint32_t key) const noexcept;
  void place(Bucket b) noexcept;

  std::vector<Bucket> table_;  // power-of-two size
  unsigned shift_ = 64;        // 64 - log2(table size)
  std::vector<FileId> keys_;   // by slot
  std::vector<Slot> free_;
  std::size_t size_ = 0;
};

/// Pure replacement state machine over the slots of a cache. Capacity is
/// enforced by the caller via `victim()`; policies only pick victims and
/// track recency/frequency. All operations are O(1) amortized except LFU's
/// victim scan, which is O(distinct frequencies) via frequency buckets.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Notes an access (hit) on the resident entry in slot `s`.
  virtual void on_access(Slot s) = 0;
  /// Notes that `key` became resident in slot `s`.
  virtual void on_insert(Slot s, FileId key) = 0;
  /// Notes a removal (by eviction or invalidation) of slot `s`'s entry.
  virtual void on_erase(Slot s) = 0;
  /// The slot the policy would evict next (does not remove it), or
  /// SlotIndex::kNone when nothing is resident.
  [[nodiscard]] virtual Slot victim() = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// `capacity`: entries the owning cache holds at most (ARC sizes its ghost
/// lists from it).
[[nodiscard]] std::unique_ptr<ReplacementPolicy> make_policy(
    CachePolicy p, std::size_t capacity);

/// Strict LRU: a doubly linked recency list threaded through slot-indexed
/// links.
class LruPolicy final : public ReplacementPolicy {
 public:
  void on_access(Slot s) override;
  void on_insert(Slot s, FileId key) override;
  void on_erase(Slot s) override;
  [[nodiscard]] Slot victim() override { return tail_; }
  [[nodiscard]] const char* name() const noexcept override { return "LRU"; }

 private:
  struct Links {
    Slot prev, next;
  };
  void unlink(Slot s) noexcept;
  void push_front(Slot s) noexcept;

  std::vector<Links> links_;  // by slot
  Slot head_ = SlotIndex::kNone;  // MRU
  Slot tail_ = SlotIndex::kNone;  // LRU
};

/// LFU with frequency buckets (O(1) all ops); ties broken by LRU within the
/// lowest-frequency bucket.
class LfuPolicy final : public ReplacementPolicy {
 public:
  void on_access(Slot s) override;
  void on_insert(Slot s, FileId key) override;
  void on_erase(Slot s) override;
  [[nodiscard]] Slot victim() override;
  [[nodiscard]] const char* name() const noexcept override { return "LFU"; }

 private:
  struct Entry {
    std::uint64_t freq;
    std::list<Slot>::iterator pos;
  };
  std::vector<Entry> entries_;  // by slot
  std::size_t live_ = 0;
  std::unordered_map<std::uint64_t, std::list<Slot>> buckets_;
  std::uint64_t min_freq_ = 0;
};

/// Second-chance CLOCK.
class ClockPolicy final : public ReplacementPolicy {
 public:
  void on_access(Slot s) override;
  void on_insert(Slot s, FileId key) override;
  void on_erase(Slot s) override;
  [[nodiscard]] Slot victim() override;
  [[nodiscard]] const char* name() const noexcept override { return "CLOCK"; }

 private:
  struct Frame {
    Slot slot;
    bool referenced;
    bool live;
  };
  std::vector<Frame> frames_;
  std::vector<std::size_t> frame_of_;  // by slot
  std::size_t live_ = 0;
  std::size_t hand_ = 0;
};

/// ARC (Megiddo & Modha, FAST'03). The policy tracks the four ARC lists
/// internally; `victim()` follows the REPLACE rule using the adaptive
/// target p. Ghost hits adapt p on `on_insert` of a ghost-resident key, so
/// ARC keys its lists by FileId: ghosts have no slot.
class ArcPolicy final : public ReplacementPolicy {
 public:
  explicit ArcPolicy(std::size_t capacity) : capacity_(capacity) {}

  void on_access(Slot s) override;
  void on_insert(Slot s, FileId key) override;
  void on_erase(Slot s) override;
  [[nodiscard]] Slot victim() override;
  [[nodiscard]] const char* name() const noexcept override { return "ARC"; }

 private:
  enum class Where : std::uint8_t { kT1, kT2, kB1, kB2 };
  struct Entry {
    Where where;
    std::list<FileId>::iterator pos;
    Slot slot;  ///< kNone for ghosts
  };
  void move_to(FileId key, Entry& e, Where dst);
  void trim_ghosts();
  std::list<FileId>& list_of(Where w);

  std::list<FileId> t1_, t2_, b1_, b2_;  // front = MRU
  std::unordered_map<FileId, Entry> entries_;
  std::vector<FileId> key_of_;  // by slot
  std::size_t capacity_;
  double p_ = 0.0;  // adaptive target size of t1
};

}  // namespace farmer
