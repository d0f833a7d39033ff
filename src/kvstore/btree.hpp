// In-memory B+tree keyed by uint64 with string values.
//
// A classic order-B B+tree: interior nodes route, leaves hold key/value
// pairs and are linked for ordered scans. Chosen over std::map for the same
// reason Berkeley DB uses B-trees — cache-friendly fanout (Per.19: access
// memory predictably) — and implemented from scratch per the reproduction
// ground rules.
#pragma once

#include <array>
#include <cassert>
#include <memory>
#include <vector>

#include "kvstore/kvstore.hpp"

namespace farmer {

class BTreeStore final : public KvStore {
 public:
  static constexpr std::size_t kFanout = 32;  ///< max children per interior
  static constexpr std::size_t kLeafCap = 32; ///< max entries per leaf

  BTreeStore();
  ~BTreeStore() override;
  BTreeStore(const BTreeStore&) = delete;
  BTreeStore& operator=(const BTreeStore&) = delete;

  void put(std::uint64_t key, std::string_view value) override;
  [[nodiscard]] std::optional<std::string> get(
      std::uint64_t key) const override;
  /// Point lookup without the copy: the stored value, or nullptr when
  /// absent. The pointer is valid until the next put() or erase().
  [[nodiscard]] const std::string* find(std::uint64_t key) const;
  bool erase(std::uint64_t key) override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void scan(std::uint64_t lo, std::uint64_t hi,
            const std::function<bool(std::uint64_t, std::string_view)>& fn)
      const override;

  /// Tree height (leaf = 1). Exposed for tests/invariant checks.
  [[nodiscard]] std::size_t height() const noexcept { return height_; }

  /// Validates all B+tree invariants (ordering, fill, uniform depth,
  /// leaf-chain consistency). Used by property tests; returns false and
  /// stops at the first violation.
  [[nodiscard]] bool check_invariants() const;

  /// Approximate heap footprint.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

  // Node types are public-opaque: the .cpp's free helper functions (destroy,
  // invariant walk, footprint walk) need to name them.
  struct Node;
  struct Leaf;
  struct Interior;

 private:
  [[nodiscard]] Leaf* find_leaf(std::uint64_t key) const;
  void insert_into_parent(std::vector<Interior*>& path, Node* left,
                          std::uint64_t sep, Node* right);

  Node* root_ = nullptr;
  Leaf* first_leaf_ = nullptr;
  std::size_t size_ = 0;
  std::size_t height_ = 1;
};

}  // namespace farmer
