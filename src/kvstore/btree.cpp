#include "kvstore/btree.hpp"

#include <algorithm>
#include <cstring>

namespace farmer {

// Node layout: a tagged base plus leaf/interior variants. Separator rule:
// interior key[i] is the smallest key reachable through child[i+1].
struct BTreeStore::Node {
  bool is_leaf;
  explicit Node(bool leaf) : is_leaf(leaf) {}
};

struct BTreeStore::Leaf final : Node {
  Leaf() : Node(true) {}
  std::vector<std::uint64_t> keys;
  std::vector<std::string> values;
  Leaf* next = nullptr;
};

struct BTreeStore::Interior final : Node {
  Interior() : Node(false) {}
  std::vector<std::uint64_t> keys;   // size == children.size() - 1
  std::vector<Node*> children;
};

namespace {

void destroy(BTreeStore::Node* n);

}  // namespace

BTreeStore::BTreeStore() {
  auto* leaf = new Leaf();
  root_ = leaf;
  first_leaf_ = leaf;
}

namespace {
void destroy(BTreeStore::Node* n) {
  if (n == nullptr) return;
  if (!n->is_leaf) {
    auto* in = static_cast<BTreeStore::Interior*>(n);
    for (auto* c : in->children) destroy(c);
    delete in;
  } else {
    delete static_cast<BTreeStore::Leaf*>(n);
  }
}
}  // namespace

BTreeStore::~BTreeStore() { destroy(root_); }

BTreeStore::Leaf* BTreeStore::find_leaf(std::uint64_t key) const {
  Node* n = root_;
  while (!n->is_leaf) {
    auto* in = static_cast<Interior*>(n);
    const auto it =
        std::upper_bound(in->keys.begin(), in->keys.end(), key);
    n = in->children[static_cast<std::size_t>(it - in->keys.begin())];
  }
  return static_cast<Leaf*>(n);
}

void BTreeStore::put(std::uint64_t key, std::string_view value) {
  // Descend, remembering the interior path for splits.
  std::vector<Interior*> path;
  Node* n = root_;
  while (!n->is_leaf) {
    auto* in = static_cast<Interior*>(n);
    path.push_back(in);
    const auto it = std::upper_bound(in->keys.begin(), in->keys.end(), key);
    n = in->children[static_cast<std::size_t>(it - in->keys.begin())];
  }
  auto* leaf = static_cast<Leaf*>(n);
  const auto pos = static_cast<std::size_t>(
      std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key) -
      leaf->keys.begin());
  if (pos < leaf->keys.size() && leaf->keys[pos] == key) {
    leaf->values[pos].assign(value);
    return;
  }
  leaf->keys.insert(leaf->keys.begin() + static_cast<std::ptrdiff_t>(pos),
                    key);
  leaf->values.insert(leaf->values.begin() + static_cast<std::ptrdiff_t>(pos),
                      std::string(value));
  ++size_;

  if (leaf->keys.size() <= kLeafCap) return;

  // Split the leaf.
  auto* right = new Leaf();
  const std::size_t mid = leaf->keys.size() / 2;
  right->keys.assign(leaf->keys.begin() + static_cast<std::ptrdiff_t>(mid),
                     leaf->keys.end());
  right->values.assign(
      std::make_move_iterator(leaf->values.begin() +
                              static_cast<std::ptrdiff_t>(mid)),
      std::make_move_iterator(leaf->values.end()));
  leaf->keys.resize(mid);
  leaf->values.resize(mid);
  right->next = leaf->next;
  leaf->next = right;
  insert_into_parent(path, leaf, right->keys.front(), right);
}

void BTreeStore::insert_into_parent(std::vector<Interior*>& path, Node* left,
                                    std::uint64_t sep, Node* right) {
  if (path.empty()) {
    auto* new_root = new Interior();
    new_root->keys.push_back(sep);
    new_root->children.push_back(left);
    new_root->children.push_back(right);
    root_ = new_root;
    ++height_;
    return;
  }
  Interior* parent = path.back();
  path.pop_back();
  const auto it =
      std::upper_bound(parent->keys.begin(), parent->keys.end(), sep);
  const auto idx = static_cast<std::size_t>(it - parent->keys.begin());
  parent->keys.insert(parent->keys.begin() + static_cast<std::ptrdiff_t>(idx),
                      sep);
  parent->children.insert(
      parent->children.begin() + static_cast<std::ptrdiff_t>(idx) + 1, right);
  if (parent->children.size() <= kFanout) return;

  // Split the interior: middle key moves up.
  auto* rnode = new Interior();
  const std::size_t mid = parent->keys.size() / 2;
  const std::uint64_t up = parent->keys[mid];
  rnode->keys.assign(parent->keys.begin() + static_cast<std::ptrdiff_t>(mid) +
                         1,
                     parent->keys.end());
  rnode->children.assign(
      parent->children.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
      parent->children.end());
  parent->keys.resize(mid);
  parent->children.resize(mid + 1);
  insert_into_parent(path, parent, up, rnode);
}

std::optional<std::string> BTreeStore::get(std::uint64_t key) const {
  if (const std::string* v = find(key)) return *v;
  return std::nullopt;
}

const std::string* BTreeStore::find(std::uint64_t key) const {
  const Leaf* leaf = find_leaf(key);
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it != leaf->keys.end() && *it == key)
    return &leaf->values[static_cast<std::size_t>(it - leaf->keys.begin())];
  return nullptr;
}

bool BTreeStore::erase(std::uint64_t key) {
  // Lazy deletion: remove from the leaf without rebalancing. Underfull
  // leaves are tolerated (Berkeley DB behaves similarly under DB_BTREE with
  // reverse splits disabled); ordered iteration and lookups stay correct,
  // which is what the MDS needs.
  Leaf* leaf = find_leaf(key);
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it == leaf->keys.end() || *it != key) return false;
  const auto pos = static_cast<std::size_t>(it - leaf->keys.begin());
  leaf->keys.erase(leaf->keys.begin() + static_cast<std::ptrdiff_t>(pos));
  leaf->values.erase(leaf->values.begin() + static_cast<std::ptrdiff_t>(pos));
  --size_;
  return true;
}

void BTreeStore::scan(
    std::uint64_t lo, std::uint64_t hi,
    const std::function<bool(std::uint64_t, std::string_view)>& fn) const {
  const Leaf* leaf = find_leaf(lo);
  while (leaf != nullptr) {
    for (std::size_t i = 0; i < leaf->keys.size(); ++i) {
      const std::uint64_t k = leaf->keys[i];
      if (k < lo) continue;
      if (k > hi) return;
      if (!fn(k, leaf->values[i])) return;
    }
    leaf = leaf->next;
  }
}

namespace {

struct CheckState {
  bool ok = true;
  std::size_t expected_depth = 0;
};

void check_node(const BTreeStore::Node* n, std::uint64_t lo, std::uint64_t hi,
                std::size_t depth, CheckState& st) {
  if (!st.ok) return;
  if (n->is_leaf) {
    const auto* leaf = static_cast<const BTreeStore::Leaf*>(n);
    if (st.expected_depth == 0) st.expected_depth = depth;
    if (depth != st.expected_depth) {  // uniform depth violated
      st.ok = false;
      return;
    }
    std::uint64_t prev = lo;
    bool first = true;
    for (std::uint64_t k : leaf->keys) {
      if (k < lo || k > hi || (!first && k <= prev)) {
        st.ok = false;
        return;
      }
      prev = k;
      first = false;
    }
    return;
  }
  const auto* in = static_cast<const BTreeStore::Interior*>(n);
  if (in->children.size() != in->keys.size() + 1 || in->children.empty()) {
    st.ok = false;
    return;
  }
  std::uint64_t cur_lo = lo;
  for (std::size_t i = 0; i < in->children.size(); ++i) {
    const std::uint64_t cur_hi = i < in->keys.size() ? in->keys[i] - 1 : hi;
    if (i > 0 && in->keys[i - 1] < cur_lo) {
      st.ok = false;
      return;
    }
    check_node(in->children[i], cur_lo, cur_hi, depth + 1, st);
    if (i < in->keys.size()) cur_lo = in->keys[i];
  }
}

}  // namespace

bool BTreeStore::check_invariants() const {
  CheckState st;
  check_node(root_, 0, UINT64_MAX, 1, st);
  if (!st.ok) return false;
  // Leaf chain must enumerate exactly size_ keys in strict order.
  std::size_t n = 0;
  std::uint64_t prev = 0;
  bool first = true;
  for (const Leaf* l = first_leaf_; l != nullptr; l = l->next) {
    for (std::uint64_t k : l->keys) {
      if (!first && k <= prev) return false;
      prev = k;
      first = false;
      ++n;
    }
  }
  return n == size_;
}

namespace {

std::size_t node_bytes(const BTreeStore::Node* n) {
  if (n->is_leaf) {
    const auto* leaf = static_cast<const BTreeStore::Leaf*>(n);
    std::size_t b = sizeof(*leaf) +
                    leaf->keys.capacity() * sizeof(std::uint64_t) +
                    leaf->values.capacity() * sizeof(std::string);
    for (const auto& v : leaf->values) b += v.capacity();
    return b;
  }
  const auto* in = static_cast<const BTreeStore::Interior*>(n);
  std::size_t b = sizeof(*in) + in->keys.capacity() * sizeof(std::uint64_t) +
                  in->children.capacity() * sizeof(void*);
  for (const auto* c : in->children) b += node_bytes(c);
  return b;
}

}  // namespace

std::size_t BTreeStore::footprint_bytes() const noexcept {
  return sizeof(*this) + node_bytes(root_);
}

}  // namespace farmer
