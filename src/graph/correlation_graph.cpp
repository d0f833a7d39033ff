#include "graph/correlation_graph.hpp"

#include <cassert>

namespace farmer {

namespace {
const SmallVector<SuccessorEdge, 8> kNoSuccessors{};
const SmallVector<Correlator, 4> kNoCorrelators{};
}  // namespace

CorrelationGraph::CorrelationGraph() : CorrelationGraph(Config{}) {}

void CorrelationGraph::touch(FileId f) {
  assert(f.valid());
  nodes_.grow_to(static_cast<std::size_t>(f.value()) + 1);
}

bool CorrelationGraph::add_transition(FileId pred, FileId succ,
                                      double weight) {
  if (weight <= 0.0 || pred == succ) return false;
  // Register succ in the dense index before mutating pred's node: touch()
  // is what gives node_count() its dense-table meaning.
  touch(succ);
  return add_transition(mutate(pred), succ, weight) != nullptr;
}

SuccessorEdge* CorrelationGraph::add_transition(Node& pred, FileId succ,
                                                double weight) {
  assert(weight > 0.0);
  assert(static_cast<std::size_t>(succ.value()) < nodes_.size());
  auto& succs = pred.successors;
  const std::size_t n = succs.size();
  const std::size_t i = find_successor(succs.data(), n, succ);
  if (i < n) {
    succs[i].nab += static_cast<float>(weight);
    return &succs[i];
  }
  if (n < cfg_.max_successors) {
    succs.push_back({succ, static_cast<float>(weight)});
    ++edges_;
    return &succs.back();
  }
  // Successor set full: evict the weakest edge if the newcomer beats it.
  // This is the filtering that keeps the graph's footprint bounded.
  SuccessorEdge& weakest = succs[weakest_successor(succs.data(), n)];
  if (static_cast<double>(weakest.nab) < weight) {
    weakest = {succ, static_cast<float>(weight)};
    return &weakest;
  }
  return nullptr;
}

std::uint64_t CorrelationGraph::access_count(FileId f) const noexcept {
  const Node* n = find(f);
  return n ? n->access_count : 0;
}

double CorrelationGraph::edge_weight(FileId pred, FileId succ) const noexcept {
  const Node* n = find(pred);
  return n ? edge_weight_in(n->successors, succ) : 0.0;
}

double CorrelationGraph::access_frequency(FileId pred,
                                          FileId succ) const noexcept {
  const Node* n = find(pred);
  if (!n || n->access_count == 0) return 0.0;
  return edge_weight(pred, succ) / static_cast<double>(n->access_count);
}

const SmallVector<SuccessorEdge, 8>& CorrelationGraph::successors(
    FileId f) const noexcept {
  const Node* n = find(f);
  return n ? n->successors : kNoSuccessors;
}

const SmallVector<Correlator, 4>& CorrelationGraph::correlators(
    FileId f) const noexcept {
  const Node* n = find(f);
  return n ? n->correlator_list : kNoCorrelators;
}

void CorrelationGraph::upsert_correlator(Node& node, Correlator c) {
  auto& list = node.correlator_list;
  // Remove any stale entry for the same successor, then insert in sorted
  // position (correlator_before: an equal degree goes after the smaller
  // FileIds). Lists are tiny (<= correlator_capacity), so linear work beats
  // any clever structure.
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].file == c.file) {
      list.erase_at(i);
      break;
    }
  }
  std::size_t pos = 0;
  while (pos < list.size() && correlator_before(list[pos], c)) ++pos;
  if (pos >= cfg_.correlator_capacity) return;  // too weak for a full list
  list.push_back(c);  // grow by one, then shift into place
  for (std::size_t i = list.size() - 1; i > pos; --i) list[i] = list[i - 1];
  list[pos] = c;
  while (list.size() > cfg_.correlator_capacity) list.pop_back();
}

void CorrelationGraph::restore_node(FileId f, std::uint64_t access_count,
                                    std::span<const SuccessorEdge> succs,
                                    std::span<const Correlator> correlators) {
  assert(!has_node(f));
  Node& node = mutate(f);
  node.access_count = access_count;
  node.successors.reserve(succs.size());
  for (const SuccessorEdge& e : succs) node.successors.push_back(e);
  node.correlator_list.reserve(correlators.size());
  for (const Correlator& c : correlators) node.correlator_list.push_back(c);
  edges_ += succs.size();
}

void CorrelationGraph::remove_correlator(Node& node, FileId succ) noexcept {
  auto& list = node.correlator_list;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].file == succ) {
      list.erase_at(i);
      return;
    }
  }
}

std::size_t CorrelationGraph::footprint_bytes() const noexcept {
  return sizeof(*this) - sizeof(NodeStore) +
         nodes_.footprint_bytes([](const Node& n) {
           return n.successors.heap_bytes() + n.correlator_list.heap_bytes();
         });
}

}  // namespace farmer
