// Unit tests for the correlation graph and the access window (LDA).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/access_window.hpp"
#include "graph/correlation_graph.hpp"

namespace farmer {
namespace {

// --------------------------------------------------------- AccessWindow --

TEST(AccessWindow, LdaWeightsMatchPaperExample) {
  // Paper: sequence ABCD -> B gets 1.0, C gets 0.9, D gets 0.8 toward A.
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(1, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(2, 0.1), 0.9);
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(3, 0.1), 0.8);
}

TEST(AccessWindow, LdaWeightClampsAtZero) {
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(12, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(100, 0.1), 0.0);
}

TEST(AccessWindow, PushAndOrder) {
  AccessWindow w(3);
  w.push(FileId(1));
  w.push(FileId(2));
  w.push(FileId(3));
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.at(0), FileId(3));  // most recent first
  EXPECT_EQ(w.at(1), FileId(2));
  EXPECT_EQ(w.at(2), FileId(1));
}

TEST(AccessWindow, OldestFallsOut) {
  AccessWindow w(2);
  w.push(FileId(1));
  w.push(FileId(2));
  w.push(FileId(3));
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.at(0), FileId(3));
  EXPECT_EQ(w.at(1), FileId(2));
}

TEST(AccessWindow, PredecessorIterationWithDistances) {
  AccessWindow w(4);
  w.push(FileId(10));
  w.push(FileId(11));
  w.push(FileId(12));
  std::vector<std::pair<std::uint32_t, std::size_t>> seen;
  w.for_each_predecessor(FileId(99), [&](FileId f, std::size_t d) {
    seen.emplace_back(f.value(), d);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uint32_t, std::size_t>{12, 1}));
  EXPECT_EQ(seen[1], (std::pair<std::uint32_t, std::size_t>{11, 2}));
  EXPECT_EQ(seen[2], (std::pair<std::uint32_t, std::size_t>{10, 3}));
}

TEST(AccessWindow, SelfReferenceSkipped) {
  AccessWindow w(4);
  w.push(FileId(5));
  w.push(FileId(6));
  int count = 0;
  w.for_each_predecessor(FileId(5), [&](FileId, std::size_t) { ++count; });
  EXPECT_EQ(count, 1);  // only FileId(6)
}

TEST(AccessWindow, ClearEmpties) {
  AccessWindow w(4);
  w.push(FileId(1));
  w.clear();
  EXPECT_TRUE(w.empty());
}

// ----------------------------------------------------- CorrelationGraph --

TEST(CorrelationGraph, AccessCounting) {
  CorrelationGraph g;
  g.record_access(FileId(3));
  g.record_access(FileId(3));
  g.record_access(FileId(7));
  EXPECT_EQ(g.access_count(FileId(3)), 2u);
  EXPECT_EQ(g.access_count(FileId(7)), 1u);
  EXPECT_EQ(g.access_count(FileId(999)), 0u);
}

TEST(CorrelationGraph, TransitionAccumulates) {
  CorrelationGraph g;
  EXPECT_TRUE(g.add_transition(FileId(1), FileId(2), 1.0));
  EXPECT_TRUE(g.add_transition(FileId(1), FileId(2), 0.9));
  EXPECT_NEAR(g.edge_weight(FileId(1), FileId(2)), 1.9, 1e-6);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(CorrelationGraph, SelfEdgeRejected) {
  CorrelationGraph g;
  EXPECT_FALSE(g.add_transition(FileId(1), FileId(1), 1.0));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(CorrelationGraph, NonPositiveWeightRejected) {
  CorrelationGraph g;
  EXPECT_FALSE(g.add_transition(FileId(1), FileId(2), 0.0));
  EXPECT_FALSE(g.add_transition(FileId(1), FileId(2), -1.0));
}

TEST(CorrelationGraph, AccessFrequencyDefinition) {
  CorrelationGraph g;
  g.record_access(FileId(1));
  g.record_access(FileId(1));
  g.record_access(FileId(1));
  g.record_access(FileId(1));
  g.add_transition(FileId(1), FileId(2), 1.0);
  g.add_transition(FileId(1), FileId(2), 1.0);
  // F(A,B) = N_AB / N_A = 2 / 4.
  EXPECT_NEAR(g.access_frequency(FileId(1), FileId(2)), 0.5, 1e-6);
}

TEST(CorrelationGraph, FrequencyZeroWhenUnknown) {
  CorrelationGraph g;
  EXPECT_DOUBLE_EQ(g.access_frequency(FileId(5), FileId(6)), 0.0);
}

TEST(CorrelationGraph, BoundedSuccessorsEvictWeakest) {
  CorrelationGraph g({/*max_successors=*/2, /*correlator_capacity=*/4});
  g.add_transition(FileId(0), FileId(1), 5.0);
  g.add_transition(FileId(0), FileId(2), 1.0);
  // Full. A stronger newcomer replaces the weakest (2).
  EXPECT_TRUE(g.add_transition(FileId(0), FileId(3), 2.0));
  EXPECT_EQ(g.successors(FileId(0)).size(), 2u);
  EXPECT_DOUBLE_EQ(g.edge_weight(FileId(0), FileId(2)), 0.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(FileId(0), FileId(3)), 2.0);
  // A weaker newcomer is rejected.
  EXPECT_FALSE(g.add_transition(FileId(0), FileId(4), 0.5));
}

TEST(CorrelationGraph, CorrelatorListSortedDescending) {
  CorrelationGraph g;
  auto& node = g.mutate(FileId(0));
  g.upsert_correlator(node, {FileId(1), 0.5f});
  g.upsert_correlator(node, {FileId(2), 0.9f});
  g.upsert_correlator(node, {FileId(3), 0.7f});
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].file, FileId(2));
  EXPECT_EQ(list[1].file, FileId(3));
  EXPECT_EQ(list[2].file, FileId(1));
}

TEST(CorrelationGraph, CorrelatorUpsertReplacesInPlace) {
  CorrelationGraph g;
  auto& node = g.mutate(FileId(0));
  g.upsert_correlator(node, {FileId(1), 0.5f});
  g.upsert_correlator(node, {FileId(1), 0.95f});
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 1u);
  EXPECT_FLOAT_EQ(list[0].degree, 0.95f);
}

TEST(CorrelationGraph, CorrelatorCapacityEnforced) {
  CorrelationGraph g({16, /*correlator_capacity=*/3});
  auto& node = g.mutate(FileId(0));
  for (std::uint32_t i = 1; i <= 6; ++i)
    g.upsert_correlator(node, {FileId(i), static_cast<float>(i) * 0.1f});
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 3u);
  // Strongest three survive: 0.6, 0.5, 0.4.
  EXPECT_EQ(list[0].file, FileId(6));
  EXPECT_EQ(list[1].file, FileId(5));
  EXPECT_EQ(list[2].file, FileId(4));
}

TEST(CorrelationGraph, WeakEntryNotInsertedWhenFull) {
  CorrelationGraph g({16, 2});
  auto& node = g.mutate(FileId(0));
  g.upsert_correlator(node, {FileId(1), 0.9f});
  g.upsert_correlator(node, {FileId(2), 0.8f});
  g.upsert_correlator(node, {FileId(3), 0.1f});  // too weak
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].file, FileId(1));
  EXPECT_EQ(list[1].file, FileId(2));
}

TEST(CorrelationGraph, CorrelatorTiesOrderByFileId) {
  // Equal degrees sort by ascending FileId whatever the insertion order,
  // and the capacity cut drops the tied entries that sort last.
  CorrelationGraph g({16, /*correlator_capacity=*/3});
  auto& node = g.mutate(FileId(0));
  g.upsert_correlator(node, {FileId(7), 0.5f});
  g.upsert_correlator(node, {FileId(5), 0.5f});
  g.upsert_correlator(node, {FileId(9), 0.9f});
  g.upsert_correlator(node, {FileId(6), 0.5f});
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].file, FileId(9));
  EXPECT_EQ(list[1].file, FileId(5));
  EXPECT_EQ(list[2].file, FileId(6));
  g.upsert_correlator(node, {FileId(8), 0.5f});  // sorts after 6: cut
  EXPECT_EQ(list[2].file, FileId(6));
  g.upsert_correlator(node, {FileId(4), 0.5f});  // sorts before 5: kept
  EXPECT_EQ(list[1].file, FileId(4));
  EXPECT_EQ(list[2].file, FileId(5));
}

TEST(CorrelationGraph, RemoveCorrelator) {
  CorrelationGraph g;
  auto& node = g.mutate(FileId(0));
  g.upsert_correlator(node, {FileId(1), 0.5f});
  g.upsert_correlator(node, {FileId(2), 0.6f});
  CorrelationGraph::remove_correlator(node, FileId(1));
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].file, FileId(2));
  CorrelationGraph::remove_correlator(node, FileId(42));  // absent: no-op
  EXPECT_EQ(g.correlators(FileId(0)).size(), 1u);
}

TEST(CorrelationGraph, NodeTransitionReturnsUpdatedEdge) {
  CorrelationGraph g({/*max_successors=*/2, 8});
  g.touch(FileId(3));
  auto& node = g.mutate(FileId(0));
  const SuccessorEdge* e = g.add_transition(node, FileId(1), 1.0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->successor, FileId(1));
  EXPECT_FLOAT_EQ(e->nab, 1.0f);
  e = g.add_transition(node, FileId(1), 0.9);
  ASSERT_NE(e, nullptr);
  EXPECT_FLOAT_EQ(e->nab, 1.9f);
  ASSERT_NE(g.add_transition(node, FileId(2), 0.5), nullptr);
  // Full: a newcomer no stronger than the weakest edge is refused ...
  EXPECT_EQ(g.add_transition(node, FileId(3), 0.5), nullptr);
  // ... and a stronger one takes the weakest edge's slot.
  e = g.add_transition(node, FileId(3), 0.8);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->successor, FileId(3));
  EXPECT_DOUBLE_EQ(g.edge_weight(FileId(0), FileId(2)), 0.0);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(CorrelationGraph, UnknownFileQueriesAreEmpty) {
  CorrelationGraph g;
  EXPECT_TRUE(g.successors(FileId(123)).empty());
  EXPECT_TRUE(g.correlators(FileId(123)).empty());
}

TEST(CorrelationGraph, FootprintGrowsWithNodes) {
  CorrelationGraph g;
  const auto before = g.footprint_bytes();
  for (std::uint32_t i = 0; i < 1000; ++i) g.record_access(FileId(i));
  EXPECT_GT(g.footprint_bytes(), before);
}

TEST(CorrelationGraph, NodeCountTracksHighestId) {
  CorrelationGraph g;
  g.record_access(FileId(9));
  EXPECT_EQ(g.node_count(), 10u);  // dense table
}

// ------------------------------------------------------- successor scans --
//
// find_successor / weakest_successor are checked against plain references
// written here, over every set size the graph produces (0..16 edges), with
// the edges both inline and spilled to the heap.

using Edges = SmallVector<SuccessorEdge, 8>;

std::size_t reference_find(const Edges& edges, FileId succ) {
  const auto it = std::find_if(edges.begin(), edges.end(),
                               [&](const SuccessorEdge& e) {
                                 return e.successor == succ;
                               });
  return static_cast<std::size_t>(it - edges.begin());
}

std::size_t reference_weakest(const Edges& edges) {
  const auto it = std::min_element(
      edges.begin(), edges.end(),
      [](const SuccessorEdge& a, const SuccessorEdge& b) {
        return a.nab < b.nab;
      });
  return static_cast<std::size_t>(it - edges.begin());
}

// Distinct ids, N_AB from `levels` distinct values (few levels = many ties).
Edges random_edges(Rng& rng, std::size_t n, bool spill, std::uint64_t levels) {
  Edges edges;
  if (spill) edges.reserve(32);
  while (edges.size() < n) {
    const FileId id(static_cast<std::uint32_t>(rng.next_below(64)));
    if (reference_find(edges, id) < edges.size()) continue;
    edges.push_back(
        {id, 0.5f + static_cast<float>(rng.next_below(levels)) * 0.25f});
  }
  EXPECT_EQ(edges.is_inline(), !spill && n <= 8);
  return edges;
}

TEST(SuccessorScan, FindMatchesReferenceAtEverySize) {
  Rng rng(7);
  for (const bool spill : {false, true}) {
    for (std::size_t n = 0; n <= 16; ++n) {
      for (int rep = 0; rep < 20; ++rep) {
        const Edges edges = random_edges(rng, n, spill, 1000);
        for (std::uint32_t id = 0; id < 64; ++id) {
          const std::size_t want = reference_find(edges, FileId(id));
          ASSERT_EQ(find_successor(edges.data(), n, FileId(id)), want)
              << "n=" << n << " id=" << id << " spill=" << spill;
        }
      }
    }
  }
}

TEST(SuccessorScan, WeakestMatchesReferenceAtEverySize) {
  Rng rng(11);
  for (const bool spill : {false, true}) {
    for (std::size_t n = 1; n <= 16; ++n) {
      for (int rep = 0; rep < 200; ++rep) {
        const Edges edges = random_edges(rng, n, spill, rep % 2 ? 3 : 1000);
        const std::size_t want = reference_weakest(edges);
        ASSERT_EQ(weakest_successor(edges.data(), n), want)
            << "n=" << n << " rep=" << rep << " spill=" << spill;
      }
    }
  }
}

TEST(SuccessorScan, WeakestTieGoesToFirstMinimum) {
  // Several edges share the minimum N_AB; the victim is the first of them
  // wherever the tied run sits.
  for (std::size_t n = 1; n <= 16; ++n) {
    for (std::size_t first = 0; first < n; ++first) {
      Edges edges;
      for (std::size_t i = 0; i < n; ++i)
        edges.push_back({FileId(static_cast<std::uint32_t>(i)), 2.0f});
      for (std::size_t i = first; i < n; i += 3) edges[i].nab = 0.75f;
      EXPECT_EQ(weakest_successor(edges.data(), n), first) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace farmer
