#include "oms/graph/graph_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "tests/test_support.hpp"

namespace oms {
namespace {

/// One add_edge call, as the caller made it (any orientation, self-loops).
struct RawEdge {
  NodeId u;
  NodeId v;
  EdgeWeight w;
};

/// Reference assembly by comparison sorts: sort every canonical (u < v)
/// edge, merge duplicates, scatter both arcs, then sort each row on its own.
/// The differential test below requires GraphBuilder's bucket assembly to
/// produce the same arrays, bit for bit, with the same capacities.
CsrGraph sort_based_build(NodeId num_nodes, const std::vector<RawEdge>& raw,
                          std::vector<NodeWeight> node_weights) {
  std::vector<RawEdge> edges;
  for (RawEdge e : raw) {
    if (e.u == e.v) {
      continue;
    }
    if (e.u > e.v) {
      std::swap(e.u, e.v);
    }
    edges.push_back(e);
  }
  std::sort(edges.begin(), edges.end(), [](const RawEdge& a, const RawEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::size_t out = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (out > 0 && edges[out - 1].u == edges[i].u && edges[out - 1].v == edges[i].v) {
      edges[out - 1].w += edges[i].w;
    } else {
      edges[out++] = edges[i];
    }
  }
  edges.resize(out);

  std::vector<EdgeIndex> xadj(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const RawEdge& e : edges) {
    ++xadj[e.u + 1];
    ++xadj[e.v + 1];
  }
  std::partial_sum(xadj.begin(), xadj.end(), xadj.begin());

  std::vector<NodeId> adjncy(edges.size() * 2);
  std::vector<EdgeWeight> adjwgt(edges.size() * 2);
  std::vector<EdgeIndex> cursor(xadj.begin(), xadj.end() - 1);
  for (const RawEdge& e : edges) {
    adjncy[cursor[e.u]] = e.v;
    adjwgt[cursor[e.u]] = e.w;
    ++cursor[e.u];
    adjncy[cursor[e.v]] = e.u;
    adjwgt[cursor[e.v]] = e.w;
    ++cursor[e.v];
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    std::vector<std::pair<NodeId, EdgeWeight>> entries;
    for (EdgeIndex i = xadj[u]; i < xadj[u + 1]; ++i) {
      entries.emplace_back(adjncy[i], adjwgt[i]);
    }
    std::sort(entries.begin(), entries.end());
    for (EdgeIndex i = xadj[u]; i < xadj[u + 1]; ++i) {
      adjncy[i] = entries[i - xadj[u]].first;
      adjwgt[i] = entries[i - xadj[u]].second;
    }
  }
  return CsrGraph(std::move(xadj), std::move(adjncy), std::move(adjwgt),
                  std::move(node_weights));
}

/// A random edge multiset over \p n nodes: both orientations, self-loops,
/// duplicates with different weights (one edge in three re-draws an earlier
/// pair, reversed), and with \p hub set one node (0) on three edges in four.
/// Nodes past the random reach stay isolated.
std::vector<RawEdge> random_multiset(Rng& rng, NodeId n, bool hub) {
  std::vector<RawEdge> edges;
  if (n == 0) {
    return edges;
  }
  const NodeId reach = n - static_cast<NodeId>(rng.next_below(n / 4 + 1));
  const std::size_t count = rng.next_below(6 * static_cast<std::uint64_t>(n)) + 1;
  for (std::size_t i = 0; i < count; ++i) {
    NodeId u = static_cast<NodeId>(rng.next_below(reach));
    NodeId v = static_cast<NodeId>(rng.next_below(reach));
    if (hub && i % 4 != 3) {
      u = 0;
      v = static_cast<NodeId>(rng.next_below(reach - 1) + 1);
    } else if (rng.next_below(8) == 0) {
      v = u; // self-loop
    } else if (rng.next_below(3) == 0 && !edges.empty()) {
      const RawEdge& earlier = edges[rng.next_below(edges.size())];
      u = earlier.v; // the same pair again, maybe reversed
      v = earlier.u;
    }
    edges.push_back({u, v, static_cast<EdgeWeight>(rng.next_below(9) + 1)});
  }
  return edges;
}

TEST(GraphBuilder, BucketAssemblyMatchesSortBasedReference) {
  const std::uint64_t seed = oms::testing::test_seed();
  SCOPED_TRACE("OMS_TEST_SEED=" + std::to_string(seed));
  for (std::uint64_t draw = 0; draw < 200; ++draw) {
    Rng rng(oms::testing::draw_seed(draw));
    const NodeId n = draw < 4 ? static_cast<NodeId>(draw % 2)
                              : static_cast<NodeId>(rng.next_below(300) + 2);
    const bool hub = n >= 2 && draw % 3 == 0;
    const bool ascending = draw % 2 == 0;
    std::vector<RawEdge> edges = random_multiset(rng, n, hub);
    if (ascending) {
      std::sort(edges.begin(), edges.end(), [](const RawEdge& a, const RawEdge& b) {
        const auto key = [](const RawEdge& e) {
          return std::make_pair(std::min(e.u, e.v), std::max(e.u, e.v));
        };
        return key(a) < key(b);
      });
    }
    if (hub) {
      // Node 0 is an endpoint of more than half of the recorded edges, so
      // its row receives more than half of the arcs before merging.
      const auto loops = std::count_if(edges.begin(), edges.end(),
                                       [](const RawEdge& e) { return e.u == e.v; });
      const auto at_hub = std::count_if(edges.begin(), edges.end(), [](const RawEdge& e) {
        return e.u != e.v && (e.u == 0 || e.v == 0);
      });
      ASSERT_GT(2 * at_hub, static_cast<std::ptrdiff_t>(edges.size()) - loops);
    }
    std::vector<NodeWeight> node_weights(n, 1);
    for (NodeWeight& w : node_weights) {
      w = static_cast<NodeWeight>(rng.next_below(4));
    }
    SCOPED_TRACE("draw " + std::to_string(draw) + ": n=" + std::to_string(n) +
                 " edges=" + std::to_string(edges.size()) +
                 (hub ? " hub" : "") + (ascending ? " ascending" : " shuffled"));

    GraphBuilder builder(n);
    for (NodeId u = 0; u < n; ++u) {
      builder.set_node_weight(u, node_weights[u]);
    }
    for (const RawEdge& e : edges) {
      builder.add_edge(e.u, e.v, e.w);
    }
    const CsrGraph actual = std::move(builder).build();
    const CsrGraph expected = sort_based_build(n, edges, node_weights);

    ASSERT_TRUE(std::ranges::equal(actual.raw_xadj(), expected.raw_xadj()));
    ASSERT_TRUE(std::ranges::equal(actual.raw_adjncy(), expected.raw_adjncy()));
    ASSERT_EQ(testing::arc_weights(actual), testing::arc_weights(expected));
    ASSERT_TRUE(std::ranges::equal(actual.raw_vwgt(), expected.raw_vwgt()));
    ASSERT_EQ(actual.memory_footprint_bytes(), expected.memory_footprint_bytes());
  }
}

TEST(GraphBuilder, BuildsSimpleTriangle) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(g.degree(u), 2u);
  }
  g.validate();
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder builder(2);
  builder.add_edge(0, 0);
  builder.add_edge(1, 1);
  builder.add_edge(0, 1);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, MergesParallelEdgesSummingWeights) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 3);
  builder.add_edge(1, 0, 4); // reversed direction, same edge
  builder.add_edge(0, 1, 5);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.total_edge_weight(), 12);
  EXPECT_EQ(g.incident_weights(0)[0], 12);
  EXPECT_EQ(g.incident_weights(1)[0], 12);
}

TEST(GraphBuilder, AdjacencyIsSorted) {
  GraphBuilder builder(5);
  builder.add_edge(2, 4);
  builder.add_edge(2, 0);
  builder.add_edge(2, 3);
  builder.add_edge(2, 1);
  const CsrGraph g = std::move(builder).build();
  const auto neigh = g.neighbors(2);
  ASSERT_EQ(neigh.size(), 4u);
  EXPECT_TRUE(std::is_sorted(neigh.begin(), neigh.end()));
}

TEST(GraphBuilder, NodeWeightsDefaultToOne) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.total_node_weight(), 4);
  EXPECT_TRUE(g.is_unit_weighted());
}

TEST(GraphBuilder, CustomNodeWeights) {
  GraphBuilder builder(3);
  builder.set_node_weight(0, 5);
  builder.set_node_weight(2, 7);
  builder.add_edge(0, 1);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.node_weight(0), 5);
  EXPECT_EQ(g.node_weight(1), 1);
  EXPECT_EQ(g.node_weight(2), 7);
  EXPECT_EQ(g.total_node_weight(), 13);
  EXPECT_FALSE(g.is_unit_weighted());
}

TEST(GraphBuilder, IsolatedNodesSurvive) {
  GraphBuilder builder(10);
  builder.add_edge(0, 1);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_nodes(), 10u);
  for (NodeId u = 2; u < 10; ++u) {
    EXPECT_EQ(g.degree(u), 0u);
  }
  g.validate();
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder builder(3);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(GraphBuilderDeath, RejectsOutOfRangeEndpoint) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.add_edge(0, 2), "out of range");
}

TEST(GraphBuilderDeath, RejectsNonPositiveWeight) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.add_edge(0, 1, 0), "positive");
}

TEST(TestSupport, CliqueChainShape) {
  const CsrGraph g = testing::clique_chain(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  // 4 cliques of C(5,2)=10 edges plus 3 bridges.
  EXPECT_EQ(g.num_edges(), 43u);
  g.validate();
}

TEST(TestSupport, TwoCliquesBridgeHasSingleBridge) {
  const CsrGraph g = testing::two_cliques_bridge(6);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 2u * 15u + 1u);
}

} // namespace
} // namespace oms
