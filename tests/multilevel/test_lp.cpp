#include "oms/multilevel/label_propagation.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "oms/graph/generators.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/partition/partition_config.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

TEST(LpClustering, MergesCliques) {
  const CsrGraph g = testing::clique_chain(4, 6);
  const auto cluster = lp_clustering(g, /*max_cluster_weight=*/6, /*seed=*/1);
  // Each clique collapses to one cluster (weight cap 6 = clique size).
  for (NodeId c = 0; c < 4; ++c) {
    for (NodeId u = 1; u < 6; ++u) {
      EXPECT_EQ(cluster[c * 6 + u], cluster[c * 6]);
    }
  }
  const NodeId num_clusters = *std::max_element(cluster.begin(), cluster.end()) + 1;
  EXPECT_EQ(num_clusters, 4u);
}

TEST(LpClustering, RespectsWeightCap) {
  const CsrGraph g = gen::grid_2d(30, 30);
  const NodeWeight cap = 10;
  const auto cluster = lp_clustering(g, cap, /*seed=*/1);
  const NodeId num_clusters = *std::max_element(cluster.begin(), cluster.end()) + 1;
  std::vector<NodeWeight> weight(num_clusters, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    weight[cluster[u]] += g.node_weight(u);
  }
  for (const NodeWeight w : weight) {
    EXPECT_LE(w, cap);
  }
}

TEST(LpClustering, IdsAreDense) {
  const CsrGraph g = gen::barabasi_albert(500, 3, 4);
  const auto cluster = lp_clustering(g, 20, /*seed=*/1);
  const NodeId num_clusters = *std::max_element(cluster.begin(), cluster.end()) + 1;
  std::vector<bool> used(num_clusters, false);
  for (const NodeId c : cluster) {
    used[c] = true;
  }
  EXPECT_TRUE(std::all_of(used.begin(), used.end(), [](bool b) { return b; }));
}

TEST(LpRefinement, NeverWorsensTheCut) {
  const CsrGraph g = gen::random_geometric(2000, 6);
  // Start from a deliberately bad partition: round-robin.
  std::vector<BlockId> partition(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    partition[u] = static_cast<BlockId>(u % 8);
  }
  const Cost before = edge_cut(g, partition);
  const NodeWeight lmax = max_block_weight(g.total_node_weight(), 8, 0.03);
  lp_refinement(g, partition, 8, lmax, /*seed=*/1);
  const Cost after = edge_cut(g, partition);
  EXPECT_LE(after, before);
  EXPECT_LT(after, before / 2); // and it should actually help a lot
  EXPECT_TRUE(is_balanced(g, partition, 8, 0.03));
}

TEST(LpRefinement, FixedPointOnOptimalBisection) {
  const CsrGraph g = testing::two_cliques_bridge(10);
  std::vector<BlockId> partition(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    partition[u] = u < 10 ? 0 : 1;
  }
  const NodeWeight lmax = max_block_weight(g.total_node_weight(), 2, 0.03);
  const std::size_t moved = lp_refinement(g, partition, 2, lmax, /*seed=*/1);
  EXPECT_EQ(moved, 0u);
  EXPECT_EQ(edge_cut(g, partition), 1);
}

TEST(LpRefinement, ZeroGainTiebreakComparesPostMoveWeights) {
  // Node c is equally connected to its own block {a, c} and to {d}. Moving it
  // would leave both blocks at weight 2 — no balance gain either — so the
  // symmetric tiebreak must keep it put. The old code compared the raw
  // pre-move weights (1 < 2) and churned c across for nothing.
  GraphBuilder builder(3);
  builder.add_edge(1, 0); // c - a
  builder.add_edge(1, 2); // c - d
  const CsrGraph g = std::move(builder).build();
  std::vector<BlockId> partition = {0, 0, 1}; // a, c | d
  const std::vector<BlockId> before = partition;
  const std::size_t moved = lp_refinement(g, partition, 2, /*max_block_weight=*/2, /*seed=*/1);
  EXPECT_EQ(moved, 0u);
  EXPECT_EQ(partition, before);

  // With an extra anchor in block 0 the move is a genuine balance win
  // (post-move 2 < post-stay 3) and must happen.
  GraphBuilder heavier(4);
  heavier.add_edge(2, 0);  // c - a
  heavier.add_edge(2, 3);  // c - d
  heavier.add_edge(0, 1);  // a - b keeps a anchored afterwards
  const CsrGraph g2 = std::move(heavier).build();
  std::vector<BlockId> partition2 = {0, 0, 0, 1}; // a, b, c | d
  lp_refinement(g2, partition2, 2, /*max_block_weight=*/3, /*seed=*/1);
  EXPECT_EQ(partition2[2], 1) << "zero-gain move towards the lighter block";
  EXPECT_EQ(edge_cut(g2, partition2), 1);
}

TEST(Rebalance, EnforcesTheConstraint) {
  const CsrGraph g = gen::barabasi_albert(1000, 3, 8);
  // Everything in block 0: grossly unbalanced.
  std::vector<BlockId> partition(g.num_nodes(), 0);
  const NodeWeight lmax = max_block_weight(g.total_node_weight(), 4, 0.03);
  rebalance(g, partition, 4, lmax);
  EXPECT_TRUE(is_balanced(g, partition, 4, 0.03));
}

TEST(Rebalance, NoOpWhenAlreadyBalanced) {
  const CsrGraph g = testing::path_graph(16);
  std::vector<BlockId> partition(16);
  for (NodeId u = 0; u < 16; ++u) {
    partition[u] = static_cast<BlockId>(u / 4);
  }
  const std::vector<BlockId> before = partition;
  rebalance(g, partition, 4, max_block_weight(16, 4, 0.03));
  EXPECT_EQ(partition, before);
}

} // namespace
} // namespace oms
