#include "oms/multilevel/contraction.hpp"

#include <gtest/gtest.h>

#include "oms/graph/generators.hpp"
#include "oms/multilevel/label_propagation.hpp"
#include "oms/partition/metrics.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

TEST(Contract, PreservesTotalNodeWeight) {
  const CsrGraph g = gen::grid_2d(20, 20);
  const auto cluster = lp_clustering(g, 8, /*seed=*/1);
  const Contraction c = contract(g, cluster);
  EXPECT_EQ(c.coarse.total_node_weight(), g.total_node_weight());
  EXPECT_LT(c.coarse.num_nodes(), g.num_nodes());
}

TEST(Contract, CoarseEdgeWeightsEqualCrossClusterFineWeights) {
  // Two triangles joined by two parallel-ish paths.
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  builder.add_edge(3, 5);
  builder.add_edge(2, 3, 5);
  builder.add_edge(0, 5, 7);
  const CsrGraph g = std::move(builder).build();
  const std::vector<NodeId> cluster{0, 0, 0, 1, 1, 1};
  const Contraction c = contract(g, cluster);
  EXPECT_EQ(c.coarse.num_nodes(), 2u);
  EXPECT_EQ(c.coarse.num_edges(), 1u);
  EXPECT_EQ(c.coarse.total_edge_weight(), 12); // 5 + 7 merged
  EXPECT_EQ(c.coarse.node_weight(0), 3);
  EXPECT_EQ(c.coarse.node_weight(1), 3);
}

TEST(Contract, CutIsPreservedUnderProjection) {
  // The edge-cut of a coarse partition equals the cut of its projection.
  const CsrGraph g = gen::random_geometric(1500, 12);
  const auto cluster = lp_clustering(g, 6, /*seed=*/1);
  const Contraction c = contract(g, cluster);

  std::vector<BlockId> coarse_partition(c.coarse.num_nodes());
  for (NodeId u = 0; u < c.coarse.num_nodes(); ++u) {
    coarse_partition[u] = static_cast<BlockId>(u % 4);
  }
  const auto fine_partition = project_partition(c.fine_to_coarse, coarse_partition);
  EXPECT_EQ(edge_cut(c.coarse, coarse_partition), edge_cut(g, fine_partition));
}

TEST(InducedSubgraph, ExtractsCliqueExactly) {
  const CsrGraph g = testing::clique_chain(3, 5);
  std::vector<NodeId> first_clique{0, 1, 2, 3, 4};
  const InducedSubgraph sub = induced_subgraph(g, first_clique);
  EXPECT_EQ(sub.graph.num_nodes(), 5u);
  EXPECT_EQ(sub.graph.num_edges(), 10u); // C(5,2)
  EXPECT_EQ(sub.to_parent, first_clique);
}

TEST(InducedSubgraph, DropsEdgesLeavingTheSubset) {
  const CsrGraph g = testing::path_graph(10);
  const InducedSubgraph sub = induced_subgraph(g, {2, 3, 4, 8});
  // Path edges inside subset: (2,3), (3,4); node 8's neighbors are outside.
  EXPECT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_EQ(sub.graph.degree(3), 0u); // local id 3 = original node 8
}

TEST(InducedSubgraph, PreservesWeights) {
  GraphBuilder builder(4);
  builder.set_node_weight(1, 9);
  builder.add_edge(0, 1, 4);
  builder.add_edge(1, 2, 6);
  const CsrGraph g = std::move(builder).build();
  const InducedSubgraph sub = induced_subgraph(g, {0, 1});
  EXPECT_EQ(sub.graph.node_weight(1), 9);
  EXPECT_EQ(sub.graph.total_edge_weight(), 4);
}

TEST(InducedSubgraphDeath, RejectsDuplicateNodes) {
  const CsrGraph g = testing::path_graph(4);
  EXPECT_DEATH((void)induced_subgraph(g, {0, 0}), "duplicate");
}

} // namespace
} // namespace oms
