#include "oms/multilevel/recursive_multisection.hpp"

#include <gtest/gtest.h>

#include "oms/graph/generators.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/multilevel/block_swap.hpp"
#include "oms/partition/metrics.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

TEST(BlockGraph, AggregatesCommunicationVolumes) {
  const CsrGraph g = testing::two_cliques_bridge(4);
  // Blocks: clique A -> 0, clique B -> 1.
  std::vector<BlockId> partition(8);
  for (NodeId u = 0; u < 8; ++u) {
    partition[u] = u < 4 ? 0 : 1;
  }
  const BlockGraph bg = BlockGraph::build(g, partition, 2);
  ASSERT_EQ(bg.adjacency[0].size(), 1u);
  EXPECT_EQ(bg.adjacency[0][0].first, 1);
  EXPECT_EQ(bg.adjacency[0][0].second, 1); // single bridge edge
}

TEST(BlockSwap, FixesAnAdversarialPermutation) {
  // Clique chain mapped so that adjacent cliques sit maximally far apart;
  // swapping must recover a hierarchy-friendly layout.
  const CsrGraph g = testing::clique_chain(4, 8);
  const SystemHierarchy topo = SystemHierarchy::parse("2:2", "1:100");
  // Adversarial: cliques 0,1 -> PEs 0,2 (different top modules), 2,3 -> 1,3.
  std::vector<BlockId> mapping(g.num_nodes());
  const BlockId adversarial[4] = {0, 2, 1, 3};
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    mapping[u] = adversarial[u / 8];
  }
  const Cost before = mapping_cost(g, topo, mapping);
  const std::size_t swaps = swap_refine_mapping(g, topo, mapping, /*seed=*/1);
  const Cost after = mapping_cost(g, topo, mapping);
  EXPECT_GT(swaps, 0u);
  EXPECT_LT(after, before);
}

TEST(BlockSwap, NeverIncreasesJ) {
  const CsrGraph g = gen::random_geometric(1000, 4);
  const SystemHierarchy topo = SystemHierarchy::parse("4:4", "1:10");
  std::vector<BlockId> mapping(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    mapping[u] = static_cast<BlockId>(u % 16);
  }
  const Cost before = mapping_cost(g, topo, mapping);
  swap_refine_mapping(g, topo, mapping, /*seed=*/1);
  EXPECT_LE(mapping_cost(g, topo, mapping), before);
}

TEST(BlockSwap, PreservesBlockContents) {
  // Swapping permutes PEs between blocks but never moves single nodes.
  const CsrGraph g = gen::barabasi_albert(500, 3, 2);
  const SystemHierarchy topo = SystemHierarchy::parse("2:4", "1:10");
  std::vector<BlockId> mapping(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    mapping[u] = static_cast<BlockId>(u % 8);
  }
  const auto sizes_before = block_weights_of(g, mapping, 8);
  swap_refine_mapping(g, topo, mapping, /*seed=*/1);
  auto sizes_after = block_weights_of(g, mapping, 8);
  std::sort(sizes_after.begin(), sizes_after.end());
  auto sorted_before = sizes_before;
  std::sort(sorted_before.begin(), sorted_before.end());
  EXPECT_EQ(sizes_after, sorted_before);
}

TEST(IntMapLite, ProducesValidBalancedMapping) {
  const CsrGraph g = gen::random_geometric(2000, 8);
  const SystemHierarchy topo = SystemHierarchy::parse("4:4:2", "1:10:100");
  IntMapConfig config;
  const IntMapResult r = offline_recursive_multisection(g, topo, config);
  verify_mapping(g, topo, r.mapping);
  EXPECT_TRUE(is_balanced(g, r.mapping, topo.num_pes(), 0.03));
}

TEST(IntMapLite, MapsCliqueChainWellOnToyHierarchy) {
  // 4 cliques on a 2x2 hierarchy: the optimal mapping keeps each clique on
  // one PE and bridged cliques in the same top-level module where possible.
  const CsrGraph g = testing::clique_chain(4, 8);
  const SystemHierarchy topo = SystemHierarchy::parse("2:2", "1:100");
  IntMapConfig config;
  const IntMapResult r = offline_recursive_multisection(g, topo, config);
  // Each clique intact on a single PE.
  for (NodeId c = 0; c < 4; ++c) {
    for (NodeId u = 1; u < 8; ++u) {
      EXPECT_EQ(r.mapping[c * 8 + u], r.mapping[c * 8]);
    }
  }
  // Cost must be near the optimum: two bridges inside modules (2 * 2 * 1),
  // one bridge across (2 * 100) -> J = 204 for the best layout.
  EXPECT_LE(mapping_cost(g, topo, r.mapping), 2 * 2 * 1 + 2 * 100);
}

TEST(IntMapLite, BeatsUnrefinedRecursiveMultisection) {
  const CsrGraph g = gen::barabasi_albert(3000, 4, 12);
  const SystemHierarchy topo = SystemHierarchy::parse("4:4:4", "1:10:100");
  IntMapConfig with_swap;
  with_swap.swap_refinement = true;
  IntMapConfig without_swap;
  without_swap.swap_refinement = false;
  const Cost with_cost =
      mapping_cost(g, topo, offline_recursive_multisection(g, topo, with_swap).mapping);
  const Cost without_cost = mapping_cost(
      g, topo, offline_recursive_multisection(g, topo, without_swap).mapping);
  EXPECT_LE(with_cost, without_cost);
}

} // namespace
} // namespace oms
