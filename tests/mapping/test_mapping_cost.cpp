#include "oms/mapping/mapping_cost.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "oms/graph/generators.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

TEST(MappingCost, ToyExampleByHand) {
  // Path 0-1-2 on a 2x2 hierarchy (4 PEs, d1=1, d2=10).
  const CsrGraph g = testing::path_graph(3);
  const SystemHierarchy h = SystemHierarchy::parse("2:2", "1:10");
  // 0,1 on the same processor (PEs 0,1); 2 across the top level (PE 2).
  // J = 2 * [C_01 * 1 + C_12 * 10] = 2 * 11 (ordered-pair convention).
  EXPECT_EQ(mapping_cost(g, h, std::vector<BlockId>{0, 1, 2}), 22);
}

TEST(MappingCost, SamePEPairsAreFree) {
  const CsrGraph g = testing::complete_graph(4);
  const SystemHierarchy h = SystemHierarchy::parse("4", "3");
  EXPECT_EQ(mapping_cost(g, h, std::vector<BlockId>{0, 0, 0, 0}), 0);
}

TEST(MappingCost, UsesEdgeWeightsAsCommunicationVolume) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 7);
  const CsrGraph g = std::move(builder).build();
  const SystemHierarchy h = SystemHierarchy::parse("2:2", "1:10");
  EXPECT_EQ(mapping_cost(g, h, std::vector<BlockId>{0, 3}), 2 * 7 * 10);
  EXPECT_EQ(mapping_cost(g, h, std::vector<BlockId>{0, 1}), 2 * 7 * 1);
}

TEST(MappingCost, ParallelMatchesSequential) {
  const CsrGraph g = gen::barabasi_albert(3000, 4, 7);
  const SystemHierarchy h = SystemHierarchy::parse("4:16:2", "1:10:100");
  Rng rng(5);
  std::vector<BlockId> mapping(g.num_nodes());
  for (auto& pe : mapping) {
    pe = static_cast<BlockId>(rng.next_below(static_cast<std::uint64_t>(h.num_pes())));
  }
  const Cost seq = mapping_cost(g, h, mapping, 1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(mapping_cost(g, h, mapping, threads), seq);
  }
  // Fewer nodes than threads, and no nodes at all.
  EXPECT_EQ(mapping_cost(testing::path_graph(3), SystemHierarchy::parse("2:2", "1:10"),
                         std::vector<BlockId>{0, 1, 2}, 8),
            22);
  EXPECT_EQ(mapping_cost(testing::path_graph(0), h, std::vector<BlockId>{}, 8), 0);
}

TEST(MappingCost, HierarchyAwarePlacementBeatsScattered) {
  // Two cliques: placing each inside one node must beat splitting them
  // across nodes.
  const CsrGraph g = testing::two_cliques_bridge(8);
  const SystemHierarchy h = SystemHierarchy::parse("8:2", "1:100");
  std::vector<BlockId> together(16);
  std::vector<BlockId> scattered(16);
  for (NodeId u = 0; u < 16; ++u) {
    together[u] = static_cast<BlockId>(u < 8 ? u : 8 + (u - 8)); // clique per node
    scattered[u] = static_cast<BlockId>((u % 2 == 0) ? u / 2 : 8 + u / 2);
  }
  EXPECT_LT(mapping_cost(g, h, together), mapping_cost(g, h, scattered));
}

TEST(PerLevelVolume, DecomposesTotalCommunication) {
  const CsrGraph g = gen::random_geometric(500, 9);
  const SystemHierarchy h = SystemHierarchy::parse("4:4", "1:10");
  Rng rng(3);
  std::vector<BlockId> mapping(g.num_nodes());
  for (auto& pe : mapping) {
    pe = static_cast<BlockId>(rng.next_below(16));
  }
  const auto volume = per_level_volume(g, h, mapping);
  ASSERT_EQ(volume.size(), 3u);
  // Total ordered-pair volume = 2m for unit weights.
  EXPECT_EQ(std::accumulate(volume.begin(), volume.end(), Cost{0}),
            static_cast<Cost>(g.num_arcs()));
  // And J equals the distance-weighted combination.
  EXPECT_EQ(mapping_cost(g, h, mapping), volume[1] * 1 + volume[2] * 10);
}

TEST(VerifyMappingDeath, RejectsOutOfRangePe) {
  const CsrGraph g = testing::path_graph(2);
  const SystemHierarchy h = SystemHierarchy::parse("2:2", "1:10");
  EXPECT_DEATH(verify_mapping(g, h, std::vector<BlockId>{0, 4}), "outside");
}

} // namespace
} // namespace oms
