/// Property suite: every generator family round-trips losslessly through
/// the METIS format, and the disk stream delivers exactly the
/// in-memory adjacency — the contract the disk-streaming experiments rely on.
#include <gtest/gtest.h>

#include <cstdio>

#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/stream/metis_stream.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

CsrGraph make_family_instance(int family) {
  // Randomized families draw their seed from the shared test seed so the
  // property holds over fresh instances when OMS_TEST_SEED is varied.
  const std::uint64_t seed = oms::testing::draw_seed(static_cast<std::uint64_t>(family));
  switch (family) {
    case 0: return gen::grid_2d(17, 23);
    case 1: return gen::grid_3d(6, 7, 8);
    case 2: return gen::random_geometric(900, seed);
    case 3: return gen::delaunay(700, seed);
    case 4: return gen::barabasi_albert(800, 3, seed);
    case 5: return gen::rmat(9, 4, seed);
    case 6: return gen::erdos_renyi(600, 2000, seed);
    case 7: return gen::watts_strogatz(500, 4, 0.15, seed);
    default: return gen::road_network(25, 25, seed);
  }
}

class IoRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(IoRoundTrip, MetisPreservesEverything) {
  SCOPED_TRACE("OMS_TEST_SEED=" + std::to_string(oms::testing::test_seed()));
  const CsrGraph original = make_family_instance(GetParam());
  const std::string base = ::testing::TempDir() + "/oms_rt_" +
                           std::to_string(GetParam());

  write_metis(original, base + ".graph");
  const CsrGraph loaded = read_metis(base + ".graph");
  ASSERT_EQ(loaded.num_nodes(), original.num_nodes());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  EXPECT_EQ(loaded.total_edge_weight(), original.total_edge_weight());
  EXPECT_EQ(loaded.total_node_weight(), original.total_node_weight());
  for (NodeId u = 0; u < original.num_nodes(); ++u) {
    ASSERT_EQ(loaded.degree(u), original.degree(u)) << u;
    const auto expect = original.neighbors(u);
    const auto actual = loaded.neighbors(u);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(actual[i], expect[i]);
    }
  }
  loaded.validate();

  // The node stream must deliver the same adjacency, node by node.
  MetisNodeStream stream(base + ".graph");
  StreamedNode node{};
  while (stream.next(node)) {
    const auto expect = original.neighbors(node.id);
    ASSERT_EQ(node.neighbors.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(node.neighbors[i], expect[i]);
    }
  }

  std::remove((base + ".graph").c_str());
}

std::string family_name(const ::testing::TestParamInfo<int>& param_info) {
  static constexpr const char* kNames[] = {"grid2d", "grid3d", "rgg",
                                           "delaunay", "ba", "rmat", "er",
                                           "ws", "roads"};
  return kNames[param_info.param];
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, IoRoundTrip, ::testing::Range(0, 9),
                         family_name);

} // namespace
} // namespace oms
