/// Property suite: every generator family round-trips losslessly through
/// the METIS format, and the disk stream delivers exactly the
/// in-memory adjacency — the contract the disk-streaming experiments rely on.
///
/// Differential part: read_metis keeps canonical rows as the CSR and sends
/// every other file through GraphBuilder. Either way the result must be the
/// graph GraphBuilder assembles from the same rows, fed each edge from its
/// lower endpoint: all four arrays and their capacities.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/graph/io.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/util/random.hpp"
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

/// GraphBuilder over the edges each row lists towards a higher id.
CsrGraph builder_reference(const std::string& path) {
  MetisNodeStream stream(path);
  const MetisHeader header = stream.header();
  GraphBuilder builder(header.num_nodes);
  StreamedNode node{};
  while (stream.next(node)) {
    if (header.has_node_weights) {
      builder.set_node_weight(node.id, node.weight);
    }
    for (std::size_t i = 0; i < node.neighbors.size(); ++i) {
      if (node.id < node.neighbors[i]) {
        builder.add_edge(node.id, node.neighbors[i], node.edge_weights[i]);
      }
    }
  }
  return std::move(builder).build();
}

void expect_identical(const CsrGraph& actual, const CsrGraph& expected) {
  const auto as_vector = [](auto span) { return std::vector(span.begin(), span.end()); };
  EXPECT_EQ(as_vector(actual.raw_xadj()), as_vector(expected.raw_xadj()));
  EXPECT_EQ(as_vector(actual.raw_adjncy()), as_vector(expected.raw_adjncy()));
  EXPECT_EQ(as_vector(actual.raw_adjwgt()), as_vector(expected.raw_adjwgt()));
  EXPECT_EQ(as_vector(actual.raw_vwgt()), as_vector(expected.raw_vwgt()));
  EXPECT_EQ(actual.memory_footprint_bytes(), expected.memory_footprint_bytes());
}

/// \p g with random node weights in [0, 9] and/or edge weights in [1, 9].
CsrGraph reweighted(const CsrGraph& g, bool node_weights, bool edge_weights,
                    Rng& rng) {
  GraphBuilder builder(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (node_weights) {
      builder.set_node_weight(u, static_cast<NodeWeight>(rng.next_below(10)));
    }
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) {
        builder.add_edge(u, v, edge_weights ? 1 + static_cast<EdgeWeight>(rng.next_below(9)) : 1);
      }
    }
  }
  return std::move(builder).build();
}

TEST_P(IoRoundTrip, ReadMetisMatchesBuilderForEveryWeightKind) {
  const CsrGraph base = make_family_instance(GetParam());
  Rng rng(oms::testing::draw_seed(100 + static_cast<std::uint64_t>(GetParam())));
  const std::string path = ::testing::TempDir() + "/oms_rt_weights_" +
                           std::to_string(GetParam()) + ".graph";
  for (const int kind : {0, 1, 2, 3}) { // unit, edge, node, both
    SCOPED_TRACE("OMS_TEST_SEED=" + std::to_string(oms::testing::test_seed()) +
                 " weight kind " + std::to_string(kind));
    const CsrGraph g = reweighted(base, kind >= 2, kind % 2 == 1, rng);
    write_metis(g, path);
    const CsrGraph loaded = read_metis(path);
    expect_identical(loaded, builder_reference(path));
    expect_identical(loaded, g);
  }
  std::remove(path.c_str());
}

TEST(ReadMetisDifferential, NonCanonicalRowsGoThroughTheBuilder) {
  // One file per reason the rows cannot be the CSR as parsed; GraphBuilder
  // sorts, sums, drops and symmetrizes them into the same graph as before.
  struct Case {
    const char* why;
    const char* content;
  };
  constexpr Case kCases[] = {
      {"unsorted row", "3 2\n3 2\n1\n1\n"},
      {"duplicate neighbour", "2 1 1\n2 3 2 4\n1 7\n"},
      {"self-loop", "2 1\n1 2\n1\n"},
      {"missing reverse arc", "3 2\n2 3\n1\n\n"},
      {"arcs to lower ids not listed back", "3 1\n2\n1\n1 2\n"},
      {"reverse arc with another weight", "2 1 11\n4 2 5\n3 1 7\n"},
  };
  const std::string path = ::testing::TempDir() + "/oms_rt_fallback.graph";
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.why);
    {
      std::ofstream out(path);
      out << c.content;
    }
    expect_identical(read_metis(path), builder_reference(path));
  }
  std::remove(path.c_str());
}

TEST(ReadMetisDifferential, FifoInputMatchesBuilder) {
  // A pipe has no size, so its arc arrays get no reserve and grow; the
  // result must still have capacity == size.
  SCOPED_TRACE("OMS_TEST_SEED=" + std::to_string(oms::testing::test_seed()));
  const CsrGraph g = gen::random_geometric(700, oms::testing::draw_seed(99));
  const std::string path = ::testing::TempDir() + "/oms_rt_fifo_reference.graph";
  const std::string fifo = ::testing::TempDir() + "/oms_rt_differential.fifo";
  write_metis(g, path);
  std::string content;
  {
    std::ifstream in(path);
    content.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] { std::ofstream(fifo) << content; });
  const CsrGraph loaded = read_metis(fifo);
  writer.join();
  expect_identical(loaded, builder_reference(path));
  std::remove(path.c_str());
  std::remove(fifo.c_str());
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
