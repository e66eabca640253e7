#include "oms/partition/restream.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

PartitionConfig config_for(BlockId k) {
  PartitionConfig pc;
  pc.k = k;
  pc.epsilon = 0.03;
  return pc;
}

// Assigner factories: each returns a callable building a fresh assigner for
// a graph, so one test body runs ReFennel, ReLDG and OMS remapping alike
// (test_remapping covers the OMS-only properties).

auto fennel(BlockId k) {
  return [k](const CsrGraph& g) {
    return std::make_unique<FennelPartitioner>(g.num_nodes(), g.num_edges(),
                                               g.total_node_weight(), config_for(k));
  };
}

auto ldg(BlockId k) {
  return [k](const CsrGraph& g) {
    return std::make_unique<LdgPartitioner>(g.num_nodes(), g.total_node_weight(),
                                            config_for(k));
  };
}

auto oms(const std::string& hierarchy, const std::string& distances) {
  return [=](const CsrGraph& g) {
    return std::make_unique<OnlineMultisection>(
        g.num_nodes(), g.num_edges(), g.total_node_weight(),
        SystemHierarchy::parse(hierarchy, distances), OmsConfig{});
  };
}

template <typename Make>
void expect_one_cut_per_pass(const CsrGraph& g, const Make& make, int passes) {
  auto assigner = make(g);
  const BlockId k = assigner->num_blocks();
  const RestreamResult r = restream(g, *assigner, passes);
  EXPECT_EQ(r.cut_per_pass.size(), static_cast<std::size_t>(passes));
  verify_partition(g, r.assignment, k);
  EXPECT_EQ(edge_cut(g, r.assignment), r.cut_per_pass.back());
}

TEST(Restream, RecordsOneCutPerPassEndingAtTheResult) {
  expect_one_cut_per_pass(gen::random_geometric(1000, 3), fennel(8), 4);
  expect_one_cut_per_pass(gen::barabasi_albert(800, 3, 9), fennel(6), 3);
  expect_one_cut_per_pass(gen::random_geometric(1000, 5), ldg(8), 3);
}

TEST(Restream, LaterPassesRefineTheCutOnLocalityFriendlyGraphs) {
  const CsrGraph g = gen::grid_2d(40, 40);
  auto re_fennel = fennel(4)(g);
  const RestreamResult flat = restream(g, *re_fennel, 5);
  EXPECT_LE(flat.cut_per_pass.back(), flat.cut_per_pass.front());
}

TEST(Restream, StaysBalancedAcrossPasses) {
  const CsrGraph rgg = gen::random_geometric(2000, 13);
  auto re_fennel = fennel(16)(rgg);
  EXPECT_TRUE(is_balanced(rgg, restream(rgg, *re_fennel, 3).assignment, 16, 0.03));
}

template <typename Make>
void expect_one_pass_equals_plain_streaming(const CsrGraph& g, const Make& make) {
  auto re = make(g);
  auto plain = make(g);
  EXPECT_EQ(restream(g, *re, 1).assignment, run_one_pass(g, *plain, 1).assignment);
}

TEST(Restream, OnePassEqualsPlainStreaming) {
  expect_one_pass_equals_plain_streaming(gen::rmat(10, 4, 2), fennel(8));
  expect_one_pass_equals_plain_streaming(gen::rmat(10, 4, 3), ldg(8));
}

// Restream goldens, recorded from the dense-scan implementation: a stale
// block-selection structure after unassign() would change later passes
// while "cut does not worsen" could still pass by luck.
TEST(ReFennel, ThreePassGolden) {
  const CsrGraph g = gen::barabasi_albert(3000, 4, 21);
  auto p = fennel(64)(g);
  EXPECT_EQ(testing::fnv1a(restream(g, *p, 3).assignment), 0x7b015b1eac70c35fULL);
}

TEST(ReLdg, ThreePassGolden) {
  const CsrGraph g = gen::random_geometric(3000, 17);
  auto p = ldg(48)(g);
  EXPECT_EQ(testing::fnv1a(restream(g, *p, 3).assignment), 0xa8c2cb0a9962fefaULL);
}

/// Restream \p passes passes, but snapshot the assigner after \p stop_at
/// node steps (counted across passes), continue in a fresh instance restored
/// from that snapshot, and return the final assignment.
template <typename Make>
std::vector<BlockId> restream_resumed_at(const CsrGraph& g, const Make& make,
                                         int passes, std::uint64_t stop_at) {
  auto a = make(g);
  a->prepare(1);
  WorkCounters counters;
  std::uint64_t step = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (NodeId u = 0; u < g.num_nodes(); ++u, ++step) {
      if (step == stop_at) {
        CheckpointWriter w;
        EXPECT_TRUE(a->save_stream_state(w));
        a = make(g);
        a->prepare(1);
        CheckpointReader r(w.bytes());
        EXPECT_TRUE(a->load_stream_state(r));
        r.expect_end();
      }
      if (pass > 0) {
        a->unassign(u, g.node_weight(u));
      }
      const StreamedNode node{u, g.node_weight(u), g.neighbors(u),
                              g.incident_weights(u)};
      a->assign(node, 0, counters);
    }
  }
  return a->take_assignment();
}

template <typename Make>
void expect_resume_is_bit_identical(const CsrGraph& g, const Make& make) {
  auto uninterrupted = make(g);
  const std::vector<BlockId> expected = restream(g, *uninterrupted, 3).assignment;
  const std::uint64_t n = g.num_nodes();
  for (const std::uint64_t stop : {n / 3, n, n + n / 2, 2 * n + 7}) {
    EXPECT_EQ(restream_resumed_at(g, make, 3, stop), expected) << "stop_at=" << stop;
  }
}

TEST(Restream, ResumeMidRestreamIsBitIdentical) {
  expect_resume_is_bit_identical(gen::barabasi_albert(1500, 4, 8), fennel(40));
  expect_resume_is_bit_identical(gen::random_geometric(1500, 9), ldg(40));
  expect_resume_is_bit_identical(gen::random_geometric(1500, 9),
                                 oms("4:16:2", "1:10:100"));
}

} // namespace
} // namespace oms
