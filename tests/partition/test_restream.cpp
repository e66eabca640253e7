#include "oms/partition/restream.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "oms/graph/generators.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/checkpoint.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

PartitionConfig config_for(BlockId k) {
  PartitionConfig pc;
  pc.k = k;
  pc.epsilon = 0.03;
  return pc;
}

TEST(ReFennel, RecordsOneCutPerPass) {
  const CsrGraph g = gen::random_geometric(1000, 3);
  ReFennelPartitioner p(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                        config_for(8));
  const RestreamResult r = restream(g, p, 4);
  EXPECT_EQ(r.cut_per_pass.size(), 4u);
  verify_partition(g, r.assignment, 8);
}

TEST(ReFennel, RestreamingDoesNotWorsenTheCut) {
  // On locality-friendly graphs additional passes refine the first pass.
  const CsrGraph g = gen::grid_2d(40, 40);
  ReFennelPartitioner p(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                        config_for(4));
  const RestreamResult r = restream(g, p, 5);
  EXPECT_LE(r.cut_per_pass.back(), r.cut_per_pass.front());
}

TEST(ReFennel, FinalAssignmentMatchesLastPassCut) {
  const CsrGraph g = gen::barabasi_albert(800, 3, 9);
  ReFennelPartitioner p(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                        config_for(6));
  const RestreamResult r = restream(g, p, 3);
  EXPECT_EQ(edge_cut(g, r.assignment), r.cut_per_pass.back());
}

TEST(ReFennel, StaysBalancedAcrossPasses) {
  const CsrGraph g = gen::random_geometric(2000, 13);
  ReFennelPartitioner p(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                        config_for(16));
  const RestreamResult r = restream(g, p, 3);
  EXPECT_TRUE(is_balanced(g, r.assignment, 16, 0.03));
}

TEST(ReFennel, OnePassEqualsPlainFennel) {
  const CsrGraph g = gen::rmat(10, 4, 2);
  ReFennelPartitioner re(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                         config_for(8));
  const RestreamResult r = restream(g, re, 1);
  FennelPartitioner plain(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                          config_for(8));
  const StreamResult s = run_one_pass(g, plain, 1);
  EXPECT_EQ(r.assignment, s.assignment);
}

// Restream goldens, recorded from the dense-scan implementation: a stale
// block-selection structure after unassign() would change later passes
// while "cut does not worsen" could still pass by luck.
TEST(ReFennel, ThreePassGolden) {
  const CsrGraph g = gen::barabasi_albert(3000, 4, 21);
  ReFennelPartitioner p(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                        config_for(64));
  EXPECT_EQ(testing::fnv1a(restream(g, p, 3).assignment), 0x7b015b1eac70c35fULL);
}

TEST(ReLdg, ThreePassGolden) {
  const CsrGraph g = gen::random_geometric(3000, 17);
  ReLdgPartitioner p(g.num_nodes(), g.total_node_weight(), config_for(48));
  EXPECT_EQ(testing::fnv1a(restream(g, p, 3).assignment), 0xa8c2cb0a9962fefaULL);
}

using AssignerFactory = std::function<std::unique_ptr<RestreamableAssigner>()>;

/// Restream \p passes passes, but snapshot the assigner after \p stop_at
/// node steps (counted across passes), continue in a fresh instance restored
/// from that snapshot, and return the final assignment.
std::vector<BlockId> restream_resumed_at(const CsrGraph& g, const AssignerFactory& make,
                                         int passes, std::uint64_t stop_at) {
  std::unique_ptr<RestreamableAssigner> a = make();
  a->prepare(1);
  WorkCounters counters;
  std::uint64_t step = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (NodeId u = 0; u < g.num_nodes(); ++u, ++step) {
      if (step == stop_at) {
        CheckpointWriter w;
        EXPECT_TRUE(a->save_stream_state(w));
        a = make();
        a->prepare(1);
        CheckpointReader r(w.bytes());
        EXPECT_TRUE(a->load_stream_state(r));
        r.expect_end();
      }
      if (pass > 0) {
        a->unassign_node(u, g.node_weight(u));
      }
      const StreamedNode node{u, g.node_weight(u), g.neighbors(u),
                              g.incident_weights(u)};
      a->assign(node, 0, counters);
    }
  }
  return a->take_assignment();
}

void expect_resume_is_bit_identical(const CsrGraph& g, const AssignerFactory& make) {
  auto uninterrupted = make();
  const std::vector<BlockId> expected = restream(g, *uninterrupted, 3).assignment;
  const std::uint64_t n = g.num_nodes();
  for (const std::uint64_t stop : {n / 3, n, n + n / 2, 2 * n + 7}) {
    EXPECT_EQ(restream_resumed_at(g, make, 3, stop), expected) << "stop_at=" << stop;
  }
}

TEST(ReFennel, ResumeMidRestreamIsBitIdentical) {
  const CsrGraph g = gen::barabasi_albert(1500, 4, 8);
  expect_resume_is_bit_identical(g, [&] {
    return std::make_unique<ReFennelPartitioner>(g.num_nodes(), g.num_edges(),
                                                 g.total_node_weight(), config_for(40));
  });
}

TEST(ReLdg, ResumeMidRestreamIsBitIdentical) {
  const CsrGraph g = gen::random_geometric(1500, 9);
  expect_resume_is_bit_identical(g, [&] {
    return std::make_unique<ReLdgPartitioner>(g.num_nodes(), g.total_node_weight(),
                                              config_for(40));
  });
}

} // namespace
} // namespace oms
