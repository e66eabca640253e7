#include "oms/partition/fennel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oms/graph/generators.hpp"
#include "oms/partition/hashing.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

PartitionConfig config_for(BlockId k, double eps = 0.03) {
  PartitionConfig pc;
  pc.k = k;
  pc.epsilon = eps;
  return pc;
}

TEST(FennelParams, AlphaMatchesPaperFormula) {
  // alpha = sqrt(k) * m / n^(3/2).
  const auto params = FennelParams::standard(/*n=*/1000, /*m=*/5000, /*k=*/16);
  const double expected = std::sqrt(16.0) * 5000.0 / std::pow(1000.0, 1.5);
  EXPECT_DOUBLE_EQ(params.alpha, expected);
  EXPECT_DOUBLE_EQ(params.gamma, 1.5);
}

TEST(FennelParams, PenaltyIsMonotoneAndConvex) {
  const double alpha = 0.5;
  double prev_penalty = fennel_penalty(alpha, 1.5, 0);
  double prev_delta = 0.0;
  for (NodeWeight w = 1; w <= 100; ++w) {
    const double penalty = fennel_penalty(alpha, 1.5, w);
    EXPECT_GE(penalty, prev_penalty);
    if (w > 1) {
      // gamma = 1.5 => marginal penalty shrinks (concave sqrt growth).
      EXPECT_LE(penalty - prev_penalty, prev_delta + 1e-12);
    }
    prev_delta = penalty - prev_penalty;
    prev_penalty = penalty;
  }
}

TEST(FennelParams, GammaTwoMatchesLinearPenalty) {
  // gamma = 2 => f'(w) = 2 alpha w, the "repulsion from non-neighbors" end
  // of the interpolation.
  EXPECT_DOUBLE_EQ(fennel_penalty(0.25, 2.0, 10), 0.25 * 2.0 * 10.0);
}

TEST(Fennel, KeepsCliquesTogetherWithCalibratedAlpha) {
  // The standard alpha = sqrt(k) m / n^(3/2) is calibrated for sparse
  // graphs; on a 16-node double-clique it overwhelms the attraction term.
  // Pick alpha in the window where (a) a single assigned neighbor beats an
  // empty block (alpha * 1.5 < 1) and (b) a full clique repels the bridge
  // node (alpha * 1.5 * sqrt(8) > 1): the optimal cut of 1 then emerges.
  const CsrGraph g = testing::two_cliques_bridge(8);
  FennelParams params;
  params.alpha = 0.3;
  FennelPartitioner p(g.num_nodes(), g.total_node_weight(), config_for(2), params);
  const StreamResult r = run_one_pass(g, p, 1);
  EXPECT_EQ(edge_cut(g, r.assignment), 1);
  EXPECT_TRUE(is_balanced(g, r.assignment, 2, 0.03));
}

TEST(Fennel, FirstNodeGoesToEmptyBlockAndNeighborsFollow) {
  const CsrGraph g = testing::clique_chain(2, 6);
  FennelParams params;
  params.alpha = 0.35; // see KeepsCliquesTogetherWithCalibratedAlpha
  FennelPartitioner p(g.num_nodes(), g.total_node_weight(), config_for(2), params);
  const StreamResult r = run_one_pass(g, p, 1);
  // Each clique must be internally contiguous.
  for (NodeId u = 1; u < 6; ++u) {
    EXPECT_EQ(r.assignment[u], r.assignment[0]);
  }
  for (NodeId u = 7; u < 12; ++u) {
    EXPECT_EQ(r.assignment[u], r.assignment[6]);
  }
}

TEST(Fennel, BalancedAcrossKSweep) {
  const CsrGraph g = gen::rmat(12, 6, 17);
  for (const BlockId k : {2, 3, 5, 16, 63, 128, 500}) {
    FennelPartitioner p(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                        config_for(k));
    const StreamResult r = run_one_pass(g, p, 1);
    verify_partition(g, r.assignment, k);
    EXPECT_TRUE(is_balanced(g, r.assignment, k, 0.03)) << "k=" << k;
  }
}

TEST(Fennel, CutsFewerEdgesThanHashing) {
  const CsrGraph g = gen::random_geometric(5000, 23);
  const PartitionConfig pc = config_for(32);
  FennelPartitioner fennel(g.num_nodes(), g.num_edges(), g.total_node_weight(), pc);
  HashingPartitioner hashing(g.num_nodes(), g.total_node_weight(), pc);
  const Cost fennel_cut = edge_cut(g, run_one_pass(g, fennel, 1).assignment);
  const Cost hash_cut = edge_cut(g, run_one_pass(g, hashing, 1).assignment);
  EXPECT_LT(fennel_cut * 2, hash_cut);
}

TEST(Fennel, WorkIsLinearInMPlusNK) {
  const CsrGraph g = gen::barabasi_albert(2000, 4, 3);
  const BlockId k = 128;
  FennelPartitioner p(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                      config_for(k));
  const StreamResult r = run_one_pass(g, p, 1);
  EXPECT_EQ(r.work.neighbor_visits, g.num_arcs());
  EXPECT_EQ(r.work.score_evaluations,
            static_cast<std::uint64_t>(g.num_nodes()) * static_cast<std::uint64_t>(k));
  // The measured count of the exact sequential selection: the attracted
  // blocks (at most the degree) plus the min-load root, per node.
  EXPECT_LE(r.work.candidate_evaluations,
            static_cast<std::uint64_t>(g.num_nodes()) + 2 * g.num_edges());
  EXPECT_GT(r.work.candidate_evaluations, static_cast<std::uint64_t>(g.num_nodes()));
}

TEST(Fennel, ExplicitParamsOverrideStandardAlpha) {
  const CsrGraph g = testing::cycle_graph(100);
  FennelParams params;
  params.alpha = 1e9; // absurd repulsion: behaves like pure balance-filling
  params.gamma = 1.5;
  FennelPartitioner p(g.num_nodes(), g.total_node_weight(), config_for(4), params);
  const StreamResult r = run_one_pass(g, p, 1);
  // With overwhelming penalty every node goes to the lightest block;
  // weights stay within one node of each other.
  const auto weights = block_weights_of(g, r.assignment, 4);
  const auto [min_it, max_it] = std::minmax_element(weights.begin(), weights.end());
  EXPECT_LE(*max_it - *min_it, 1);
}

TEST(Fennel, UnassignRestoresBlockWeight) {
  const CsrGraph g = testing::path_graph(10);
  FennelPartitioner p(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                      config_for(2, 1.0));
  WorkCounters counters;
  p.prepare(1);
  const StreamedNode n0{0, 1, g.neighbors(0), g.incident_weights(0)};
  const BlockId b = p.assign(n0, 0, counters);
  EXPECT_EQ(p.block_of(0), b);
  p.unassign(0, 1);
  EXPECT_EQ(p.block_of(0), kInvalidBlock);
  // Re-assignment lands somewhere valid again.
  const BlockId b2 = p.assign(n0, 0, counters);
  EXPECT_GE(b2, 0);
  EXPECT_LT(b2, 2);
}

TEST(Fennel, SequentialRunsAreDeterministic) {
  const CsrGraph g = gen::barabasi_albert(1000, 3, 5);
  FennelPartitioner a(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                      config_for(16));
  FennelPartitioner b(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                      config_for(16));
  EXPECT_EQ(run_one_pass(g, a, 1).assignment, run_one_pass(g, b, 1).assignment);
}

TEST(Fennel, ParallelRunsRemainValid) {
  const CsrGraph g = gen::grid_3d(15, 15, 15);
  for (const int threads : {2, 4}) {
    FennelPartitioner p(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                        config_for(16));
    const StreamResult r = run_one_pass(g, p, threads);
    verify_partition(g, r.assignment, 16);
    EXPECT_TRUE(is_balanced(g, r.assignment, 16, 0.05));
  }
}

} // namespace
} // namespace oms
