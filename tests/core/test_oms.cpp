#include "oms/core/online_multisection.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "oms/graph/generators.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

OmsConfig default_config() {
  OmsConfig config;
  config.epsilon = 0.03;
  config.seed = 1;
  return config;
}

TEST(Oms, AssignsEveryNodeWithinRange) {
  const CsrGraph g = gen::grid_2d(30, 30);
  const SystemHierarchy topo = SystemHierarchy::parse("4:4:2", "1:10:100");
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                         default_config());
  const StreamResult r = run_one_pass(g, oms, 1);
  verify_partition(g, r.assignment, topo.num_pes());
}

TEST(Oms, RespectsBalanceAcrossHierarchies) {
  const CsrGraph g = gen::barabasi_albert(4000, 4, 21);
  for (const char* extents : {"2:2", "4:4", "4:16:2", "2:2:2:2", "8:4", "4:16:1"}) {
    const SystemHierarchy topo =
        SystemHierarchy::parse(extents, std::string(extents)); // distances unused here
    OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                           default_config());
    const StreamResult r = run_one_pass(g, oms, 1);
    verify_partition(g, r.assignment, topo.num_pes());
    EXPECT_TRUE(is_balanced(g, r.assignment, topo.num_pes(), 0.03))
        << "S=" << extents;
  }
}

TEST(NhOms, RespectsBalanceAcrossKSweep) {
  const CsrGraph g = gen::random_geometric(4000, 9);
  for (const BlockId k : {2, 3, 5, 7, 13, 64, 100, 128, 500}) {
    OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                           default_config());
    const StreamResult r = run_one_pass(g, oms, 1);
    verify_partition(g, r.assignment, k);
    EXPECT_TRUE(is_balanced(g, r.assignment, k, 0.03)) << "k=" << k;
  }
}

TEST(Oms, TreeWeightsAreConsistentAfterRun) {
  // Leaf weights must equal the block weights of the final assignment, and
  // every internal block's weight must equal the sum of its children.
  const CsrGraph g = gen::rmat(11, 4, 33);
  const SystemHierarchy topo = SystemHierarchy::parse("4:4:4", "1:10:100");
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                         default_config());
  const StreamResult r = run_one_pass(g, oms, 1);

  const auto block_weights = block_weights_of(g, r.assignment, topo.num_pes());
  const auto& tree = oms.tree();
  for (std::size_t id = 0; id < tree.num_blocks(); ++id) {
    const auto& block = tree.block(id);
    if (block.is_leaf()) {
      EXPECT_EQ(oms.tree_block_weight(id),
                block_weights[static_cast<std::size_t>(block.leaf_begin)]);
    } else if (block.parent >= 0) { // root weight is never tracked
      NodeWeight child_sum = 0;
      for (std::int32_t c = 0; c < block.num_children; ++c) {
        child_sum += oms.tree_block_weight(
            static_cast<std::size_t>(block.first_child + c));
      }
      EXPECT_EQ(oms.tree_block_weight(id), child_sum);
    }
  }
}

TEST(Oms, KeepsCliquesTogetherInHierarchy) {
  // 4 cliques -> hierarchy 2:2 (4 PEs): each clique should land on one PE and
  // adjacent cliques (which share a bridge) should prefer nearby PEs. Dense
  // toy cliques sit outside the standard alpha calibration (see the Fennel
  // toy tests), so pin alpha into the follow-neighbors-but-respect-capacity
  // window.
  const CsrGraph g = testing::clique_chain(4, 8);
  const SystemHierarchy topo = SystemHierarchy::parse("2:2", "1:10");
  OmsConfig config = default_config();
  config.alpha_override = 0.3;
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                         config);
  const StreamResult r = run_one_pass(g, oms, 1);
  for (NodeId c = 0; c < 4; ++c) {
    for (NodeId u = 1; u < 8; ++u) {
      EXPECT_EQ(r.assignment[c * 8 + u], r.assignment[c * 8])
          << "clique " << c << " split";
    }
  }
  EXPECT_TRUE(is_balanced(g, r.assignment, 4, 0.03));
}

TEST(Oms, HybridLayersReduceScoringWork) {
  const CsrGraph g = gen::barabasi_albert(3000, 4, 5);
  const SystemHierarchy topo = SystemHierarchy::parse("4:4:4", "1:10:100");

  OmsConfig full = default_config();
  OnlineMultisection oms_full(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                              topo, full);
  const StreamResult r_full = run_one_pass(g, oms_full, 1);

  OmsConfig hybrid = default_config();
  hybrid.quality_layers = 1; // only the top layer scored, rest hashed
  OnlineMultisection oms_hybrid(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                                topo, hybrid);
  const StreamResult r_hybrid = run_one_pass(g, oms_hybrid, 1);

  // Hashed layers do not visit neighbors, so the hybrid run pays only the
  // top-layer gather (one full neighbor scan). The full run pays that scan
  // plus the shrinking frontier on the two deeper layers — more than the
  // hybrid but at most the pre-frontier 3x bound.
  EXPECT_GE(r_full.work.neighbor_visits, r_hybrid.work.neighbor_visits);
  EXPECT_LE(r_full.work.neighbor_visits, 3 * r_hybrid.work.neighbor_visits);
  EXPECT_EQ(r_hybrid.work.neighbor_visits, g.num_arcs());
  EXPECT_LT(r_hybrid.work.score_evaluations, r_full.work.score_evaluations);
  // Quality degrades (Theorem 3's trade-off) but balance must hold.
  verify_partition(g, r_hybrid.assignment, topo.num_pes());
  EXPECT_TRUE(is_balanced(g, r_hybrid.assignment, topo.num_pes(), 0.03));
  EXPECT_GE(edge_cut(g, r_hybrid.assignment), edge_cut(g, r_full.assignment));
}

TEST(Oms, AllHashedEqualsQualityLayersZero) {
  const CsrGraph g = gen::grid_2d(40, 40);
  OmsConfig hashed = default_config();
  hashed.quality_layers = 0;
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                         BlockId{16}, hashed);
  const StreamResult r = run_one_pass(g, oms, 1);
  EXPECT_EQ(r.work.neighbor_visits, 0u);
  verify_partition(g, r.assignment, 16);
  EXPECT_TRUE(is_balanced(g, r.assignment, 16, 0.03));
}

TEST(Oms, LdgScorerWorksAndBalances) {
  const CsrGraph g = gen::random_geometric(3000, 31);
  OmsConfig config = default_config();
  config.scorer = ScorerKind::kLdg;
  const SystemHierarchy topo = SystemHierarchy::parse("4:8", "1:10");
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                         config);
  const StreamResult r = run_one_pass(g, oms, 1);
  verify_partition(g, r.assignment, 32);
  EXPECT_TRUE(is_balanced(g, r.assignment, 32, 0.03));
}

TEST(Oms, SequentialRunsAreDeterministic) {
  const CsrGraph g = gen::rmat(10, 6, 3);
  const SystemHierarchy topo = SystemHierarchy::parse("4:4", "1:10");
  OnlineMultisection a(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                       default_config());
  OnlineMultisection b(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                       default_config());
  EXPECT_EQ(run_one_pass(g, a, 1).assignment, run_one_pass(g, b, 1).assignment);
}

TEST(NhOms, WorkCountersMatchTheoremFourShape) {
  // For base b and k = b^h, score evaluations are <= n * b * height and
  // neighbor visits <= m_arcs * height — the O((m + nb) log_b k) bound.
  const CsrGraph g = gen::barabasi_albert(2000, 4, 13);
  const BlockId k = 64;
  OmsConfig config = default_config();
  config.base = 4;
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                         config);
  const StreamResult r = run_one_pass(g, oms, 1);
  const auto height = static_cast<std::uint64_t>(oms.tree().height());
  EXPECT_EQ(height, 3u); // 4^3 = 64
  EXPECT_LE(r.work.score_evaluations,
            static_cast<std::uint64_t>(g.num_nodes()) * 4 * height);
  // The shrinking-frontier gather scans every arc once at the top layer and
  // only surviving (already-assigned, same-subtree) pairs below, so neighbor
  // work sits between m and Theorem 2's m * l bound.
  EXPECT_GE(r.work.neighbor_visits, g.num_arcs());
  EXPECT_LE(r.work.neighbor_visits, g.num_arcs() * height);
  EXPECT_EQ(r.work.layers_traversed,
            static_cast<std::uint64_t>(g.num_nodes()) * height);
}

TEST(NhOms, AsymptoticallyCheaperThanFennelForLargeK) {
  const CsrGraph g = gen::barabasi_albert(3000, 4, 17);
  const BlockId k = 1024;
  PartitionConfig pc;
  pc.k = k;
  FennelPartitioner fennel(g.num_nodes(), g.num_edges(), g.total_node_weight(), pc);
  const StreamResult rf = run_one_pass(g, fennel, 1);

  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                         default_config());
  const StreamResult ro = run_one_pass(g, oms, 1);

  // Fennel: n*k = 3.07M score evals. OMS (b=4): n * 4 * log_4(1024) = 60k.
  EXPECT_GT(rf.work.score_evaluations, 10 * ro.work.score_evaluations);
}

TEST(Oms, StateBytesIsOrderNPlusK) {
  const NodeId n = 50000;
  const SystemHierarchy topo = SystemHierarchy::parse("4:16:8", "1:10:100");
  OnlineMultisection oms(n, 100000, n, topo, default_config());
  // Theorem 1: O(n + k) memory. The per-block constant covers a dense
  // weight slot and two min-load tree slots (16 of the 64 bytes allowed)
  // plus the tree block with its precomputed descent accelerators; Lemma 1
  // bounds the tree at 2k blocks.
  const std::uint64_t k = static_cast<std::uint64_t>(topo.num_pes());
  EXPECT_LE(oms.state_bytes(),
            n * sizeof(BlockId) + 2 * k * (64 + sizeof(MultisectionTree::Block)));
}

TEST(Oms, UnassignRemovesWeightAlongFullPath) {
  const CsrGraph g = testing::path_graph(16);
  const SystemHierarchy topo = SystemHierarchy::parse("2:2", "1:10");
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                         default_config());
  (void)run_one_pass(g, oms, 1);
  // Note: take_assignment() moved the vector out; rebuild the state.
  OnlineMultisection fresh(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                           default_config());
  WorkCounters counters;
  fresh.prepare(1);
  for (NodeId u = 0; u < 16; ++u) {
    fresh.assign({u, 1, g.neighbors(u), g.incident_weights(u)}, 0, counters);
  }
  NodeWeight total_before = 0;
  for (std::size_t id = 1; id <= 2; ++id) { // the two depth-1 blocks
    total_before += fresh.tree_block_weight(id);
  }
  EXPECT_EQ(total_before, 16);
  fresh.unassign(0, 1);
  NodeWeight total_after = 0;
  for (std::size_t id = 1; id <= 2; ++id) {
    total_after += fresh.tree_block_weight(id);
  }
  EXPECT_EQ(total_after, 15);
  EXPECT_EQ(fresh.block_of(0), kInvalidBlock);
}

TEST(NhOms, SingleBlockDegenerate) {
  const CsrGraph g = testing::cycle_graph(10);
  OmsConfig config = default_config();
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                         BlockId{1}, config);
  const StreamResult r = run_one_pass(g, oms, 1);
  for (const BlockId b : r.assignment) {
    EXPECT_EQ(b, 0);
  }
}

// ---------------------------------------------------------------------------
// The paper's central structural claim (Section 3.1): the online algorithm
// produces exactly the same result as the l-pass offline multi-section.
// ---------------------------------------------------------------------------

using EquivalenceParams = std::tuple<int, int, bool>;

class OnlineOfflineEquivalence : public ::testing::TestWithParam<EquivalenceParams> {};

TEST_P(OnlineOfflineEquivalence, BitForBitEqual) {
  const auto [graph_kind, config_kind, use_hierarchy] = GetParam();

  CsrGraph g = [&]() -> CsrGraph {
    switch (graph_kind) {
      case 0: return gen::grid_2d(25, 25);
      case 1: return gen::barabasi_albert(800, 3, 7);
      case 2: return gen::random_geometric(700, 11);
      default: return gen::rmat(9, 5, 2);
    }
  }();

  OmsConfig config;
  config.epsilon = 0.03;
  config.seed = 42;
  switch (config_kind) {
    case 0: break; // tuned defaults (Fennel, adapted alpha, b = 4)
    case 1: config.scorer = ScorerKind::kLdg; break;
    case 2: config.adapted_alpha = false; break;
    case 3: config.quality_layers = 1; break; // hybrid with hashing below
    default: config.base = 2; break;
  }

  std::vector<BlockId> online;
  std::vector<BlockId> offline;
  if (use_hierarchy) {
    const SystemHierarchy topo = SystemHierarchy::parse("4:4:2", "1:10:100");
    OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                           config);
    online = run_one_pass(g, oms, 1).assignment;
    OnlineMultisection ref(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                           config);
    offline = ref.run_offline_multipass(g);
  } else {
    const BlockId k = 24; // not a power of the base: heterogeneous tree
    OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                           config);
    online = run_one_pass(g, oms, 1).assignment;
    OnlineMultisection ref(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                           config);
    offline = ref.run_offline_multipass(g);
  }
  EXPECT_EQ(online, offline);
}

std::string equivalence_case_name(const ::testing::TestParamInfo<EquivalenceParams>& info) {
  static constexpr const char* kGraphs[] = {"grid", "ba", "rgg", "rmat"};
  static constexpr const char* kConfigs[] = {"default", "ldg", "vanilla_alpha",
                                             "hybrid", "base2"};
  return std::string(kGraphs[std::get<0>(info.param)]) + "_" +
         kConfigs[std::get<1>(info.param)] + "_" +
         (std::get<2>(info.param) ? "mapping" : "partitioning");
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, OnlineOfflineEquivalence,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // graphs
                       ::testing::Values(0, 1, 2, 3, 4), // configs
                       ::testing::Bool()),              // hierarchy vs b-section
    equivalence_case_name);

// ---------------------------------------------------------------------------
// Parameterized balance sweep: every (k, base, epsilon) combination must
// produce a balanced, complete partition.
// ---------------------------------------------------------------------------

using SweepParams = std::tuple<BlockId, int, double>;

class NhOmsSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(NhOmsSweep, BalancedAndComplete) {
  const auto [k, base, epsilon] = GetParam();
  const CsrGraph g = gen::barabasi_albert(2500, 4, 3);
  OmsConfig config;
  config.epsilon = epsilon;
  config.base = base;
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                         config);
  const StreamResult r = run_one_pass(g, oms, 1);
  verify_partition(g, r.assignment, k);
  EXPECT_TRUE(is_balanced(g, r.assignment, k, epsilon));
  EXPECT_EQ(num_non_empty_blocks(r.assignment, k), std::min<BlockId>(k, 2500));
}

std::string sweep_case_name(const ::testing::TestParamInfo<SweepParams>& info) {
  return "k" + std::to_string(std::get<0>(info.param)) + "_b" +
         std::to_string(std::get<1>(info.param)) + "_eps" +
         std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
}

INSTANTIATE_TEST_SUITE_P(
    KBaseEpsilon, NhOmsSweep,
    ::testing::Combine(::testing::Values<BlockId>(2, 5, 16, 100, 128),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(0.03, 0.1)),
    sweep_case_name);

} // namespace
} // namespace oms
