/// \file test_golden_equivalence.cpp
/// \brief Regression wall for the streaming hot-path optimizations: the
///        sequential assignments must stay bit-identical to the seed
///        algorithm, across scorers and modes.
///
/// Two layers of protection:
///  * golden hashes — FNV-1a fingerprints of the assignment vectors produced
///    by the *seed* implementation (recorded before the shrinking-frontier
///    descent, per-block penalty constants, fast-mod and sqrt cache landed).
///    Any scoring or tie-break drift changes a fingerprint.
///  * online/offline equivalence — the optimized single-pass descent must
///    still match the l-pass offline reference exactly (paper Section 3.1),
///    and a multi-threaded pass must stay covered and balanced within the
///    overshoot bound of Section 3.4.
#include "oms/core/online_multisection.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/graph/io.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/hashing.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

using testing::fnv1a;

/// Deterministic weighted multigraph-free graph with non-unit node and edge
/// weights (the descent must be exact for weighted capacities too).
[[nodiscard]] CsrGraph weighted_graph() {
  Rng rng(777);
  const NodeId n = 1200;
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    builder.set_node_weight(u, 1 + static_cast<NodeWeight>(rng.next_below(5)));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (int d = 0; d < 4; ++d) {
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (v != u) {
        builder.add_edge(u, v, 1 + static_cast<EdgeWeight>(rng.next_below(9)));
      }
    }
  }
  return std::move(builder).build();
}

[[nodiscard]] std::uint64_t oms_hash(const CsrGraph& g, const OmsConfig& config,
                                     BlockId k) {
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                         config);
  return fnv1a(run_one_pass(g, oms, 1).assignment);
}

[[nodiscard]] std::uint64_t oms_hash(const CsrGraph& g, const OmsConfig& config,
                                     const SystemHierarchy& topo) {
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                         config);
  return fnv1a(run_one_pass(g, oms, 1).assignment);
}

// Fingerprints recorded from the seed implementation (commit 7945fdd tree,
// Release build). Regenerate only for *intentional* algorithm changes.
TEST(GoldenEquivalence, NhOmsFennelDefaults) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  EXPECT_EQ(oms_hash(ba, OmsConfig{}, BlockId{24}), 0xdf5910a0b8af5c66ULL);
}

TEST(GoldenEquivalence, NhOmsLdgBase3) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  OmsConfig config;
  config.scorer = ScorerKind::kLdg;
  config.base = 3;
  EXPECT_EQ(oms_hash(ba, config, BlockId{100}), 0x5ba5138edca06d51ULL);
}

TEST(GoldenEquivalence, NhOmsVanillaAlphaBase2) {
  const CsrGraph grid = gen::grid_2d(60, 60);
  OmsConfig config;
  config.adapted_alpha = false;
  config.base = 2;
  EXPECT_EQ(oms_hash(grid, config, BlockId{37}), 0x3748baaf71245b0cULL);
}

TEST(GoldenEquivalence, NhOmsLargeK) {
  const CsrGraph big = gen::barabasi_albert(1 << 13, 6, 7);
  EXPECT_EQ(oms_hash(big, OmsConfig{}, BlockId{4096}), 0xc04e5fdbbdc6bb31ULL);
}

TEST(GoldenEquivalence, NhOmsWeightedGraph) {
  EXPECT_EQ(oms_hash(weighted_graph(), OmsConfig{}, BlockId{24}),
            0x28366b7513619939ULL);
}

TEST(GoldenEquivalence, OmsHybridMapping) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  OmsConfig config;
  config.quality_layers = 1;
  EXPECT_EQ(oms_hash(ba, config, SystemHierarchy::parse("4:16:2", "1:10:100")),
            0x7ac180a2471a1e66ULL);
}

TEST(GoldenEquivalence, OmsAllHashedMapping) {
  const CsrGraph grid = gen::grid_2d(60, 60);
  OmsConfig config;
  config.quality_layers = 0;
  config.seed = 99;
  EXPECT_EQ(oms_hash(grid, config, SystemHierarchy::parse("4:4:4", "1:10:100")),
            0x32b86c4f33c7c75bULL);
}

TEST(GoldenEquivalence, OmsFennelWeightedMapping) {
  EXPECT_EQ(oms_hash(weighted_graph(), OmsConfig{},
                     SystemHierarchy::parse("4:16:2", "1:10:100")),
            0x18f8feb794389b1cULL);
}

TEST(GoldenEquivalence, FlatFennel) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  PartitionConfig pc;
  pc.k = 96;
  FennelPartitioner fennel(ba.num_nodes(), ba.num_edges(), ba.total_node_weight(),
                           pc);
  EXPECT_EQ(fnv1a(run_one_pass(ba, fennel, 1).assignment), 0x2d45a97b4c53b8eeULL);
}

TEST(GoldenEquivalence, FlatLdg) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  PartitionConfig pc;
  pc.k = 33;
  LdgPartitioner ldg(ba.num_nodes(), ba.total_node_weight(), pc);
  EXPECT_EQ(fnv1a(run_one_pass(ba, ldg, 1).assignment), 0xee67e2db8124ef7dULL);
}

TEST(GoldenEquivalence, FlatHashing) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  PartitionConfig pc;
  pc.k = 77;
  pc.seed = 5;
  HashingPartitioner hashing(ba.num_nodes(), ba.total_node_weight(), pc);
  EXPECT_EQ(fnv1a(run_one_pass(ba, hashing, 1).assignment), 0x33d0cc2987716cf5ULL);
}

// ---------------------------------------------------------------------------
// Pipelined disk path: the producer/consumer driver with one assign thread
// must reproduce the *same* golden fingerprints through the full round trip
// write_metis -> parse-ahead batches -> assignment. Parse-ahead reorders
// work, never decisions.
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint64_t pipelined_hash(const CsrGraph& g, OnePassAssigner& a,
                                           std::size_t batch_nodes) {
  const std::string path =
      ::testing::TempDir() + "/oms_golden_pipeline_" + std::to_string(batch_nodes) +
      ".graph";
  write_metis(g, path);
  PipelineConfig config;
  config.assign_threads = 1;
  config.batch_nodes = batch_nodes;
  MetisNodeStream stream(path);
  const std::uint64_t h = fnv1a(run_stream(stream, a, config).assignment);
  std::remove(path.c_str());
  return h;
}

TEST(GoldenEquivalence, PipelinedNhOmsFennelDefaults) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  for (const std::size_t batch : {std::size_t{64}, std::size_t{4096}}) {
    OnlineMultisection oms(ba.num_nodes(), ba.num_edges(), ba.total_node_weight(),
                           BlockId{24}, OmsConfig{});
    EXPECT_EQ(pipelined_hash(ba, oms, batch), 0xdf5910a0b8af5c66ULL)
        << "batch=" << batch;
  }
}

TEST(GoldenEquivalence, PipelinedNhOmsWeightedGraph) {
  // Non-unit node and edge weights cross the batch handoff too.
  const CsrGraph g = weighted_graph();
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                         BlockId{24}, OmsConfig{});
  EXPECT_EQ(pipelined_hash(g, oms, 256), 0x28366b7513619939ULL);
}

TEST(GoldenEquivalence, PipelinedFlatFennel) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  PartitionConfig pc;
  pc.k = 96;
  FennelPartitioner fennel(ba.num_nodes(), ba.num_edges(), ba.total_node_weight(),
                           pc);
  EXPECT_EQ(pipelined_hash(ba, fennel, 512), 0x2d45a97b4c53b8eeULL);
}

TEST(GoldenEquivalence, PipelinedOmsHybridMapping) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  OmsConfig config;
  config.quality_layers = 1;
  OnlineMultisection oms(ba.num_nodes(), ba.num_edges(), ba.total_node_weight(),
                         SystemHierarchy::parse("4:16:2", "1:10:100"), config);
  EXPECT_EQ(pipelined_hash(ba, oms, 1024), 0x7ac180a2471a1e66ULL);
}

// ---------------------------------------------------------------------------
// Online == offline across every scorer the descent supports, on a graph and
// k chosen to exercise heterogeneous child ranges (k not a base power).
// ---------------------------------------------------------------------------

class GoldenOnlineOffline : public ::testing::TestWithParam<int> {};

TEST_P(GoldenOnlineOffline, MatchesOfflineMultipass) {
  const CsrGraph g = gen::barabasi_albert(3000, 4, 29);
  OmsConfig config;
  switch (GetParam()) {
    case 0: break;                                   // Fennel, adapted alpha
    case 1: config.scorer = ScorerKind::kLdg; break; // LDG
    case 2: config.quality_layers = 2; break;        // hybrid: scored top, hashed below
    default: config.quality_layers = 0; break;       // pure hashing
  }
  OnlineMultisection online(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                            BlockId{88}, config);
  const std::vector<BlockId> a = run_one_pass(g, online, 1).assignment;
  OnlineMultisection reference(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                               BlockId{88}, config);
  EXPECT_EQ(a, reference.run_offline_multipass(g));
}

std::string scorer_case_name(const ::testing::TestParamInfo<int>& info) {
  static constexpr const char* kNames[] = {"fennel", "ldg", "hybrid", "hashing"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Scorers, GoldenOnlineOffline, ::testing::Values(0, 1, 2, 3),
                         scorer_case_name);

// ---------------------------------------------------------------------------
// Multi-threaded one-pass invariants: full coverage and the Section 3.4
// overshoot bound — a block can exceed its capacity only while several
// threads race one capacity check, so by at most (threads - 1) max-weight
// nodes plus whatever the all-full fallback adds; bound both with slack.
// ---------------------------------------------------------------------------

TEST(GoldenEquivalence, ParallelRunIsCoveredAndBalanced) {
  const CsrGraph g = gen::barabasi_albert(30000, 5, 17);
  const BlockId k = 64;
  for (const int threads : {2, 4, 8}) {
    // 0: run_one_pass's one contiguous batch per thread; otherwise batches of
    // that many nodes, dealt to whichever consumer thread is free.
    for (const std::size_t batch_nodes : {std::size_t{0}, std::size_t{1024}}) {
      OmsConfig config;
      OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                             config);
      PipelineConfig policy;
      policy.assign_threads = threads;
      policy.batch_nodes = batch_nodes;
      policy.ring_batches = static_cast<std::size_t>(threads);
      const StreamResult r =
          batch_nodes == 0 ? run_one_pass(g, oms, threads) : run_stream(g, oms, policy);
      verify_partition(g, r.assignment, k);

      const NodeWeight lmax =
          max_block_weight(g.total_node_weight(), k, config.epsilon);
      NodeWeight max_node_weight = 1;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        max_node_weight = std::max(max_node_weight, g.node_weight(u));
      }
      const auto cap = block_weights_of(g, r.assignment, k);
      for (BlockId b = 0; b < k; ++b) {
        EXPECT_LE(cap[static_cast<std::size_t>(b)],
                  lmax + threads * max_node_weight)
            << "block " << b << " overshot beyond the parallel bound (threads="
            << threads << ", batch_nodes=" << batch_nodes << ")";
      }
    }
  }
}

} // namespace
} // namespace oms
