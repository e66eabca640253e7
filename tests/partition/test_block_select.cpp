/// \file test_block_select.cpp
/// \brief Differential suite for the exact sublinear block selection: the
///        Fennel and LDG partitioners (touched blocks plus the lightest one,
///        from a MinLoadTree or a min scan) and HDRF against test-only copies
///        of the dense O(k) scans they replaced, plus MinLoadTree unit tests. Randomness derives from OMS_TEST_SEED;
///        every failure prints the seed that reproduces it.
#include "oms/util/min_load_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "oms/edgepart/hdrf.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/partition/restream.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

using testing::draw_seed;
using testing::test_seed;

std::string seed_note() {
  return "reproduce with OMS_TEST_SEED=" + std::to_string(test_seed());
}

// ---------------------------------------------------------------------------
// MinLoadTree
// ---------------------------------------------------------------------------

std::int32_t brute_min(const std::vector<std::int64_t>& loads) {
  std::int32_t best = 0;
  for (std::int32_t i = 1; i < static_cast<std::int32_t>(loads.size()); ++i) {
    if (loads[static_cast<std::size_t>(i)] < loads[static_cast<std::size_t>(best)]) {
      best = i;
    }
  }
  return best;
}

TEST(MinLoadTree, SingleSlot) {
  std::vector<std::int64_t> loads{7};
  const auto at = [&](std::int32_t i) { return loads[static_cast<std::size_t>(i)]; };
  MinLoadTree tree;
  tree.build(1, at);
  EXPECT_EQ(tree.min_index(), 0);
  loads[0] = -3;
  tree.update(0, at);
  EXPECT_EQ(tree.min_index(), 0);
}

TEST(MinLoadTree, TiesGoToTheLowestIndex) {
  for (const std::int32_t k : {2, 3, 5, 64, 65, 100}) {
    std::vector<std::int64_t> loads(static_cast<std::size_t>(k), 4);
    const auto at = [&](std::int32_t i) { return loads[static_cast<std::size_t>(i)]; };
    MinLoadTree tree;
    tree.build(k, at);
    EXPECT_EQ(tree.min_index(), 0) << "k=" << k;
    loads[0] = 5;
    tree.update(0, at);
    EXPECT_EQ(tree.min_index(), 1) << "k=" << k;
    loads[static_cast<std::size_t>(k - 1)] = 4; // unchanged key, reported anyway
    tree.update(k - 1, at);
    EXPECT_EQ(tree.min_index(), 1) << "k=" << k;
    loads[0] = 4;
    tree.update(0, at);
    EXPECT_EQ(tree.min_index(), 0) << "k=" << k;
  }
}

TEST(MinLoadTree, MatchesBruteForceUnderIncrementsAndDecrements) {
  SCOPED_TRACE(seed_note());
  for (const std::int32_t k : {1, 2, 3, 7, 63, 64, 65, 100, 257, 1000}) {
    Rng rng(draw_seed(static_cast<std::uint64_t>(k)));
    std::vector<std::int64_t> loads(static_cast<std::size_t>(k));
    for (auto& l : loads) {
      l = static_cast<std::int64_t>(rng.next_below(5));
    }
    const auto at = [&](std::int32_t i) { return loads[static_cast<std::size_t>(i)]; };
    MinLoadTree tree;
    tree.build(k, at);
    ASSERT_EQ(tree.min_index(), brute_min(loads)) << "k=" << k;
    for (int step = 0; step < 4000; ++step) {
      const auto i = static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(k)));
      // Mostly increments (a stream filling blocks), some decrements (the
      // restreaming unassign), small deltas so ties stay frequent.
      const auto delta = static_cast<std::int64_t>(rng.next_below(4)) -
                         (rng.next_bool(0.3) ? 4 : 0);
      loads[static_cast<std::size_t>(i)] += delta;
      tree.update(i, at);
      ASSERT_EQ(tree.min_index(), brute_min(loads)) << "k=" << k << " step=" << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Node streams: Fennel and LDG against their dense scans
// ---------------------------------------------------------------------------

enum class NodeWeights { kUnit, kWeighted, kWithZeros, kHuge };

/// Locality-heavy random graph (so attraction matters) with a few long
/// edges; edge weights are unit or 1..4, node weights per \p mode.
CsrGraph random_graph(NodeId n, NodeWeights mode, bool weighted_edges,
                      std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    NodeWeight w = 1;
    if (mode == NodeWeights::kWeighted) {
      w = 1 + static_cast<NodeWeight>(rng.next_below(5));
    } else if (mode == NodeWeights::kWithZeros) {
      w = rng.next_bool(0.25) ? 0 : 1 + static_cast<NodeWeight>(rng.next_below(3));
    } else if (mode == NodeWeights::kHuge) {
      // Block capacities of 2^31 and more at the k and n used here.
      w = (NodeWeight{1} << 28) + static_cast<NodeWeight>(rng.next_below(1U << 28));
    }
    builder.set_node_weight(u, w);
  }
  for (NodeId u = 0; u < n; ++u) {
    for (int d = 0; d < 4; ++d) {
      const NodeId v = d < 3 ? static_cast<NodeId>((u + 1 + rng.next_below(24)) % n)
                             : static_cast<NodeId>(rng.next_below(n));
      if (v != u) {
        const EdgeWeight w =
            weighted_edges ? 1 + static_cast<EdgeWeight>(rng.next_below(4)) : 1;
        builder.add_edge(u, v, w);
      }
    }
  }
  return std::move(builder).build();
}

enum class Scorer { kFennel, kLdg };

/// Test-only copy of the dense O(k) scans (ascending blocks, best score, then
/// lighter block, all-full fallback to the lightest block), over \p passes
/// restreaming passes; Fennel scores with \p params. Counts all-full
/// fallbacks into \p fallbacks.
std::vector<BlockId> dense_reference(const CsrGraph& g, const PartitionConfig& pc,
                                     Scorer scorer, const FennelParams& params,
                                     int passes, int& fallbacks) {
  const BlockId k = pc.k;
  const NodeWeight cap = max_block_weight(g.total_node_weight(), k, pc.epsilon);
  std::vector<NodeWeight> load(static_cast<std::size_t>(k), 0);
  std::vector<EdgeWeight> gathered(static_cast<std::size_t>(k), 0);
  std::vector<BlockId> assignment(g.num_nodes(), kInvalidBlock);
  for (int pass = 0; pass < passes; ++pass) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const NodeWeight nw = g.node_weight(u);
      if (pass > 0) {
        load[static_cast<std::size_t>(assignment[u])] -= nw;
        assignment[u] = kInvalidBlock;
      }
      std::fill(gathered.begin(), gathered.end(), 0);
      const auto neighbors = g.neighbors(u);
      const auto weights = g.incident_weights(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const BlockId nb = assignment[neighbors[i]];
        if (nb != kInvalidBlock) {
          gathered[static_cast<std::size_t>(nb)] += weights[i];
        }
      }
      BlockId best = kInvalidBlock;
      double best_score = scorer == Scorer::kLdg ? -1.0 : 0.0;
      NodeWeight best_weight = 0;
      for (BlockId b = 0; b < k; ++b) {
        const NodeWeight w = load[static_cast<std::size_t>(b)];
        if (w + nw > cap) {
          continue;
        }
        const auto attraction = static_cast<double>(gathered[static_cast<std::size_t>(b)]);
        const double score =
            scorer == Scorer::kFennel
                ? attraction - fennel_penalty(params.alpha, params.gamma, w)
                : attraction * (1.0 - static_cast<double>(w) / static_cast<double>(cap));
        if (best == kInvalidBlock || score > best_score ||
            (score == best_score && w < best_weight)) {
          best = b;
          best_score = score;
          best_weight = w;
        }
      }
      if (best == kInvalidBlock) {
        ++fallbacks;
        best = 0;
        for (BlockId b = 1; b < k; ++b) {
          if (load[static_cast<std::size_t>(b)] < load[static_cast<std::size_t>(best)]) {
            best = b;
          }
        }
      }
      load[static_cast<std::size_t>(best)] += nw;
      assignment[u] = best;
    }
  }
  return assignment;
}

FennelParams standard_params(const CsrGraph& g, const PartitionConfig& pc) {
  return FennelParams::standard(g.num_nodes(), g.num_edges(), pc.k);
}

/// Calls \p body with a factory of fresh assigners of \p scorer's type;
/// Fennel scores with \p params.
template <typename Body>
void with_assigner(const CsrGraph& g, const PartitionConfig& pc, Scorer scorer,
                   const FennelParams& params, const Body& body) {
  if (scorer == Scorer::kFennel) {
    body([&] {
      return std::make_unique<FennelPartitioner>(g.num_nodes(), g.total_node_weight(),
                                                 pc, params);
    });
  } else {
    body([&] {
      return std::make_unique<LdgPartitioner>(g.num_nodes(), g.total_node_weight(), pc);
    });
  }
}

void check_node_scorer(Scorer scorer) {
  SCOPED_TRACE(seed_note());
  int fallbacks = 0;
  std::uint64_t draw = 0;
  for (const BlockId k : {1, 2, 63, 64, 65, 257, 4096}) {
    for (const NodeWeights mode :
         {NodeWeights::kUnit, NodeWeights::kWeighted, NodeWeights::kWithZeros}) {
      for (const double eps : {0.0, 0.03}) {
        const NodeId n = k == 4096 ? 2500 : 900;
        const CsrGraph g =
            random_graph(n, mode, mode != NodeWeights::kUnit, draw_seed(++draw));
        PartitionConfig pc;
        pc.k = k;
        pc.epsilon = eps;
        SCOPED_TRACE("k=" + std::to_string(k) + " mode=" +
                     std::to_string(static_cast<int>(mode)) + " eps=" + std::to_string(eps));

        // One pass through the streaming driver, then a 3-pass restream
        // (unassign decrements the tree) against the dense reference.
        const FennelParams params = standard_params(g, pc);
        with_assigner(g, pc, scorer, params, [&](const auto& make) {
          auto one = make();
          const StreamResult r = run_one_pass(g, *one, 1);
          ASSERT_EQ(r.assignment, dense_reference(g, pc, scorer, params, 1, fallbacks));
          EXPECT_LE(r.work.candidate_evaluations,
                    static_cast<std::uint64_t>(g.num_nodes()) + g.num_arcs());

          auto re = make();
          ASSERT_EQ(restream(g, *re, 3).assignment,
                    dense_reference(g, pc, scorer, params, 3, fallbacks));
        });
      }
    }
  }
  // eps = 0 with weighted nodes saturates blocks: the all-full fallback of
  // the dense loop must have been exercised (and matched).
  EXPECT_GT(fallbacks, 0);
}

TEST(BlockSelect, FennelTreeMatchesDenseScan) { check_node_scorer(Scorer::kFennel); }

TEST(BlockSelect, LdgTreeMatchesDenseScan) { check_node_scorer(Scorer::kLdg); }

TEST(BlockSelect, ConcurrentPrepareKeepsTheDenseScan) {
  // prepare(threads > 1) keeps no tree and finds the lightest block by a
  // min scan; one thread driving the partitioner then must still produce
  // the sequential answer, from the same candidates.
  SCOPED_TRACE(seed_note());
  const CsrGraph g = random_graph(1200, NodeWeights::kWeighted, true, draw_seed(999));
  PartitionConfig pc;
  pc.k = 65;
  for (const Scorer scorer : {Scorer::kFennel, Scorer::kLdg}) {
    with_assigner(g, pc, scorer, standard_params(g, pc), [&](const auto& make) {
      auto tree = make();
      auto dense = make();
      tree->prepare(1);
      dense->prepare(2);
      WorkCounters tree_work;
      WorkCounters dense_work;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const StreamedNode node{u, g.node_weight(u), g.neighbors(u), g.incident_weights(u)};
        ASSERT_EQ(tree->assign(node, 0, tree_work), dense->assign(node, 0, dense_work));
      }
      EXPECT_EQ(tree_work.score_evaluations, dense_work.score_evaluations);
      EXPECT_EQ(tree_work.candidate_evaluations, dense_work.candidate_evaluations);
      EXPECT_LT(dense_work.candidate_evaluations,
                static_cast<std::uint64_t>(g.num_nodes()) * 65U / 4);
    });
  }
}

/// Drives \p p over \p g's nodes in order from one thread after
/// prepare(\p threads) and returns the assignment.
std::vector<BlockId> drive_one_thread(const CsrGraph& g, OnePassAssigner& p, int threads) {
  p.prepare(threads);
  WorkCounters work;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    (void)p.assign({u, g.node_weight(u), g.neighbors(u), g.incident_weights(u)}, 0, work);
  }
  return p.take_assignment();
}

TEST(BlockSelect, FennelObjectivesOffTheTunedPathMatchDenseScan) {
  // alpha = 0 (a constant penalty), gamma = 2 (std::pow, no sqrt cache) and
  // capacities of 2^31 and more take the same rule as the tuned objective.
  SCOPED_TRACE(seed_note());
  int fallbacks = 0;
  std::uint64_t draw = 500;
  for (const BlockId k : {2, 63, 129}) {
    for (const double eps : {0.0, 0.03}) {
      PartitionConfig pc;
      pc.k = k;
      pc.epsilon = eps;
      const CsrGraph weighted = random_graph(900, NodeWeights::kWeighted, true, draw_seed(++draw));
      const CsrGraph huge = random_graph(900, NodeWeights::kHuge, true, draw_seed(++draw));
      ASSERT_GE(max_block_weight(huge.total_node_weight(), k, eps), NodeWeight{1} << 31);
      FennelParams no_alpha = standard_params(weighted, pc);
      no_alpha.alpha = 0.0;
      FennelParams quadratic = standard_params(weighted, pc);
      quadratic.gamma = 2.0;
      const struct {
        const char* name;
        const CsrGraph& graph;
        FennelParams params;
      } cases[] = {{"alpha=0", weighted, no_alpha},
                   {"gamma=2", weighted, quadratic},
                   {"huge", huge, standard_params(huge, pc)}};
      for (const auto& c : cases) {
        for (const Scorer scorer : {Scorer::kFennel, Scorer::kLdg}) {
          for (const int threads : {1, 2}) {
            SCOPED_TRACE(std::string(c.name) + " k=" + std::to_string(k) +
                         " eps=" + std::to_string(eps) + " threads=" +
                         std::to_string(threads));
            with_assigner(c.graph, pc, scorer, c.params, [&](const auto& make) {
              auto p = make();
              ASSERT_EQ(drive_one_thread(c.graph, *p, threads),
                        dense_reference(c.graph, pc, scorer, c.params, 1, fallbacks));
            });
          }
        }
      }
    }
  }
  EXPECT_GT(fallbacks, 0);
}

TEST(BlockSelect, NegativeEdgeWeightsFallBackToTheScan) {
  // The METIS reader rejects edge weights below 1, but a library caller can
  // still hand the assigner such a StreamedNode. Sixteen isolated nodes
  // fill the sixteen blocks evenly, so block 0 is the lightest; node 16 is
  // repelled from it (attraction -5). An unattracted block must win, as in
  // the dense scan, although no attracted block but block 0 exists.
  PartitionConfig pc;
  pc.k = 16;
  const std::vector<NodeId> neighbor{0};
  const std::vector<EdgeWeight> repulsion{-5};
  for (const Scorer scorer : {Scorer::kFennel, Scorer::kLdg}) {
    const FennelParams params = FennelParams::standard(17, 1, pc.k);
    std::unique_ptr<OnePassAssigner> tree;
    std::unique_ptr<OnePassAssigner> scan;
    if (scorer == Scorer::kFennel) {
      tree = std::make_unique<FennelPartitioner>(17, 17, pc, params);
      scan = std::make_unique<FennelPartitioner>(17, 17, pc, params);
    } else {
      tree = std::make_unique<LdgPartitioner>(17, 17, pc);
      scan = std::make_unique<LdgPartitioner>(17, 17, pc);
    }
    tree->prepare(1);
    scan->prepare(2);
    WorkCounters counters;
    for (NodeId u = 0; u <= 16; ++u) {
      const StreamedNode node = u < 16 ? StreamedNode{u, 1, {}, {}}
                                       : StreamedNode{u, 1, neighbor, repulsion};
      ASSERT_EQ(tree->assign(node, 0, counters), scan->assign(node, 0, counters))
          << "node " << u;
    }
    EXPECT_EQ(tree->block_of(16), 1);
  }
}

// ---------------------------------------------------------------------------
// Edge streams: HDRF against its dense two-pass scan
// ---------------------------------------------------------------------------

/// Skewed edge stream (preferential attachment) in random order, weights
/// 1..5, with a few self-loops (assign() scores them like any edge).
std::vector<StreamedEdge> random_edges(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamedEdge> edges;
  std::vector<NodeId> endpoints{0, 1};
  for (NodeId u = 2; u < n; ++u) {
    for (int d = 0; d < 3; ++d) {
      const NodeId v = endpoints[rng.next_below(endpoints.size())];
      edges.push_back(StreamedEdge{u, v, 1 + static_cast<EdgeWeight>(rng.next_below(5))});
      endpoints.push_back(v);
      endpoints.push_back(u);
    }
    if (rng.next_bool(0.01)) {
      edges.push_back(StreamedEdge{u, u, 1});
    }
  }
  rng.shuffle(edges);
  return edges;
}

/// Test-only copy of the dense HDRF scan: one O(k) pass for min/max load,
/// one O(k) pass scoring every block, first maximum wins.
std::vector<BlockId> dense_hdrf(const std::vector<StreamedEdge>& edges, NodeId n,
                                BlockId k, double lambda) {
  const auto ks = static_cast<std::size_t>(k);
  std::vector<std::uint32_t> degree(n, 0);
  std::vector<char> replica(static_cast<std::size_t>(n) * ks, 0);
  std::vector<EdgeWeight> load(ks, 0);
  std::vector<BlockId> out;
  for (const StreamedEdge& e : edges) {
    const auto du = static_cast<double>(++degree[e.u]);
    const auto dv = static_cast<double>(++degree[e.v]);
    const double sum = du + dv;
    const double gain_u = 1.0 + (1.0 - du / sum);
    const double gain_v = 1.0 + (1.0 - dv / sum);
    EdgeWeight min_load = load[0];
    EdgeWeight max_load = load[0];
    for (std::size_t b = 1; b < ks; ++b) {
      min_load = load[b] < min_load ? load[b] : min_load;
      max_load = load[b] > max_load ? load[b] : max_load;
    }
    const double range = 1.0 + static_cast<double>(max_load - min_load);
    BlockId best = 0;
    double best_score = -1.0;
    for (std::size_t b = 0; b < ks; ++b) {
      double score = lambda * static_cast<double>(max_load - load[b]) / range;
      if (replica[e.u * ks + b] != 0) {
        score += gain_u;
      }
      if (replica[e.v * ks + b] != 0) {
        score += gain_v;
      }
      if (score > best_score) {
        best_score = score;
        best = static_cast<BlockId>(b);
      }
    }
    replica[e.u * ks + static_cast<std::size_t>(best)] = 1;
    replica[e.v * ks + static_cast<std::size_t>(best)] = 1;
    load[static_cast<std::size_t>(best)] += e.weight;
    out.push_back(best);
  }
  return out;
}

TEST(BlockSelect, HdrfSparseMatchesDenseScan) {
  SCOPED_TRACE(seed_note());
  std::uint64_t draw = 100;
  for (const BlockId k : {1, 63, 64, 65, 256}) {
    for (const double lambda : {0.0, 1.1, 100.0}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " lambda=" + std::to_string(lambda));
      const NodeId n = 700;
      const std::vector<StreamedEdge> edges = random_edges(n, draw_seed(++draw));
      EdgePartConfig config;
      config.k = k;
      config.lambda = lambda;
      HdrfPartitioner hdrf(config);
      std::vector<BlockId> got;
      got.reserve(edges.size());
      for (const StreamedEdge& e : edges) {
        got.push_back(hdrf.assign(e));
      }
      ASSERT_EQ(got, dense_hdrf(edges, n, k, lambda));
    }
  }
}

TEST(BlockSelect, HdrfScoreTieBetweenReplicaAndRootGoesToTheLowerIndex) {
  // Loads [1, 5, 5] after three edges; then (2, 3) again: the replica block
  // 1 scores 0 + 1.5 + 1.5 = 3 and the min-load root 0 scores
  // 3.75 * (5 - 1) / 5 = 3, both exact. The dense scan keeps block 0.
  const std::vector<StreamedEdge> edges{{0, 1, 1}, {2, 3, 5}, {4, 5, 5}, {2, 3, 1}};
  EdgePartConfig config;
  config.k = 3;
  config.lambda = 3.75;
  HdrfPartitioner hdrf(config);
  std::vector<BlockId> got;
  for (const StreamedEdge& e : edges) {
    got.push_back(hdrf.assign(e));
  }
  EXPECT_EQ(got, (std::vector<BlockId>{0, 1, 2, 0}));
  EXPECT_EQ(got, dense_hdrf(edges, 6, 3, 3.75));
}

TEST(BlockSelect, HdrfOutsideTheExactLambdaRangeStillMatches) {
  // Tiny and huge lambda take the dense fallback; results must not move.
  SCOPED_TRACE(seed_note());
  const NodeId n = 300;
  const std::vector<StreamedEdge> edges = random_edges(n, draw_seed(7));
  for (const double lambda : {1e-300, 1e15}) {
    EdgePartConfig config;
    config.k = 65;
    config.lambda = lambda;
    HdrfPartitioner hdrf(config);
    std::vector<BlockId> got;
    for (const StreamedEdge& e : edges) {
      got.push_back(hdrf.assign(e));
    }
    EXPECT_EQ(got, dense_hdrf(edges, n, 65, lambda)) << "lambda=" << lambda;
  }
}

} // namespace
} // namespace oms
