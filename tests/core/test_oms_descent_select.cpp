/// \file test_oms_descent_select.cpp
/// \brief Differential suite for the sequential multi-section descent: the
///        OnlineMultisection (a min-load tree per wide parent, the key scan
///        or dense scan elsewhere) against a test-only copy of the per-layer
///        dense scan every layer used to run. Covers regular and b-section
///        trees on both sides of the tree fan-out cutoff, pass-through
///        layers, unequal children, weighted nodes and the all-full
///        fallback, the Fennel and LDG scorers, hybrid hashing layers,
///        restreaming unassign and a checkpoint kill-and-resume mid-stream.
///        Randomness derives from OMS_TEST_SEED; every failure prints the
///        seed that reproduces it.
#include "oms/core/online_multisection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "oms/graph/graph_builder.hpp"
#include "oms/partition/restream.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

using testing::draw_seed;
using testing::test_seed;

std::string seed_note() {
  return "reproduce with OMS_TEST_SEED=" + std::to_string(test_seed());
}

enum class NodeWeights { kUnit, kWeighted, kWithZeros };

/// Locality-heavy random graph (so attraction matters) with a few long
/// edges; edge weights 1..4, node weights per \p mode.
CsrGraph random_graph(NodeId n, NodeWeights mode, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    NodeWeight w = 1;
    if (mode == NodeWeights::kWeighted) {
      w = 1 + static_cast<NodeWeight>(rng.next_below(5));
    } else if (mode == NodeWeights::kWithZeros) {
      w = rng.next_bool(0.25) ? 0 : 1 + static_cast<NodeWeight>(rng.next_below(3));
    }
    builder.set_node_weight(u, w);
  }
  for (NodeId u = 0; u < n; ++u) {
    for (int d = 0; d < 4; ++d) {
      const NodeId v = d < 3 ? static_cast<NodeId>((u + 1 + rng.next_below(24)) % n)
                             : static_cast<NodeId>(rng.next_below(n));
      if (v != u) {
        builder.add_edge(u, v, 1 + static_cast<EdgeWeight>(rng.next_below(4)));
      }
    }
  }
  return std::move(builder).build();
}

/// Test-only copy of the per-layer dense descent: every layer scores every
/// child in ascending order (best score, then lighter child), falls back to
/// the child with the most room when all are full, and hashes with forward
/// probing below config.quality_layers. Runs \p passes restreaming passes
/// over the finalized \p tree. Counts all-full fallbacks into \p fallbacks.
std::vector<BlockId> dense_descent(const CsrGraph& g, const MultisectionTree& tree,
                                   const OmsConfig& config, int passes,
                                   int& fallbacks) {
  std::vector<NodeWeight> load(tree.num_blocks(), 0);
  std::vector<EdgeWeight> gathered;
  std::vector<BlockId> assignment(g.num_nodes(), kInvalidBlock);
  for (int pass = 0; pass < passes; ++pass) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const NodeWeight nw = g.node_weight(u);
      if (pass > 0) {
        // Unassign: remove u from every non-root block on its path.
        std::size_t id = tree.leaf_block_id(assignment[u]);
        while (tree.block(id).parent >= 0) {
          load[id] -= nw;
          id = static_cast<std::size_t>(tree.block(id).parent);
        }
        assignment[u] = kInvalidBlock;
      }
      std::size_t current = 0;
      while (!tree.block(current).is_leaf()) {
        const MultisectionTree::Block& parent = tree.block(current);
        const std::int32_t b = parent.num_children;
        const auto first = static_cast<std::size_t>(parent.first_child);
        const auto room = [&](std::int32_t idx) {
          const std::size_t c = first + static_cast<std::size_t>(idx);
          return load[c] + nw <= tree.capacity_of(c);
        };
        std::int32_t choice = -1;
        if (b == 1) {
          choice = 0;
        } else if (parent.depth >= config.quality_layers) {
          const std::uint64_t h =
              hash_combine(static_cast<std::uint64_t>(u) ^ config.seed, current);
          const auto start = static_cast<std::int32_t>(h % static_cast<std::uint64_t>(b));
          for (std::int32_t probe = 0; probe < b && choice < 0; ++probe) {
            const std::int32_t idx = (start + probe) % b;
            if (room(idx)) {
              choice = idx;
            }
          }
        } else {
          gathered.assign(static_cast<std::size_t>(b), 0);
          const auto neighbors = g.neighbors(u);
          const auto weights = g.incident_weights(u);
          for (std::size_t i = 0; i < neighbors.size(); ++i) {
            const BlockId leaf = assignment[neighbors[i]];
            for (std::int32_t idx = 0; idx < b && leaf != kInvalidBlock; ++idx) {
              const MultisectionTree::Block& child =
                  tree.block(first + static_cast<std::size_t>(idx));
              if (leaf >= child.leaf_begin && leaf < child.leaf_end) {
                gathered[static_cast<std::size_t>(idx)] += weights[i];
              }
            }
          }
          double best_score = 0.0;
          NodeWeight best_weight = 0;
          for (std::int32_t idx = 0; idx < b; ++idx) {
            if (!room(idx)) {
              continue;
            }
            const std::size_t c = first + static_cast<std::size_t>(idx);
            const NodeWeight w = load[c];
            const auto attraction = static_cast<double>(gathered[static_cast<std::size_t>(idx)]);
            const double score =
                config.scorer == ScorerKind::kFennel
                    ? attraction - tree.penalty_factor_of(c) * std::sqrt(static_cast<double>(w))
                    : attraction * (1.0 - static_cast<double>(w) /
                                              static_cast<double>(tree.capacity_of(c)));
            if (choice < 0 || score > best_score ||
                (score == best_score && w < best_weight)) {
              choice = idx;
              best_score = score;
              best_weight = w;
            }
          }
        }
        if (choice < 0) {
          ++fallbacks;
          NodeWeight best_room = std::numeric_limits<NodeWeight>::min();
          for (std::int32_t idx = 0; idx < b; ++idx) {
            const std::size_t c = first + static_cast<std::size_t>(idx);
            if (tree.capacity_of(c) - load[c] > best_room) {
              best_room = tree.capacity_of(c) - load[c];
              choice = idx;
            }
          }
        }
        current = first + static_cast<std::size_t>(choice);
        load[current] += nw;
      }
      assignment[u] = tree.block(current).leaf_begin;
    }
  }
  return assignment;
}

/// A tree shape of the search space: a regular hierarchy or a b-section.
struct Shape {
  std::string name;
  std::string extents; ///< regular tree (SystemHierarchy notation); empty = b-section
  BlockId k = 0;       ///< b-section only
  int base = 4;        ///< b-section only
};

std::unique_ptr<OnlineMultisection> make_oms(const CsrGraph& g, const Shape& shape,
                                             const OmsConfig& config) {
  if (shape.extents.empty()) {
    OmsConfig c = config;
    c.base = shape.base;
    return std::make_unique<OnlineMultisection>(g.num_nodes(), g.num_edges(),
                                                g.total_node_weight(), shape.k, c);
  }
  // Distances do not reach the descent; one per level is all parse needs.
  std::string distances = "1";
  for (const char c : shape.extents) {
    distances += c == ':' ? ":1" : "";
  }
  const SystemHierarchy topo = SystemHierarchy::parse(shape.extents, distances);
  return std::make_unique<OnlineMultisection>(g.num_nodes(), g.num_edges(),
                                              g.total_node_weight(), topo, config);
}

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> all{
      {"4:16:4", "4:16:4"},        // fan-outs 4 and 16: scan and tree layers
      {"4:16:64", "4:16:64"},      // the paper's process-mapping shape
      {"4:16:1", "4:16:1"},        // extent-1 pass-through root
      {"2:32", "2:32"},            // a tree layer over narrow children
      {"8:8", "8:8"},              // below the cutoff everywhere
      {"bsec272/16", "", 272, 16}, // equal root children, unequal below
      {"bsec300/32", "", 300, 32}, // unequal children: no key scan, no tree
      {"bsec4096/64", "", 4096, 64},
  };
  return all;
}

/// Runs \p check for every shape, scorer, quality_layers, weight mode and
/// epsilon of the search space with a fresh seeded graph. With \p full
/// false, unit node weights and quality_layers = 1 are left out (the
/// sanitizer legs run this suite; the one-pass test covers them).
template <typename Check>
void for_each_case(NodeId n, bool full, Check&& check) {
  constexpr int kAll = std::numeric_limits<int>::max();
  const std::vector<int> layer_counts =
      full ? std::vector<int>{kAll, 1, 2} : std::vector<int>{kAll, 2};
  const std::vector<NodeWeights> modes =
      full ? std::vector<NodeWeights>{NodeWeights::kUnit, NodeWeights::kWeighted,
                                      NodeWeights::kWithZeros}
           : std::vector<NodeWeights>{NodeWeights::kWeighted, NodeWeights::kWithZeros};
  std::uint64_t draw = 0;
  for (const Shape& shape : shapes()) {
    for (const ScorerKind scorer : {ScorerKind::kFennel, ScorerKind::kLdg}) {
      for (const int quality_layers : layer_counts) {
        for (const NodeWeights mode : modes) {
          for (const double eps : {0.0, 0.03}) {
            const CsrGraph g = random_graph(n, mode, draw_seed(++draw));
            OmsConfig config;
            config.scorer = scorer;
            config.quality_layers = quality_layers;
            config.epsilon = eps;
            config.seed = draw;
            SCOPED_TRACE(shape.name + " scorer=" + scorer_name(scorer) +
                         " quality_layers=" + std::to_string(quality_layers) +
                         " mode=" + std::to_string(static_cast<int>(mode)) +
                         " eps=" + std::to_string(eps));
            check(g, shape, config);
          }
        }
      }
    }
  }
}

TEST(OmsDescentSelect, OnePassMatchesDenseScan) {
  SCOPED_TRACE(seed_note());
  int fallbacks = 0;
  for_each_case(600, /*full=*/true, [&](const CsrGraph& g, const Shape& shape, const OmsConfig& config) {
    auto oms = make_oms(g, shape, config);
    const StreamResult r = run_one_pass(g, *oms, 1);
    ASSERT_EQ(r.assignment, dense_descent(g, oms->tree(), config, 1, fallbacks));
    // The model count stays Theta(sum of fan-outs); the measured count never
    // exceeds it.
    EXPECT_LE(r.work.candidate_evaluations, r.work.score_evaluations);
  });
  // eps = 0 with weighted nodes saturates blocks: the all-full fallback of
  // the dense scan must have been exercised (and matched).
  EXPECT_GT(fallbacks, 0);
}

TEST(OmsDescentSelect, RestreamUnassignMatchesDenseScan) {
  SCOPED_TRACE(seed_note());
  int fallbacks = 0;
  for_each_case(300, /*full=*/false, [&](const CsrGraph& g, const Shape& shape, const OmsConfig& config) {
    auto oms = make_oms(g, shape, config);
    ASSERT_EQ(restream(g, *oms, 3).assignment,
              dense_descent(g, oms->tree(), config, 3, fallbacks));
  });
}

TEST(OmsDescentSelect, CheckpointResumeMidStreamMatchesDenseScan) {
  // Kill after a random prefix, resume a fresh assigner from the snapshot:
  // its trees are rebuilt from the restored weights.
  SCOPED_TRACE(seed_note());
  int fallbacks = 0;
  Rng rng(draw_seed(4242));
  for_each_case(300, /*full=*/false, [&](const CsrGraph& g, const Shape& shape, const OmsConfig& config) {
    const auto cut = static_cast<NodeId>(1 + rng.next_below(g.num_nodes() - 1));
    WorkCounters counters;
    CheckpointWriter w;
    {
      auto first = make_oms(g, shape, config);
      first->prepare(1);
      for (NodeId u = 0; u < cut; ++u) {
        (void)first->assign({u, g.node_weight(u), g.neighbors(u), g.incident_weights(u)},
                            0, counters);
      }
      ASSERT_TRUE(first->save_stream_state(w));
    }
    auto resumed = make_oms(g, shape, config);
    resumed->prepare(1);
    CheckpointReader r(w.bytes());
    ASSERT_TRUE(resumed->load_stream_state(r));
    for (NodeId u = cut; u < g.num_nodes(); ++u) {
      (void)resumed->assign({u, g.node_weight(u), g.neighbors(u), g.incident_weights(u)},
                            0, counters);
    }
    ASSERT_EQ(resumed->take_assignment(),
              dense_descent(g, resumed->tree(), config, 1, fallbacks))
        << "killed after " << cut << " nodes";
  });
}

TEST(OmsDescentSelect, AssignAfterOfflineMultipassSeesExactTrees) {
  // run_offline_multipass adds weights outside the descent; a restreaming
  // pass afterwards must agree with one on a fresh assigner restored from
  // the same state (whose trees are rebuilt from the weights).
  SCOPED_TRACE(seed_note());
  const CsrGraph g = random_graph(1500, NodeWeights::kWeighted, draw_seed(77));
  OmsConfig config;
  const Shape shape{"4:16:64", "4:16:64"};
  auto offline = make_oms(g, shape, config);
  (void)offline->run_offline_multipass(g);
  CheckpointWriter w;
  ASSERT_TRUE(offline->save_stream_state(w));
  auto restored = make_oms(g, shape, config);
  restored->prepare(1);
  CheckpointReader r(w.bytes());
  ASSERT_TRUE(restored->load_stream_state(r));
  WorkCounters counters;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const StreamedNode node{u, g.node_weight(u), g.neighbors(u), g.incident_weights(u)};
    offline->unassign(u, node.weight);
    restored->unassign(u, node.weight);
    ASSERT_EQ(offline->assign(node, 0, counters), restored->assign(node, 0, counters))
        << "node " << u;
  }
}

TEST(OmsDescentSelect, NegativeEdgeWeightsFallBackToTheScan) {
  // The METIS reader rejects edge weights below 1, but a library caller can
  // still hand the assigner such a StreamedNode. Sixteen isolated nodes
  // fill the sixteen children evenly, so child 0 is the lightest; node 16
  // is repelled from it (attraction -5). A zero-attraction sibling must win,
  // as in the scan, although no attracted child but child 0 exists.
  const SystemHierarchy topo = SystemHierarchy::parse("16", "1");
  OmsConfig config;
  OnlineMultisection tree(17, 1, 17, topo, config);
  OnlineMultisection scan(17, 1, 17, topo, config);
  tree.prepare(1);
  scan.prepare(2);
  WorkCounters counters;
  const std::vector<NodeId> neighbor{0};
  const std::vector<EdgeWeight> repulsion{-5};
  for (NodeId u = 0; u <= 16; ++u) {
    const StreamedNode node = u < 16 ? StreamedNode{u, 1, {}, {}}
                                     : StreamedNode{u, 1, neighbor, repulsion};
    ASSERT_EQ(tree.assign(node, 0, counters), scan.assign(node, 0, counters))
        << "node " << u;
  }
  EXPECT_NE(tree.block_of(16), 0);
}

TEST(OmsDescentSelect, ConcurrentPrepareKeepsTheScans) {
  // prepare(threads > 1) keeps no trees; one thread driving the assigner
  // then must still produce the sequential answer, at the full scan cost.
  SCOPED_TRACE(seed_note());
  const CsrGraph g = random_graph(1200, NodeWeights::kWeighted, draw_seed(999));
  for (const ScorerKind scorer : {ScorerKind::kFennel, ScorerKind::kLdg}) {
    OmsConfig config;
    config.scorer = scorer;
    const Shape shape{"4:16:64", "4:16:64"};
    auto tree = make_oms(g, shape, config);
    auto scan = make_oms(g, shape, config);
    tree->prepare(1);
    scan->prepare(2);
    WorkCounters tree_work;
    WorkCounters scan_work;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const StreamedNode node{u, g.node_weight(u), g.neighbors(u), g.incident_weights(u)};
      ASSERT_EQ(tree->assign(node, 0, tree_work), scan->assign(node, 0, scan_work))
          << scorer_name(scorer) << " node " << u;
    }
    const auto per_node = static_cast<std::uint64_t>(4 + 16 + 64);
    EXPECT_EQ(tree_work.score_evaluations, per_node * g.num_nodes());
    EXPECT_EQ(scan_work.score_evaluations, per_node * g.num_nodes());
    EXPECT_EQ(scan_work.candidate_evaluations, per_node * g.num_nodes());
    EXPECT_LT(tree_work.candidate_evaluations, scan_work.candidate_evaluations / 2);
  }
}

} // namespace
} // namespace oms
