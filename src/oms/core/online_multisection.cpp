#include "oms/core/online_multisection.hpp"

#include "oms/stream/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "oms/partition/flat_block_loads.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/partition/sparse_select.hpp"
#include "oms/util/random.hpp"

namespace oms {
namespace {

[[nodiscard]] MultisectionTree make_finalized_tree(MultisectionTree tree, NodeId n,
                                                   EdgeIndex m,
                                                   NodeWeight total_node_weight,
                                                   const OmsConfig& config) {
  const BlockId k = tree.num_final_blocks();
  const NodeWeight lmax = max_block_weight(total_node_weight, k, config.epsilon);
  const double alpha_global =
      config.alpha_override.value_or(FennelParams::standard(n, m, k).alpha);
  tree.finalize(lmax, alpha_global, config.adapted_alpha);
  return tree;
}

} // namespace

OnlineMultisection::OnlineMultisection(NodeId num_nodes, EdgeIndex num_edges,
                                       NodeWeight total_node_weight,
                                       const SystemHierarchy& topology,
                                       const OmsConfig& config)
    : OnlineMultisection(
          num_nodes, num_edges, total_node_weight,
          MultisectionTree::regular(topology.extents_top_down()), config) {}

OnlineMultisection::OnlineMultisection(NodeId num_nodes, EdgeIndex num_edges,
                                       NodeWeight total_node_weight, BlockId k,
                                       const OmsConfig& config)
    : OnlineMultisection(num_nodes, num_edges, total_node_weight,
                         MultisectionTree::b_section(k, config.base), config) {}

OnlineMultisection::OnlineMultisection(NodeId num_nodes, EdgeIndex num_edges,
                                       NodeWeight total_node_weight,
                                       MultisectionTree tree, const OmsConfig& config)
    : tree_(make_finalized_tree(std::move(tree), num_nodes, num_edges,
                                total_node_weight, config)),
      config_(config),
      assignment_(num_nodes),
      weights_(tree_.num_blocks()),
      sqrt_(tree_.root().capacity) {
  for (std::size_t id = 0; id < tree_.num_blocks(); ++id) {
    max_children_ = std::max(max_children_, tree_.block(id).num_children);
  }
}

void OnlineMultisection::prepare(int num_threads) {
  // Sequential passes scan sibling weights densely; concurrent passes hammer
  // the few top-layer counters from every thread, so spread them one per
  // cache line (Section 3.4's shared state, minus the false sharing).
  weights_.set_layout(num_threads > 1 ? BlockWeights::Layout::kPadded
                                      : BlockWeights::Layout::kDense);
  scratch_.assign(static_cast<std::size_t>(num_threads), DescentScratch{});
  for (DescentScratch& s : scratch_) {
    s.gathered.assign(static_cast<std::size_t>(max_children_), 0);
    s.key_scratch.assign(static_cast<std::size_t>(max_children_), 0);
  }
  // Racy relaxed adds of concurrent passes cannot keep a tree consistent.
  trees_live_ = num_threads == 1;
  rebuild_min_trees();
}

void OnlineMultisection::rebuild_min_trees() {
  if (!trees_live_) {
    return;
  }
  min_trees_.resize(2 * tree_.num_blocks());
  for (std::size_t id = 0; id < tree_.num_blocks(); ++id) {
    const MultisectionTree::Block& parent = tree_.block(id);
    if (keeps_min_tree(parent)) {
      const auto first = static_cast<std::size_t>(parent.first_child);
      min_tree_of(parent).build([this, first](std::int32_t i) {
        return weights_.load(first + static_cast<std::size_t>(i));
      });
    }
  }
}

void OnlineMultisection::add_block_weight(std::size_t block_id, NodeWeight delta) {
  weights_.add(block_id, delta);
  const std::int32_t parent_id = tree_.block(block_id).parent;
  OMS_ASSERT_MSG(parent_id >= 0, "the root carries no tracked weight");
  const MultisectionTree::Block& parent = tree_.block(static_cast<std::size_t>(parent_id));
  if (trees_live_ && keeps_min_tree(parent)) {
    const auto first = static_cast<std::size_t>(parent.first_child);
    min_tree_of(parent).update(static_cast<std::int32_t>(block_id - first),
                               [this, first](std::int32_t i) {
                                 return weights_.load(first + static_cast<std::size_t>(i));
                               });
  }
}

BlockId OnlineMultisection::assign(const StreamedNode& node, int thread_id,
                                   WorkCounters& counters) {
  if (weights_.layout() == BlockWeights::Layout::kPadded) {
    return assign_impl(weights_.view<BlockWeights::Layout::kPadded>(), node,
                       thread_id, counters);
  }
  return assign_impl(weights_.view<BlockWeights::Layout::kDense>(), node, thread_id,
                     counters);
}

template <typename WeightsView>
BlockId OnlineMultisection::assign_impl(WeightsView weights, const StreamedNode& node,
                                        int thread_id, WorkCounters& counters) {
  DescentScratch& scratch = scratch_[static_cast<std::size_t>(thread_id)];
  const std::size_t degree = node.neighbors.size();
  if (scratch.leaves.size() < degree) {
    scratch.leaves.resize(degree);
    scratch.edge_weights.resize(degree);
    scratch.touched.resize(degree);
  }
  EdgeWeight* const gathered = scratch.gathered.data();
  std::int32_t* const touched = scratch.touched.data();

  // Frontier of (leaf, edge-weight) pairs of already-assigned neighbors that
  // still lie inside the subtree descended into so far. Filled by a single
  // scan of the neighbor list at the top quality layer, then filtered in
  // place as each layer narrows the subtree.
  std::size_t frontier = 0;
  bool frontier_built = false;

  std::size_t current = 0; // root
  while (!tree_.block(current).is_leaf()) {
    const MultisectionTree::Block& parent = tree_.block(current);
    const auto children = static_cast<std::size_t>(parent.num_children);
    const ScorerKind scorer = (parent.depth < config_.quality_layers)
                                  ? config_.scorer
                                  : ScorerKind::kHashing;

    // Gather neighbor attraction per candidate child, recording each child
    // the moment its attraction leaves zero. Hashing ignores the
    // neighborhood entirely (that is what makes the hybrid layers cheap —
    // Theorem 3's O(1) per hashed layer); quality layers form a prefix of
    // the descent, so the frontier is never needed again once hashing starts.
    std::size_t num_touched = 0;
    const auto gather = [&](BlockId leaf, EdgeWeight w) {
      const std::int32_t child = MultisectionTree::child_index_of_leaf(parent, leaf);
      EdgeWeight& g = gathered[static_cast<std::size_t>(child)];
      touched[num_touched] = child;
      num_touched += g == 0 ? 1 : 0;
      g += w;
    };
    if (scorer != ScorerKind::kHashing) {
      if (!frontier_built) {
        frontier_built = true;
        counters.neighbor_visits += degree;
        for (std::size_t i = 0; i < degree; ++i) {
          const BlockId leaf = assignment_.load(node.neighbors[i]);
          if (leaf == kInvalidBlock || leaf < parent.leaf_begin ||
              leaf >= parent.leaf_end) {
            continue; // unassigned, or assigned outside this subtree
          }
          const EdgeWeight w = node.edge_weights[i];
          gather(leaf, w);
          scratch.leaves[frontier] = leaf;
          scratch.edge_weights[frontier] = w;
          ++frontier;
        }
      } else {
        counters.neighbor_visits += frontier;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < frontier; ++i) {
          const BlockId leaf = scratch.leaves[i];
          if (leaf < parent.leaf_begin || leaf >= parent.leaf_end) {
            continue; // assigned outside the subtree chosen last layer
          }
          const EdgeWeight w = scratch.edge_weights[i];
          gather(leaf, w);
          scratch.leaves[kept] = leaf;
          scratch.edge_weights[kept] = w;
          ++kept;
        }
        frontier = kept;
      }
    }

    const auto first = static_cast<std::size_t>(parent.first_child);
    const bool min_tree = trees_live_ && keeps_min_tree(parent);
    std::int32_t choice = -1;
    if (min_tree) {
      choice = pick_child_sparse(
          weights, parent, node, gathered,
          std::span<const std::int32_t>(touched, num_touched),
          min_tree_of(parent).min_index(), scorer, counters);
    }
    if (choice < 0) {
      choice = pick_child(weights, parent, node,
                          std::span<const EdgeWeight>(gathered, children), scorer,
                          current, scratch.key_scratch.data(), counters);
    }
    for (std::size_t t = 0; t < num_touched; ++t) {
      gathered[static_cast<std::size_t>(touched[t])] = 0;
    }

    const std::size_t child_id = first + static_cast<std::size_t>(choice);
    weights.add(child_id, node.weight);
    if (min_tree) {
      min_tree_of(parent).update(choice, [weights, first](std::int32_t i) {
        return weights.load(first + static_cast<std::size_t>(i));
      });
    }
    counters.layers_traversed += 1;
    current = child_id;
  }

  const BlockId final_block = tree_.block(current).leaf_begin;
  assignment_.store(node.id, final_block);
  return final_block;
}

template <typename WeightsView>
std::int32_t OnlineMultisection::pick_child_sparse(
    WeightsView weights, const MultisectionTree::Block& parent,
    const StreamedNode& node, const EdgeWeight* gathered,
    std::span<const std::int32_t> touched, std::int32_t lightest, ScorerKind scorer,
    WorkCounters& counters) const {
  // The dominance argument of sparse_select.hpp: siblings share (capacity,
  // Fennel factor), so every zero-attraction child with room scores the
  // same attraction (zero) under a penalty that does not decrease in the
  // weight, and the lightest (weight, index) child beats all of them. If the
  // lightest child is attracted instead, a positive attraction at the least
  // weight beats every zero-attraction child too. Scoring touched ∪
  // {lightest} in the (score, weight, index) order of BlockChoice therefore
  // returns the dense scan's winner. If even the lightest child has no room,
  // none has, and the all-full fallback's answer (most room) is the lightest.
  if (gathered[static_cast<std::size_t>(lightest)] < 0) {
    return -1;
  }
  const auto first = static_cast<std::size_t>(parent.first_child);
  const NodeWeight capacity = tree_.capacity_of(first);
  const double factor = tree_.penalty_factor_of(first);
  counters.score_evaluations += static_cast<std::uint64_t>(parent.num_children);
  counters.candidate_evaluations += touched.size() + 1;
  BlockChoice choice;
  const auto consider = [&](std::int32_t idx) {
    const NodeWeight w = weights.load(first + static_cast<std::size_t>(idx));
    if (w + node.weight > capacity) {
      return;
    }
    const auto attraction = static_cast<double>(gathered[static_cast<std::size_t>(idx)]);
    const double score =
        scorer == ScorerKind::kFennel
            ? attraction - factor * sqrt_(w)
            : attraction * (1.0 - static_cast<double>(w) / static_cast<double>(capacity));
    choice.offer(idx, score, w);
  };
  for (const std::int32_t idx : touched) {
    consider(idx);
  }
  consider(lightest);
  return choice.block != kInvalidBlock ? choice.block : lightest;
}

template <typename WeightsView>
std::int32_t OnlineMultisection::pick_child(WeightsView weights,
                                            const MultisectionTree::Block& parent,
                                            const StreamedNode& node,
                                            std::span<const EdgeWeight> gathered,
                                            ScorerKind scorer, std::size_t parent_id,
                                            std::int32_t* key_scratch,
                                            WorkCounters& counters) const {
  const std::int32_t children = parent.num_children;
  const auto first = static_cast<std::size_t>(parent.first_child);
  if (children == 1) {
    return 0; // pass-through layer (extent 1 in the hierarchy)
  }

  if (scorer == ScorerKind::kHashing) {
    // One hash, then forward probing on capacity overflow (same balance
    // fallback as the flat Hashing baseline). The reduction of the 64-bit
    // hash uses the block's precomputed magic instead of a hardware divide,
    // and the probe wraps by conditional subtraction — both exact.
    const std::uint64_t h = hash_combine(
        static_cast<std::uint64_t>(node.id) ^ config_.seed, parent_id);
    const auto start = static_cast<std::int32_t>(parent.mod_children.mod(h));
    counters.score_evaluations += 1;
    counters.candidate_evaluations += 1;
    for (std::int32_t probe = 0; probe < children; ++probe) {
      std::int32_t idx = start + probe;
      if (idx >= children) {
        idx -= children;
      }
      const std::size_t child_id = first + static_cast<std::size_t>(idx);
      if (weights.load(child_id) + node.weight <= tree_.capacity_of(child_id)) {
        return idx;
      }
    }
  } else if (scorer == ScorerKind::kFennel && parent.fennel_key_scan) {
    // Exact sparse-candidate selection (see sparse_select.hpp): siblings
    // share (capacity, alpha) on key-scan layers, so the winner among the
    // children is recoverable from the attracted children plus the
    // lexicographic-(weight, index)-min zero-attraction child. Bit-identical
    // to the dense loop below.
    counters.score_evaluations += static_cast<std::uint64_t>(children);
    counters.candidate_evaluations += static_cast<std::uint64_t>(children);
    const std::int32_t best = sparse_fennel_select(
        children, node.weight, tree_.capacity_of(first),
        tree_.penalty_factor_of(first), sqrt_,
        [&](std::int32_t idx) {
          return weights.load(first + static_cast<std::size_t>(idx));
        },
        [&](std::int32_t idx) { return gathered[static_cast<std::size_t>(idx)]; },
        key_scratch);
    if (best >= 0) {
      return best;
    }
  } else {
    counters.score_evaluations += static_cast<std::uint64_t>(children);
    counters.candidate_evaluations += static_cast<std::uint64_t>(children);
    std::int32_t best = -1;
    double best_score = 0.0;
    NodeWeight best_weight = 0;
    for (std::int32_t idx = 0; idx < children; ++idx) {
      const std::size_t child_id = first + static_cast<std::size_t>(idx);
      const NodeWeight capacity = tree_.capacity_of(child_id);
      const NodeWeight w = weights.load(child_id);
      if (w + node.weight > capacity) {
        continue;
      }
      double score = 0.0;
      const auto attraction =
          static_cast<double>(gathered[static_cast<std::size_t>(idx)]);
      if (scorer == ScorerKind::kFennel) {
        score = attraction - tree_.penalty_factor_of(child_id) * sqrt_(w);
      } else { // LDG
        score = attraction *
                (1.0 - static_cast<double>(w) / static_cast<double>(capacity));
      }
      if (best < 0 || score > best_score ||
          (score == best_score && w < best_weight)) {
        best = idx;
        best_score = score;
        best_weight = w;
      }
    }
    if (best >= 0) {
      return best;
    }
  }

  // Every child is (transiently, under parallel overshoot) at capacity:
  // take the one with the most remaining room.
  std::int32_t fallback = 0;
  NodeWeight best_room = std::numeric_limits<NodeWeight>::min();
  for (std::int32_t idx = 0; idx < children; ++idx) {
    const std::size_t child_id = first + static_cast<std::size_t>(idx);
    const NodeWeight room = tree_.capacity_of(child_id) - weights.load(child_id);
    if (room > best_room) {
      best_room = room;
      fallback = idx;
    }
  }
  return fallback;
}

// The offline multipass reference (offline_reference.cpp) scores through the
// same pick_child; it always runs sequentially, i.e. on the dense layout.
template std::int32_t
OnlineMultisection::pick_child(BlockWeights::View<BlockWeights::Layout::kDense>,
                               const MultisectionTree::Block&, const StreamedNode&,
                               std::span<const EdgeWeight>, ScorerKind, std::size_t,
                               std::int32_t*, WorkCounters&) const;

void OnlineMultisection::unassign(NodeId u, NodeWeight weight) {
  const BlockId leaf = assignment_.load(u);
  OMS_ASSERT_MSG(leaf != kInvalidBlock, "unassign of a never-assigned node");
  std::size_t id = tree_.leaf_block_id(leaf);
  while (tree_.block(id).parent >= 0) {
    add_block_weight(id, -weight);
    id = static_cast<std::size_t>(tree_.block(id).parent);
  }
  assignment_.store(u, kInvalidBlock);
}

std::uint64_t OnlineMultisection::state_bytes() const noexcept {
  return assignment_.footprint_bytes() + weights_.footprint_bytes() +
         static_cast<std::uint64_t>(min_trees_.size() * sizeof(std::int32_t)) +
         static_cast<std::uint64_t>(tree_.num_blocks() *
                                    sizeof(MultisectionTree::Block));
}

bool OnlineMultisection::save_stream_state(CheckpointWriter& w) const {
  save_assignment(w, assignment_);
  save_block_weights(w, weights_);
  return true;
}

bool OnlineMultisection::load_stream_state(CheckpointReader& r) {
  load_assignment(r, assignment_);
  load_block_weights(r, weights_);
  rebuild_min_trees();
  return true;
}

void OnlineMultisection::stamp_checkpoint(CheckpointMeta& meta) const {
  meta.algo = "oms";
  meta.seed = config_.seed;
}

} // namespace oms
