#include "oms/core/online_multisection.hpp"

#include "oms/stream/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "oms/partition/flat_block_loads.hpp"
#include "oms/partition/partition_config.hpp"
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
          MultisectionTree::regular(topology.extents_top_down()), topology, config) {}

OnlineMultisection::OnlineMultisection(NodeId num_nodes, EdgeIndex num_edges,
                                       NodeWeight total_node_weight, BlockId k,
                                       const OmsConfig& config)
    : OnlineMultisection(num_nodes, num_edges, total_node_weight,
                         MultisectionTree::b_section(k, config.base), std::nullopt,
                         config) {}

OnlineMultisection::OnlineMultisection(NodeId num_nodes, EdgeIndex num_edges,
                                       NodeWeight total_node_weight,
                                       MultisectionTree tree,
                                       std::optional<SystemHierarchy> topology,
                                       const OmsConfig& config)
    : tree_(make_finalized_tree(std::move(tree), num_nodes, num_edges,
                                total_node_weight, config)),
      config_(config),
      assignment_(num_nodes),
      weights_(tree_.num_blocks()),
      sqrt_(tree_.root().capacity),
      topology_(std::move(topology)),
      split_distance_(static_cast<std::size_t>(tree_.height()), 0) {
  for (std::size_t id = 0; id < tree_.num_blocks(); ++id) {
    max_children_ = std::max(max_children_, tree_.block(id).num_children);
  }
  if (topology_.has_value()) {
    // regular() spends one extent per depth, outermost first, so a parent
    // of depth i splits a level-(l - i) module.
    const std::vector<std::int64_t>& distances = topology_->distances();
    for (std::size_t depth = 0; depth < split_distance_.size(); ++depth) {
      split_distance_[depth] = distances[distances.size() - 1 - depth];
    }
  }
}

void OnlineMultisection::prepare(int num_threads) {
  scratch_.assign(static_cast<std::size_t>(num_threads), DescentScratch{});
  for (DescentScratch& s : scratch_) {
    s.gathered.assign(static_cast<std::size_t>(max_children_), 0);
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
  // Assign-time quality (counted_quality): `inside` is the frontier's edge
  // weight. What a quality layer does not pass on to the chosen child splits
  // from node at this parent, so it is cut and pays the parent's distance.
  EdgeWeight inside = 0;
  Cost cut = 0;
  Cost cost = 0;
  const MultisectionTree::Block* hashed_below = nullptr; // hybrid: see below

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
          inside += w;
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
    std::int32_t choice = 0;
    if (scorer != ScorerKind::kHashing && parent.equal_children_monotone_penalty) {
      BlockWeights::Slot lightest;
      if (min_tree) {
        lightest.block = static_cast<std::size_t>(min_tree_of(parent).min_index());
        lightest.weight = weights_.load(first + lightest.block);
      } else {
        lightest = weights_.lightest(first, first + children);
        lightest.block -= first;
      }
      choice = pick_child_sparse(parent, node, gathered,
                                 std::span<const std::int32_t>(touched, num_touched),
                                 lightest, scorer, counters);
    } else {
      choice = pick_child(parent, node, std::span<const EdgeWeight>(gathered, children),
                          scorer, current, counters);
    }
    const std::size_t child_id = first + static_cast<std::size_t>(choice);
    if (scorer != ScorerKind::kHashing) {
      const EdgeWeight split = inside - gathered[static_cast<std::size_t>(choice)];
      cut += split;
      cost += split * split_distance_[static_cast<std::size_t>(parent.depth)];
      inside -= split;
    } else if (frontier_built && hashed_below == nullptr) {
      hashed_below = &parent;
    }
    for (std::size_t t = 0; t < num_touched; ++t) {
      gathered[static_cast<std::size_t>(touched[t])] = 0;
    }

    weights_.add(child_id, node.weight);
    if (min_tree) {
      min_tree_of(parent).update(choice, [this, first](std::int32_t i) {
        return weights_.load(first + static_cast<std::size_t>(i));
      });
    }
    counters.layers_traversed += 1;
    current = child_id;
  }

  const BlockId final_block = tree_.block(current).leaf_begin;
  if (hashed_below != nullptr) {
    charge_survivors(*hashed_below, scratch, frontier, final_block, cut, cost);
  }
  counters.cut += cut;
  counters.mapping_j += cost;
  assignment_.store(node.id, final_block);
  return final_block;
}

void OnlineMultisection::charge_survivors(const MultisectionTree::Block& hashed,
                                          const DescentScratch& scratch,
                                          std::size_t frontier, BlockId final_block,
                                          Cost& cut, Cost& cost) const {
  for (std::size_t i = 0; i < frontier; ++i) {
    const BlockId leaf = scratch.leaves[i];
    if (leaf < hashed.leaf_begin || leaf >= hashed.leaf_end || leaf == final_block) {
      continue;
    }
    const EdgeWeight w = scratch.edge_weights[i];
    cut += w;
    if (topology_.has_value()) {
      cost += w * topology_->distance(leaf, final_block);
    }
  }
}

std::int32_t OnlineMultisection::pick_child_sparse(const MultisectionTree::Block& parent,
                                                   const StreamedNode& node,
                                                   const EdgeWeight* gathered,
                                                   std::span<const std::int32_t> touched,
                                                   BlockWeights::Slot lightest,
                                                   ScorerKind scorer,
                                                   WorkCounters& counters) const {
  const auto first = static_cast<std::size_t>(parent.first_child);
  const NodeWeight capacity = tree_.capacity_of(first);
  const double factor = tree_.penalty_factor_of(first);
  counters.score_evaluations += static_cast<std::uint64_t>(parent.num_children);
  return select_touched_or_lightest(
      touched, gathered, parent.num_children, lightest, node.weight, capacity,
      [this, first](std::int32_t idx) {
        return weights_.load(first + static_cast<std::size_t>(idx));
      },
      [&](std::int32_t idx, NodeWeight w) {
        const auto attraction = static_cast<double>(gathered[static_cast<std::size_t>(idx)]);
        return scorer == ScorerKind::kFennel
                   ? attraction - factor * sqrt_(w)
                   : attraction *
                         (1.0 - static_cast<double>(w) / static_cast<double>(capacity));
      },
      counters);
}

std::int32_t OnlineMultisection::pick_child(const MultisectionTree::Block& parent,
                                            const StreamedNode& node,
                                            std::span<const EdgeWeight> gathered,
                                            ScorerKind scorer, std::size_t parent_id,
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
      if (weights_.load(child_id) + node.weight <= tree_.capacity_of(child_id)) {
        return idx;
      }
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
      const NodeWeight w = weights_.load(child_id);
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
    const NodeWeight room = tree_.capacity_of(child_id) - weights_.load(child_id);
    if (room > best_room) {
      best_room = room;
      fallback = idx;
    }
  }
  return fallback;
}

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
