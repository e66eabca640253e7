/// \file offline_reference.cpp
/// \brief The l-pass offline recursive multi-section (paper Section 3.1).
///
/// Pass d assigns every node from its depth-d block to one of that block's
/// children, exactly as the online algorithm does in its d-th descent step.
/// Because a pass-d decision only depends on nodes streamed earlier *in that
/// same pass*, the online single-pass compression is equivalent — the
/// property this reference exists to let tests verify.
#include <algorithm>

#include "oms/core/online_multisection.hpp"

namespace oms {

std::vector<BlockId> OnlineMultisection::run_offline_multipass(const CsrGraph& graph) {
  OMS_ASSERT_MSG(graph.num_nodes() == assignment_.size(),
                 "graph does not match the assigner's node count");
  // Reset all streaming state.
  weights_.reset();
  assignment_.fill(kInvalidBlock);
  prepare(1);
  // A local gathered array: the descent's own one must stay all zero.
  std::vector<EdgeWeight> gathered(static_cast<std::size_t>(max_children_));
  WorkCounters counters;

  // current_block[u] = tree block u is assigned to so far (root initially).
  std::vector<std::size_t> current_block(graph.num_nodes(), 0);

  for (std::int32_t pass = 0; pass < tree_.height(); ++pass) {
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      const std::size_t parent_id = current_block[u];
      const MultisectionTree::Block& parent = tree_.block(parent_id);
      if (parent.is_leaf()) {
        continue; // shallower branch of a heterogeneous tree
      }
      const StreamedNode node{u, graph.node_weight(u), graph.neighbors(u),
                              graph.incident_weights(u)};
      const auto children = static_cast<std::size_t>(parent.num_children);
      const ScorerKind scorer = (parent.depth < config_.quality_layers)
                                    ? config_.scorer
                                    : ScorerKind::kHashing;
      if (scorer != ScorerKind::kHashing) {
        std::fill_n(gathered.begin(), children, EdgeWeight{0});
        for (std::size_t i = 0; i < node.neighbors.size(); ++i) {
          // A neighbor contributes iff this pass already moved it into one of
          // parent's children — the multi-pass analogue of "assigned below
          // this subtree".
          const std::size_t nb = current_block[node.neighbors[i]];
          if (tree_.block(nb).parent == static_cast<std::int32_t>(parent_id)) {
            const auto idx = static_cast<std::size_t>(
                nb - static_cast<std::size_t>(parent.first_child));
            gathered[idx] += node.edge_weights[i];
          }
        }
      }
      // The dense scan of every layer: the oracle the descent's selection
      // rule must reproduce.
      const std::int32_t choice = pick_child(
          parent, node, std::span<const EdgeWeight>(gathered.data(), children), scorer,
          parent_id, counters);
      const auto child_id = static_cast<std::size_t>(parent.first_child + choice);
      add_block_weight(child_id, node.weight); // keeps a later assign()'s trees exact
      current_block[u] = child_id;
    }
  }

  std::vector<BlockId> result(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const MultisectionTree::Block& leaf = tree_.block(current_block[u]);
    OMS_ASSERT_MSG(leaf.is_leaf(), "node did not reach a leaf");
    result[u] = leaf.leaf_begin;
    assignment_.store(u, result[u]);
  }
  return result;
}

} // namespace oms
