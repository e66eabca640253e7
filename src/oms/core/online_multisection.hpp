/// \file online_multisection.hpp
/// \brief Algorithm 1 of the paper: assign every streamed node permanently by
///        descending the multi-section tree layer by layer — recursive
///        multi-section "on the fly", in a single pass.
///
/// The assigner implements the generic one-pass interface, so the same
/// drivers (sequential, OpenMP-parallel, disk-streaming) used by the
/// baselines run it unchanged.
///
/// Two modes:
///  * OMS   — a SystemHierarchy is given; the leaf order equals the PE
///    numbering, so the produced partition *is* the process mapping;
///  * nh-OMS — only k is given; an artificial base-b hierarchy (Algorithm 2)
///    turns the multi-section into a general graph partitioner with running
///    time O((m + n b) log_b k) (Theorem 4) instead of Fennel's O(m + n k).
#pragma once

#include <span>
#include <vector>

#include "oms/core/multisection_tree.hpp"
#include "oms/graph/csr_graph.hpp"
#include "oms/core/oms_config.hpp"
#include "oms/mapping/hierarchy.hpp"
#include "oms/stream/block_weights.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/util/assignment_array.hpp"
#include "oms/util/sqrt_cache.hpp"

namespace oms {

class OnlineMultisection final : public OnePassAssigner {
public:
  /// OMS mode: multi-section along the given topology.
  OnlineMultisection(NodeId num_nodes, EdgeIndex num_edges,
                     NodeWeight total_node_weight, const SystemHierarchy& topology,
                     const OmsConfig& config);

  /// nh-OMS mode: artificial base-b hierarchy over k final blocks.
  OnlineMultisection(NodeId num_nodes, EdgeIndex num_edges,
                     NodeWeight total_node_weight, BlockId k, const OmsConfig& config);

  // --- OnePassAssigner ------------------------------------------------
  void prepare(int num_threads) override;
  BlockId assign(const StreamedNode& node, int thread_id,
                 WorkCounters& counters) override;
  [[nodiscard]] BlockId block_of(NodeId u) const override {
    return assignment_.load(u);
  }
  [[nodiscard]] BlockId num_blocks() const override {
    return tree_.num_final_blocks();
  }
  [[nodiscard]] std::vector<BlockId> take_assignment() override {
    return assignment_.take();
  }

  // --- introspection ----------------------------------------------------
  [[nodiscard]] const MultisectionTree& tree() const noexcept { return tree_; }
  [[nodiscard]] const OmsConfig& config() const noexcept { return config_; }
  /// Weight currently accumulated in a tree block (leaf weights are the
  /// final block weights).
  [[nodiscard]] NodeWeight tree_block_weight(std::size_t block_id) const noexcept {
    return weights_.load(block_id);
  }
  /// Streaming state footprint: assignment + O(k) tree weights (Theorem 1).
  [[nodiscard]] std::uint64_t state_bytes() const noexcept;

  /// Restreaming support (remapping extension, Section 3.2): remove a node
  /// from every block on its root-to-leaf path so it can be re-placed.
  void unassign(NodeId u, NodeWeight weight);

  // Checkpoint/resume: assignment + per-tree-block weights; the tree and the
  // descent are deterministic functions of the config.
  [[nodiscard]] bool save_stream_state(CheckpointWriter& w) const override;
  [[nodiscard]] bool load_stream_state(CheckpointReader& r) override;
  void stamp_checkpoint(CheckpointMeta& meta) const override;

  /// The paper's *offline* recursive multi-section: height() successive
  /// passes over the graph, one tree layer per pass. Section 3.1 argues the
  /// online algorithm "produces exactly the same result as the version with
  /// l passes"; this reference implementation exists so tests can verify
  /// that equivalence bit-for-bit. Resets all assigner state.
  [[nodiscard]] std::vector<BlockId> run_offline_multipass(const CsrGraph& graph);

private:
  OnlineMultisection(NodeId num_nodes, EdgeIndex num_edges,
                     NodeWeight total_node_weight, MultisectionTree tree,
                     const OmsConfig& config);

  /// The descent body, stamped out per weight layout so the per-child weight
  /// loads carry a compile-time stride (a runtime stride measurably slows
  /// the wide layers). assign() dispatches once per node.
  template <typename WeightsView>
  BlockId assign_impl(WeightsView weights, const StreamedNode& node, int thread_id,
                      WorkCounters& counters);

  /// Pick a child of \p parent for \p node; gathered[i] holds the weight of
  /// node's neighbors already assigned below child i. \p touched_scratch
  /// must hold at least parent.num_children slots (used by the sparse
  /// Fennel key scan). Defined in online_multisection.cpp; the dense
  /// instantiation is exported for the offline reference.
  template <typename WeightsView>
  [[nodiscard]] std::int32_t pick_child(WeightsView weights,
                                        const MultisectionTree::Block& parent,
                                        const StreamedNode& node,
                                        std::span<const EdgeWeight> gathered,
                                        ScorerKind scorer, std::size_t parent_id,
                                        std::int32_t* touched_scratch,
                                        WorkCounters& counters) const;

  /// Per-thread descent state. `gathered` holds the per-child attraction of
  /// the current layer; `leaves`/`edge_weights` hold the shrinking frontier:
  /// the (final-block, edge-weight) pairs of the node's already-assigned
  /// neighbors that survive inside the subtree chosen so far. The neighbor
  /// list itself is scanned exactly once, at the top quality layer; deeper
  /// layers touch only survivors, so gather work per node is
  /// O(deg + survivors * layers) instead of O(deg * layers).
  struct DescentScratch {
    std::vector<EdgeWeight> gathered;
    std::vector<BlockId> leaves;
    std::vector<EdgeWeight> edge_weights;
    std::vector<std::int32_t> touched_children; // sparse-scan candidates
  };

  MultisectionTree tree_;
  OmsConfig config_;
  AssignmentArray assignment_;
  BlockWeights weights_; // one per tree block, atomics (Section 3.4)
  SqrtCache sqrt_; // covers [0, root capacity]: every Fennel penalty argument
  std::vector<DescentScratch> scratch_; // per thread
  std::int32_t max_children_ = 0;
};

} // namespace oms
