/// \file online_multisection.hpp
/// \brief Algorithm 1 of the paper: assign every streamed node permanently by
///        descending the multi-section tree layer by layer — recursive
///        multi-section "on the fly", in a single pass.
///
/// The assigner implements the generic one-pass interface, so the same
/// stream loop (run_stream, in memory or from disk, sequential or with
/// concurrent consumer threads) used by the baselines runs it unchanged.
///
/// Two modes:
///  * OMS   — a SystemHierarchy is given; the leaf order equals the PE
///    numbering, so the produced partition *is* the process mapping;
///  * nh-OMS — only k is given; an artificial base-b hierarchy (Algorithm 2)
///    turns the multi-section into a general graph partitioner with running
///    time O((m + n b) log_b k) (Theorem 4) instead of Fennel's O(m + n k).
///
/// Every quality layer whose children share a capacity selects like flat
/// Fennel/LDG: it scores the touched children plus the lightest one
/// (select_touched_or_lightest, partition/flat_block_loads.hpp). Sequential
/// passes find that child in a MinLoadTree on wide layers; narrow layers and
/// concurrent passes take one min scan over the children. All threads share
/// one dense BlockWeights array, as the paper's Section 3.4 does.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "oms/core/multisection_tree.hpp"
#include "oms/graph/csr_graph.hpp"
#include "oms/core/oms_config.hpp"
#include "oms/mapping/hierarchy.hpp"
#include "oms/stream/block_weights.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/util/assignment_array.hpp"
#include "oms/util/min_load_tree.hpp"
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
  /// The cut, plus J in OMS mode; nothing when the root layer is hashed
  /// (quality_layers < 1), since then no layer reads the neighbourhood.
  [[nodiscard]] QualityCount counted_quality() const noexcept override {
    if (config_.quality_layers < 1) {
      return QualityCount::kNone;
    }
    return topology_.has_value() ? QualityCount::kCutAndCost : QualityCount::kCut;
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
                     std::optional<SystemHierarchy> topology, const OmsConfig& config);

  /// Pick a child of \p parent for \p node by scanning all of its children;
  /// gathered[i] holds the weight of node's neighbors already assigned below
  /// child i. Serves the hashing layers and the quality layers without
  /// equal_children_monotone_penalty, and is the offline reference's oracle.
  [[nodiscard]] std::int32_t pick_child(const MultisectionTree::Block& parent,
                                        const StreamedNode& node,
                                        std::span<const EdgeWeight> gathered,
                                        ScorerKind scorer, std::size_t parent_id,
                                        WorkCounters& counters) const;

  /// The same choice as pick_child on a quality layer whose children share
  /// (capacity, Fennel factor): select_touched_or_lightest over the
  /// \p touched children and \p lightest, the lightest child (an index
  /// below \p parent) with the weight it was read at.
  [[nodiscard]] std::int32_t pick_child_sparse(const MultisectionTree::Block& parent,
                                               const StreamedNode& node,
                                               const EdgeWeight* gathered,
                                               std::span<const std::int32_t> touched,
                                               BlockWeights::Slot lightest,
                                               ScorerKind scorer,
                                               WorkCounters& counters) const;

  /// Sequential passes keep a MinLoadTree over the children of every quality
  /// layer parent whose children share (capacity, Fennel factor) and number
  /// at least kMinTreeFanout; narrower layers and concurrent passes find the
  /// lightest child with one min scan. Measured: on fan-out 4 the tree upkeep
  /// costs more than the O(b) scan it saves, on fan-out 8 they break even.
  static constexpr std::int32_t kMinTreeFanout = 16;
  [[nodiscard]] bool keeps_min_tree(const MultisectionTree::Block& parent) const noexcept {
    return parent.equal_children_monotone_penalty &&
           parent.num_children >= kMinTreeFanout &&
           parent.depth < config_.quality_layers;
  }
  /// Children are contiguous, so \p parent's tree sits at 2 * first_child in
  /// the forest and the trees of distinct parents never overlap.
  [[nodiscard]] MinLoadTreeView min_tree_of(const MultisectionTree::Block& parent) noexcept {
    return {min_trees_.data() + 2 * static_cast<std::size_t>(parent.first_child),
            parent.num_children};
  }
  void rebuild_min_trees();
  /// Cold-path weight change of one block that keeps its parent's tree exact.
  void add_block_weight(std::size_t block_id, NodeWeight delta);

  /// Per-thread descent state. `gathered` holds the per-child attraction of
  /// the current layer and is all zero between layers: `touched` lists the
  /// children a layer's gather made nonzero, and only those are cleared.
  /// `leaves`/`edge_weights` hold the shrinking frontier: the (final-block,
  /// edge-weight) pairs of the node's already-assigned neighbors that survive
  /// inside the subtree chosen so far. The neighbor list itself is scanned
  /// exactly once, at the top quality layer; deeper layers touch only
  /// survivors, so gather work per node is O(deg + survivors * layers)
  /// instead of O(deg * layers), and selection on a tree layer is
  /// O(touched + log b) instead of O(b).
  struct DescentScratch {
    std::vector<EdgeWeight> gathered;
    std::vector<BlockId> leaves;
    std::vector<EdgeWeight> edge_weights;
    std::vector<std::int32_t> touched; // one slot per frontier entry
  };

  /// Hybrid descents (quality_layers < height): adds the cut and J of the
  /// \p frontier entries inside \p hashed, the first hashed parent, which
  /// reached the last quality layer's child together with the node. Out of
  /// line, so the descent's hot loop stays as small as before the count.
  [[gnu::noinline]] void charge_survivors(const MultisectionTree::Block& hashed,
                                          const DescentScratch& scratch,
                                          std::size_t frontier, BlockId final_block,
                                          Cost& cut, Cost& cost) const;

  MultisectionTree tree_;
  OmsConfig config_;
  AssignmentArray assignment_;
  BlockWeights weights_; // one per tree block, atomics (Section 3.4)
  SqrtCache sqrt_; // covers [0, root capacity]: every Fennel penalty argument
  std::vector<DescentScratch> scratch_; // per thread
  std::int32_t max_children_ = 0;
  /// Flat forest of the min-load trees, 2 int32 per block id (see
  /// min_tree_of); only the child ranges of tree parents are in use. Exact
  /// iff trees_live_ (sequential passes).
  std::vector<std::int32_t> min_trees_;
  bool trees_live_ = false;
  // Assign-time quality (counted_quality); kept behind the descent's state.
  std::optional<SystemHierarchy> topology_; ///< OMS mode only
  /// Distance between two PEs whose deepest common tree block has depth i:
  /// they meet at hierarchy level num_levels() - i. All zero in nh-OMS mode.
  std::vector<Cost> split_distance_;
};

} // namespace oms
