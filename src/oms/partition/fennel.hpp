/// \file fennel.hpp
/// \brief Fennel (Tsourakakis et al., WSDM'14): one-pass partitioning with an
///        additive degree-based penalty. Node v goes to the block maximizing
///        |V_i intersect N(v)| - alpha * gamma * c(V_i)^(gamma-1) among blocks
///        with room, with gamma = 3/2 and alpha = sqrt(k) m / n^(3/2).
///        The paper models it at O(m + n*k) per pass — the state of the art
///        it races against. A sequential pass with the tuned objective
///        selects exactly in O(deg + log k) per node through a MinLoadTree;
///        concurrent passes and untuned objectives scan all k blocks.
#pragma once

#include <vector>

#include "oms/partition/flat_block_loads.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/util/assignment_array.hpp"
#include "oms/util/sqrt_cache.hpp"

namespace oms {

class FennelPartitioner final : public OnePassAssigner {
public:
  /// \param num_edges used for the standard alpha; pass an override through
  ///        \p params to study non-default objectives.
  FennelPartitioner(NodeId num_nodes, EdgeIndex num_edges,
                    NodeWeight total_node_weight, const PartitionConfig& config);
  FennelPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                    const PartitionConfig& config, const FennelParams& params);

  void prepare(int num_threads) override;
  BlockId assign(const StreamedNode& node, int thread_id,
                 WorkCounters& counters) override;
  [[nodiscard]] BlockId block_of(NodeId u) const override {
    return assignment_.load(u);
  }
  [[nodiscard]] BlockId num_blocks() const override { return config_.k; }
  [[nodiscard]] std::vector<BlockId> take_assignment() override {
    return assignment_.take();
  }
  [[nodiscard]] QualityCount counted_quality() const noexcept override {
    return QualityCount::kCut;
  }

  [[nodiscard]] const FennelParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t state_bytes() const noexcept;

  /// Restreaming support (ReFennel): remove \p u from its current block so a
  /// later assign() can re-place it with fresh scores.
  void unassign(NodeId u, NodeWeight weight);

  // Checkpoint/resume: assignment + block weights; alpha/gamma/caches are
  // config-derived and rebuilt by the constructor.
  [[nodiscard]] bool save_stream_state(CheckpointWriter& w) const override;
  [[nodiscard]] bool load_stream_state(CheckpointReader& r) override;
  void stamp_checkpoint(CheckpointMeta& meta) const override;

private:
  struct Scratch {
    std::vector<EdgeWeight> neighbor_weight;
    std::vector<BlockId> touched;
    std::vector<std::int32_t> candidates; // sparse-scan scratch, size k
  };

  PartitionConfig config_;
  FennelParams params_;
  NodeWeight max_block_weight_;
  /// alpha * gamma, hoisted out of the per-block score loop; identical to the
  /// left-associated product inside fennel_penalty().
  double penalty_factor_;
  bool tuned_gamma_; ///< gamma == 3/2: penalty is penalty_factor_ * sqrt(w)
  bool sparse_scan_; ///< exact sparse-candidate scan applicable (see assign)
  AssignmentArray assignment_;
  FlatBlockLoads loads_; ///< tree live on sequential passes with sparse_scan_
  SqrtCache sqrt_; ///< covers [0, max_block_weight_]
  std::vector<Scratch> scratch_;
};

} // namespace oms
