/// \file ldg.hpp
/// \brief Linear Deterministic Greedy (Stanton & Kliot): assign node v to the
///        block maximizing |V_i intersect N(v)| * (1 - c(V_i)/Lmax), breaking
///        ties towards the lighter block. O(m + n*k) over a pass in the
///        paper's model; a sequential pass selects exactly in O(deg + log k)
///        per node through a MinLoadTree, concurrent passes scan all k.
#pragma once

#include <vector>

#include "oms/partition/flat_block_loads.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/util/assignment_array.hpp"

namespace oms {

class LdgPartitioner final : public OnePassAssigner {
public:
  LdgPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                 const PartitionConfig& config);

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

  [[nodiscard]] std::uint64_t state_bytes() const noexcept;

  /// Restreaming support (ReLDG): remove \p u from its current block so a
  /// later assign() can re-place it with fresh scores.
  void unassign(NodeId u, NodeWeight weight);

  // Checkpoint/resume: assignment + block weights (scratch is per-node).
  [[nodiscard]] bool save_stream_state(CheckpointWriter& w) const override;
  [[nodiscard]] bool load_stream_state(CheckpointReader& r) override;
  void stamp_checkpoint(CheckpointMeta& meta) const override;

private:
  struct Scratch {
    std::vector<EdgeWeight> neighbor_weight; // size k, reset via touched list
    std::vector<BlockId> touched;
  };

  PartitionConfig config_;
  NodeWeight max_block_weight_;
  AssignmentArray assignment_;
  FlatBlockLoads loads_; ///< tree live on sequential passes
  std::vector<Scratch> scratch_;
};

} // namespace oms
