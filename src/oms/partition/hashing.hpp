/// \file hashing.hpp
/// \brief The Hashing streaming partitioner of Stanton & Kliot: assign each
///        node to hash(id) mod k in O(1), ignoring the graph structure.
///
/// Following the paper's experimental setup ("All partitions computed by all
/// algorithms were balanced"), a node whose hashed block is already at its
/// capacity Lmax is linearly probed to the next block with room — an O(1)
/// expected-time correction that keeps the balance guarantee without
/// changing the algorithm's character.
#pragma once

#include <vector>

#include "oms/partition/partition_config.hpp"
#include "oms/stream/block_weights.hpp"
#include "oms/stream/one_pass_driver.hpp"

namespace oms {

class HashingPartitioner final : public OnePassAssigner {
public:
  /// \param total_node_weight used to compute Lmax for the overflow probe.
  HashingPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                     const PartitionConfig& config);

  void prepare(int num_threads) override;
  BlockId assign(const StreamedNode& node, int thread_id,
                 WorkCounters& counters) override;
  [[nodiscard]] BlockId block_of(NodeId u) const override { return assignment_[u]; }
  [[nodiscard]] BlockId num_blocks() const override { return config_.k; }
  [[nodiscard]] std::vector<BlockId> take_assignment() override {
    return std::move(assignment_);
  }

  /// State footprint for the memory experiment: assignment + block weights.
  [[nodiscard]] std::uint64_t state_bytes() const noexcept;

  // Checkpoint/resume: assignment + block weights are the whole cross-node
  // state (the hash itself is stateless in the seed).
  [[nodiscard]] bool save_stream_state(CheckpointWriter& w) const override;
  [[nodiscard]] bool load_stream_state(CheckpointReader& r) override;
  void stamp_checkpoint(CheckpointMeta& meta) const override;

private:
  PartitionConfig config_;
  NodeWeight max_block_weight_;
  std::vector<BlockId> assignment_;
  BlockWeights weights_;
};

} // namespace oms
