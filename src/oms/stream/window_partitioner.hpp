/// \file window_partitioner.hpp
/// \brief Sliding-window streaming partitioning in the style of WStream
///        (Patwary et al., the paper's reference [29]): keep a small window
///        of undecided nodes; when the window is full, permanently assign
///        the *oldest* node using what the window reveals about its
///        neighborhood, then slide on.
///
/// The window lets a node's decision see a little of its *future* (its
/// younger neighbors inside the window still count toward block affinity
/// once those get assigned later — and, conversely, the node's own decision
/// is delayed until some of its neighbors have arrived). Each delayed node's
/// adjacency is stored inside the window itself (a ring of reusable slots),
/// so the partitioner needs no backing graph: it runs one-pass from disk via
/// run_stream exactly like the undelayed algorithms, with state
/// O(window adjacency + k), strictly between one-pass and buffered
/// streaming.
#pragma once

#include <vector>

#include "oms/partition/partition_config.hpp"
#include "oms/stream/block_weights.hpp"
#include "oms/stream/one_pass_driver.hpp"

namespace oms {

struct WindowConfig {
  NodeId window_size = 1024;
  double epsilon = 0.03;
  std::uint64_t seed = 1;
};

/// Implements the one-pass assigner interface so the standard drivers work,
/// but internally delays each decision by up to window_size nodes. assign()
/// returns the block of the node that *leaves* the window (or of the
/// incoming node once the stream drains at take_assignment() time); callers
/// that need the final placement should read the assignment, not the return
/// values. Sequential use only (the window is inherently ordered).
class WindowPartitioner final : public OnePassAssigner {
public:
  WindowPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                    const WindowConfig& config, BlockId k);

  void prepare(int num_threads) override;
  BlockId assign(const StreamedNode& node, int thread_id,
                 WorkCounters& counters) override;
  [[nodiscard]] BlockId block_of(NodeId u) const override { return assignment_[u]; }
  [[nodiscard]] BlockId num_blocks() const override { return k_; }
  [[nodiscard]] std::vector<BlockId> take_assignment() override;

private:
  /// One delayed node, adjacency and all. Slots are recycled as the ring
  /// advances, so their vectors' capacity amortizes to zero allocation.
  struct Slot {
    NodeId id = 0;
    NodeWeight weight = 1;
    std::vector<NodeId> neighbors;
    std::vector<EdgeWeight> edge_weights;
  };

  /// Permanently place the oldest windowed node with an LDG-style score over
  /// its already-assigned neighbors.
  void flush_one(WorkCounters& counters);

  WindowConfig config_;
  BlockId k_;
  NodeWeight max_block_weight_;
  std::vector<BlockId> assignment_;
  BlockWeights weights_;
  std::vector<Slot> ring_; // capacity window_size + 1 (push, then flush)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::vector<EdgeWeight> gather_;
  std::vector<BlockId> touched_;
};

} // namespace oms
