/// \file restream.hpp
/// \brief Restreaming one-pass partitioning (Nishimura & Ugander): run the
///        scoring pass several times over the input; from the second pass on
///        a node is first removed from its current block and then re-placed.
///
/// The paper cites ReLDG/ReFennel as related work and names "remapping" via
/// restreamed multi-section as a natural extension (Section 3.2); this module
/// provides the machinery for both.
#pragma once

#include <utility>

#include "oms/graph/csr_graph.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/stream/one_pass_driver.hpp"

namespace oms {

/// Extension of the one-pass interface for assigners that support
/// re-placement of already-assigned nodes.
class RestreamableAssigner : public OnePassAssigner {
public:
  /// Remove \p u (weight \p weight) from its current block; the next assign()
  /// for u re-places it. Only called for nodes already assigned.
  virtual void unassign_node(NodeId u, NodeWeight weight) = 0;
};

/// Result of a restreaming run: per-pass objective trace plus the final
/// assignment (taken from the assigner).
struct RestreamResult {
  std::vector<BlockId> assignment;
  std::vector<Cost> cut_per_pass;
  double elapsed_s = 0.0;
};

/// Run \p passes streaming passes of \p assigner over \p graph (sequential;
/// restreaming is defined on a fixed stream order). Records the edge-cut
/// after every pass.
[[nodiscard]] RestreamResult restream(const CsrGraph& graph,
                                      RestreamableAssigner& assigner, int passes);

/// Wraps a flat one-pass assigner that has unassign(u, weight) with the
/// restreaming hooks: ReFennel and ReLDG (Nishimura & Ugander).
template <typename Assigner>
class Restreamable final : public RestreamableAssigner {
public:
  template <typename... Args>
  explicit Restreamable(Args&&... args) : inner_(std::forward<Args>(args)...) {}

  void prepare(int num_threads) override { inner_.prepare(num_threads); }
  BlockId assign(const StreamedNode& node, int thread_id,
                 WorkCounters& counters) override {
    return inner_.assign(node, thread_id, counters);
  }
  [[nodiscard]] BlockId block_of(NodeId u) const override { return inner_.block_of(u); }
  [[nodiscard]] BlockId num_blocks() const override { return inner_.num_blocks(); }
  [[nodiscard]] std::vector<BlockId> take_assignment() override {
    return inner_.take_assignment();
  }
  void unassign_node(NodeId u, NodeWeight weight) override {
    inner_.unassign(u, weight);
  }
  [[nodiscard]] bool save_stream_state(CheckpointWriter& w) const override {
    return inner_.save_stream_state(w);
  }
  [[nodiscard]] bool load_stream_state(CheckpointReader& r) override {
    return inner_.load_stream_state(r);
  }

private:
  Assigner inner_;
};

using ReFennelPartitioner = Restreamable<FennelPartitioner>;
using ReLdgPartitioner = Restreamable<LdgPartitioner>;

} // namespace oms
