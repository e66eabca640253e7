#include "oms/partition/ldg.hpp"

namespace oms {

LdgPartitioner::LdgPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                               const PartitionConfig& config)
    : config_(config),
      max_block_weight_(max_block_weight(total_node_weight, config.k, config.epsilon)),
      assignment_(num_nodes),
      loads_(config.k) {
  OMS_ASSERT(config.k >= 1);
}

void LdgPartitioner::prepare(int num_threads) {
  scratch_.resize(static_cast<std::size_t>(num_threads));
  for (auto& s : scratch_) {
    s.neighbor_weight.assign(static_cast<std::size_t>(config_.k), 0);
    s.touched.clear();
  }
  loads_.prepare(num_threads == 1);
}

BlockId LdgPartitioner::assign(const StreamedNode& node, int thread_id,
                               WorkCounters& counters) {
  auto& scratch = scratch_[static_cast<std::size_t>(thread_id)];

  // Gather the weight of already-assigned neighbors per block.
  EdgeWeight assigned = 0;
  for (std::size_t i = 0; i < node.neighbors.size(); ++i) {
    counters.neighbor_visits += 1;
    const BlockId nb = assignment_.load(node.neighbors[i]);
    if (nb == kInvalidBlock) {
      continue;
    }
    if (scratch.neighbor_weight[static_cast<std::size_t>(nb)] == 0) {
      scratch.touched.push_back(nb);
    }
    scratch.neighbor_weight[static_cast<std::size_t>(nb)] += node.edge_weights[i];
    assigned += node.edge_weights[i];
  }

  // Score attraction * remaining-capacity penalty; ties go to the lighter
  // block (paper / Stanton-Kliot rule). All blocks at capacity (eps = 0 with
  // uneven node weights, or transiently under parallel overshoot): select()
  // falls back to the lightest block.
  counters.score_evaluations += static_cast<std::uint64_t>(config_.k);
  const EdgeWeight* const attraction = scratch.neighbor_weight.data();
  const auto max_weight = static_cast<double>(max_block_weight_);
  const BlockId best = loads_.select(
      scratch.touched, attraction, node.weight, max_block_weight_,
      [&](BlockId b, NodeWeight w) {
        return static_cast<double>(attraction[static_cast<std::size_t>(b)]) *
               (1.0 - static_cast<double>(w) / max_weight);
      },
      counters);
  // Every assigned neighbour outside best cuts its edge (counted_quality).
  counters.cut += assigned - scratch.neighbor_weight[static_cast<std::size_t>(best)];

  for (const BlockId b : scratch.touched) {
    scratch.neighbor_weight[static_cast<std::size_t>(b)] = 0;
  }
  scratch.touched.clear();

  loads_.add(best, node.weight);
  assignment_.store(node.id, best);
  counters.layers_traversed += 1;
  return best;
}

void LdgPartitioner::unassign(NodeId u, NodeWeight weight) {
  const BlockId b = assignment_.load(u);
  OMS_ASSERT_MSG(b != kInvalidBlock, "unassign of a never-assigned node");
  loads_.add(b, -weight);
  assignment_.store(u, kInvalidBlock);
}

std::uint64_t LdgPartitioner::state_bytes() const noexcept {
  return assignment_.footprint_bytes() +
         static_cast<std::uint64_t>(loads_.size() * sizeof(NodeWeight));
}

bool LdgPartitioner::save_stream_state(CheckpointWriter& w) const {
  save_assignment(w, assignment_);
  loads_.save_state(w);
  return true;
}

bool LdgPartitioner::load_stream_state(CheckpointReader& r) {
  load_assignment(r, assignment_);
  loads_.load_state(r);
  return true;
}

void LdgPartitioner::stamp_checkpoint(CheckpointMeta& meta) const {
  meta.algo = "ldg";
  meta.seed = config_.seed;
}

} // namespace oms
