#include "oms/partition/fennel.hpp"

#include <cstdint>

namespace oms {

FennelPartitioner::FennelPartitioner(NodeId num_nodes, EdgeIndex num_edges,
                                     NodeWeight total_node_weight,
                                     const PartitionConfig& config)
    : FennelPartitioner(num_nodes, total_node_weight, config,
                        FennelParams::standard(num_nodes, num_edges, config.k)) {}

FennelPartitioner::FennelPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                                     const PartitionConfig& config,
                                     const FennelParams& params)
    : config_(config),
      params_(params),
      max_block_weight_(max_block_weight(total_node_weight, config.k, config.epsilon)),
      penalty_factor_(params.alpha * params.gamma),
      tuned_gamma_(params.gamma == 1.5),
      assignment_(num_nodes),
      loads_(config.k),
      sqrt_(tuned_gamma_ ? max_block_weight_ : NodeWeight{-1}) {
  OMS_ASSERT(config.k >= 1);
  // The block-selection rule (flat_block_loads.hpp) needs a penalty that
  // does not decrease in the block weight.
  OMS_ASSERT_MSG(params.alpha >= 0 && params.gamma >= 1,
                 "Fennel needs alpha >= 0 and gamma >= 1");
}

void FennelPartitioner::prepare(int num_threads) {
  scratch_.resize(static_cast<std::size_t>(num_threads));
  for (auto& s : scratch_) {
    s.neighbor_weight.assign(static_cast<std::size_t>(config_.k), 0);
    s.touched.clear();
  }
  loads_.prepare(num_threads == 1);
}

BlockId FennelPartitioner::assign(const StreamedNode& node, int thread_id,
                                  WorkCounters& counters) {
  auto& scratch = scratch_[static_cast<std::size_t>(thread_id)];

  EdgeWeight assigned = 0; // weight to already-assigned neighbours
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

  // score_evaluations models the paper's Theta(k) per-node Fennel cost;
  // candidate_evaluations counts the blocks select() actually scores.
  counters.score_evaluations += static_cast<std::uint64_t>(config_.k);
  const EdgeWeight* const attraction = scratch.neighbor_weight.data();
  const BlockId best = loads_.select(
      scratch.touched, attraction, node.weight, max_block_weight_,
      [&](BlockId b, NodeWeight w) {
        const double penalty = tuned_gamma_
                                   ? penalty_factor_ * sqrt_(w)
                                   : fennel_penalty(params_.alpha, params_.gamma, w);
        return static_cast<double>(attraction[static_cast<std::size_t>(b)]) - penalty;
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

void FennelPartitioner::unassign(NodeId u, NodeWeight weight) {
  const BlockId b = assignment_.load(u);
  OMS_ASSERT_MSG(b != kInvalidBlock, "unassign of a never-assigned node");
  loads_.add(b, -weight);
  assignment_.store(u, kInvalidBlock);
}

std::uint64_t FennelPartitioner::state_bytes() const noexcept {
  return assignment_.footprint_bytes() +
         static_cast<std::uint64_t>(loads_.size() * sizeof(NodeWeight));
}

bool FennelPartitioner::save_stream_state(CheckpointWriter& w) const {
  save_assignment(w, assignment_);
  loads_.save_state(w);
  return true;
}

bool FennelPartitioner::load_stream_state(CheckpointReader& r) {
  load_assignment(r, assignment_);
  loads_.load_state(r);
  return true;
}

void FennelPartitioner::stamp_checkpoint(CheckpointMeta& meta) const {
  meta.algo = "fennel";
  meta.seed = config_.seed;
}

} // namespace oms
