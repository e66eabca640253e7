#include "oms/partition/fennel.hpp"

#include <cstdint>

#include "oms/partition/sparse_select.hpp"

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
      // The sparse-candidate scan needs a strictly increasing penalty (its
      // untouched-block ordering collapses when alpha == 0) and weights that
      // fit the 32-bit half of its scan key.
      sparse_scan_(tuned_gamma_ && params.alpha > 0 &&
                   max_block_weight_ < (NodeWeight{1} << 31)),
      assignment_(num_nodes),
      loads_(config.k),
      sqrt_(tuned_gamma_ ? max_block_weight_ : NodeWeight{-1}) {
  OMS_ASSERT(config.k >= 1);
}

void FennelPartitioner::prepare(int num_threads) {
  scratch_.resize(static_cast<std::size_t>(num_threads));
  for (auto& s : scratch_) {
    s.neighbor_weight.assign(static_cast<std::size_t>(config_.k), 0);
    s.touched.clear();
    s.candidates.assign(static_cast<std::size_t>(config_.k), 0);
  }
  loads_.prepare(sparse_scan_ && num_threads == 1);
}

BlockId FennelPartitioner::assign(const StreamedNode& node, int thread_id,
                                  WorkCounters& counters) {
  auto& scratch = scratch_[static_cast<std::size_t>(thread_id)];

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
  }

  // score_evaluations models the paper's Theta(k) per-node Fennel cost
  // whichever scan runs below; candidate_evaluations counts the blocks the
  // scan actually scores.
  counters.score_evaluations += static_cast<std::uint64_t>(config_.k);
  BlockChoice choice;
  const EdgeWeight* const neighbor_weight = scratch.neighbor_weight.data();
  // Flat partitioners always keep the dense layout: a compile-time unit
  // stride and a cached sqrt keep the k-wide scan at a multiply per block.
  const auto weights = loads_.view();
  const auto consider = [&](BlockId b, NodeWeight w, double penalty) {
    choice.offer(b, static_cast<double>(neighbor_weight[static_cast<std::size_t>(b)]) - penalty,
                 w);
  };
  const auto consider_tuned = [&](BlockId b) {
    const NodeWeight w = weights.load(static_cast<std::size_t>(b));
    if (w + node.weight <= max_block_weight_) {
      consider(b, w, penalty_factor_ * sqrt_(w));
    }
  };
  if (loads_.tree_live()) {
    // A zero-attraction lightest block is the sparse scan's representative
    // (sparse_select.hpp); an attracted one beats every zero-attraction
    // block, because edge weights are > 0 and the penalty increases.
    loads_.select_sparse(scratch.touched, consider_tuned, counters);
  } else if (sparse_scan_) {
    // Exact sparse-candidate scan (see sparse_select.hpp for the dominance
    // argument): bit-identical winner, O(k) integer ops + O(deg) double ops
    // instead of O(k) double ops. sparse_scan_ guarantees 0 <= w <=
    // max_block_weight_ < 2^31 and a strictly increasing penalty.
    counters.candidate_evaluations += static_cast<std::uint64_t>(config_.k);
    choice.block = sparse_fennel_select(
        config_.k, node.weight, max_block_weight_, penalty_factor_, sqrt_,
        [&](std::int32_t b) { return weights.load(static_cast<std::size_t>(b)); },
        [&](std::int32_t b) {
          return neighbor_weight[static_cast<std::size_t>(b)];
        },
        scratch.candidates.data());
  } else if (tuned_gamma_) {
    counters.candidate_evaluations += static_cast<std::uint64_t>(config_.k);
    for (BlockId b = 0; b < config_.k; ++b) {
      consider_tuned(b);
    }
  } else {
    counters.candidate_evaluations += static_cast<std::uint64_t>(config_.k);
    for (BlockId b = 0; b < config_.k; ++b) {
      const NodeWeight w = weights.load(static_cast<std::size_t>(b));
      if (w + node.weight > max_block_weight_) {
        continue;
      }
      consider(b, w, fennel_penalty(params_.alpha, params_.gamma, w));
    }
  }
  const BlockId best = choice.block != kInvalidBlock ? choice.block : loads_.lightest();

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

} // namespace oms
