#include "oms/partition/hashing.hpp"

#include "oms/stream/checkpoint.hpp"

#include "oms/util/random.hpp"

namespace oms {

HashingPartitioner::HashingPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                                       const PartitionConfig& config)
    : config_(config),
      max_block_weight_(max_block_weight(total_node_weight, config.k, config.epsilon)),
      assignment_(num_nodes, kInvalidBlock),
      weights_(static_cast<std::size_t>(config.k)) {
  OMS_ASSERT(config.k >= 1);
}

void HashingPartitioner::prepare(int /*num_threads*/) {}

BlockId HashingPartitioner::assign(const StreamedNode& node, int /*thread_id*/,
                                   WorkCounters& counters) {
  const auto k = static_cast<std::uint64_t>(config_.k);
  auto block = static_cast<BlockId>(
      splitmix64(static_cast<std::uint64_t>(node.id) ^ config_.seed) % k);
  // Balance fallback: probe forward until a block has room. With eps > 0 the
  // total capacity strictly exceeds c(V), so a block with room always exists.
  // try_add keeps the check exact when several threads probe the same block.
  for (BlockId probes = 0; probes < config_.k; ++probes) {
    const auto b = static_cast<std::size_t>((block + probes) % config_.k);
    counters.score_evaluations += 1;
    counters.candidate_evaluations += 1;
    if (weights_.try_add(b, node.weight, max_block_weight_)) {
      assignment_[node.id] = static_cast<BlockId>(b);
      counters.layers_traversed += 1;
      return static_cast<BlockId>(b);
    }
  }
  // Degenerate fallback (eps == 0 with awkward weights): least-loaded block.
  const std::size_t best = weights_.lightest(0, weights_.size()).block;
  weights_.add(best, node.weight);
  assignment_[node.id] = static_cast<BlockId>(best);
  return static_cast<BlockId>(best);
}

std::uint64_t HashingPartitioner::state_bytes() const noexcept {
  return static_cast<std::uint64_t>(assignment_.capacity() * sizeof(BlockId) +
                                    weights_.size() * sizeof(NodeWeight));
}

bool HashingPartitioner::save_stream_state(CheckpointWriter& w) const {
  save_assignment(w, assignment_);
  save_block_weights(w, weights_);
  return true;
}

bool HashingPartitioner::load_stream_state(CheckpointReader& r) {
  load_assignment(r, assignment_);
  load_block_weights(r, weights_);
  return true;
}

void HashingPartitioner::stamp_checkpoint(CheckpointMeta& meta) const {
  meta.algo = "hashing";
  meta.seed = config_.seed;
}

} // namespace oms
