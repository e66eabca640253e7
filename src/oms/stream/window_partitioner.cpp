#include "oms/stream/window_partitioner.hpp"

#include "oms/telemetry/metrics.hpp"
#include "oms/util/assert.hpp"

namespace oms {

WindowPartitioner::WindowPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                                     const WindowConfig& config, BlockId k)
    : config_(config),
      k_(k),
      max_block_weight_(max_block_weight(total_node_weight, k, config.epsilon)),
      assignment_(num_nodes, kInvalidBlock),
      weights_(static_cast<std::size_t>(k)),
      ring_(static_cast<std::size_t>(config.window_size) + 1),
      gather_(static_cast<std::size_t>(k), 0) {
  OMS_ASSERT(k >= 1);
  OMS_ASSERT(config.window_size >= 1);
}

void WindowPartitioner::prepare(int num_threads) {
  OMS_ASSERT_MSG(num_threads == 1, "the sliding window is sequential by nature");
}

BlockId WindowPartitioner::assign(const StreamedNode& node, int /*thread_id*/,
                                  WorkCounters& counters) {
  Slot& slot = ring_[(head_ + count_) % ring_.size()];
  slot.id = node.id;
  slot.weight = node.weight;
  slot.neighbors.assign(node.neighbors.begin(), node.neighbors.end());
  slot.edge_weights.assign(node.edge_weights.begin(), node.edge_weights.end());
  ++count_;
  if (count_ > config_.window_size) {
    flush_one(counters);
  }
  // The caller-visible return value is the newest *committed* node's block;
  // the true result lives in the assignment array.
  return count_ == 0 ? assignment_[node.id] : kInvalidBlock;
}

void WindowPartitioner::flush_one(WorkCounters& counters) {
  telemetry::metric_add(telemetry::Counter::kWindowEvictions);
  const Slot& slot = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  --count_;

  for (const BlockId b : touched_) {
    gather_[static_cast<std::size_t>(b)] = 0;
  }
  touched_.clear();
  for (std::size_t i = 0; i < slot.neighbors.size(); ++i) {
    counters.neighbor_visits += 1;
    const BlockId b = assignment_[slot.neighbors[i]];
    if (b == kInvalidBlock) {
      continue;
    }
    if (gather_[static_cast<std::size_t>(b)] == 0) {
      touched_.push_back(b);
    }
    gather_[static_cast<std::size_t>(b)] += slot.edge_weights[i];
  }

  BlockId best = kInvalidBlock;
  double best_score = -1.0;
  NodeWeight best_weight = 0;
  for (BlockId b = 0; b < k_; ++b) {
    counters.score_evaluations += 1;
    counters.candidate_evaluations += 1;
    const NodeWeight w = weights_.load(static_cast<std::size_t>(b));
    if (w + slot.weight > max_block_weight_) {
      continue;
    }
    const double score =
        static_cast<double>(gather_[static_cast<std::size_t>(b)]) *
        (1.0 - static_cast<double>(w) / static_cast<double>(max_block_weight_));
    if (best == kInvalidBlock || score > best_score ||
        (score == best_score && w < best_weight)) {
      best = b;
      best_score = score;
      best_weight = w;
    }
  }
  if (best == kInvalidBlock) {
    best = static_cast<BlockId>(weights_.lightest(0, weights_.size()).block);
  }
  weights_.add(static_cast<std::size_t>(best), slot.weight);
  assignment_[slot.id] = best;
  counters.layers_traversed += 1;
}

std::vector<BlockId> WindowPartitioner::take_assignment() {
  WorkCounters drain;
  while (count_ > 0) {
    flush_one(drain);
  }
  return std::move(assignment_);
}

} // namespace oms
