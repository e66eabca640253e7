/// \file flat_block_loads.hpp
/// \brief Block weights of the flat one-pass partitioners (Fennel, LDG) and
///        the one block-selection rule they share with every multi-section
///        layer whose children share a capacity: score the blocks the node's
///        neighbours touched plus the lightest (weight, index) block.
///
/// Why the rule is exact. The dense reference scores every block b with room
/// in ascending order, score(b) = f(attraction(b), w_b), and keeps the best
/// (score, then lighter weight, then earlier index). Every block shares the
/// capacity, and every untouched block has attraction zero, so under a
/// penalty that does not decrease in the weight (Fennel with alpha >= 0 and
/// gamma >= 1, LDG) the lightest (weight, index) block scores at least as
/// well as each of them and wins their ties. If that lightest block is
/// touched instead, a non-negative attraction at the least weight beats
/// every untouched block too. So touched ∪ {lightest}, offered in the
/// (score, weight, index) order of BlockChoice, returns the dense scan's
/// winner. Only a negative attraction at the lightest block (negative edge
/// weights, which only library callers can pass) breaks the argument; then
/// every block is offered. If even the lightest block has no room, none has,
/// and the all-full fallback takes the lightest block.
///
/// Only the way the lightest block is found varies. A sequential flat pass
/// keeps a MinLoadTree (O(1) query, O(log k) per weight change), so a node
/// costs O(deg + log k). Relaxed racy adds of concurrent passes cannot keep
/// a tree consistent, so those scan the weights once per node (BlockWeights::
/// lightest). Every weight change goes through add() or load_state(), so the
/// tree stays exact through assign, restreaming unassign and checkpoint
/// resume (which runs prepare() first, on zero weights).
#pragma once

#include <cstdint>
#include <span>

#include "oms/stream/block_weights.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/util/min_load_tree.hpp"
#include "oms/util/work_counters.hpp"

namespace oms {

/// The best block offered so far by (score desc, weight asc, index asc). A
/// dense scan in ascending order never reaches the index clause; the rule
/// above needs it because it offers its candidates unsorted.
struct BlockChoice {
  BlockId block = kInvalidBlock;
  double score = 0.0;
  NodeWeight weight = 0;

  void offer(BlockId b, double s, NodeWeight w) noexcept {
    if (block == kInvalidBlock || s > score ||
        (s == score && (w < weight || (w == weight && b < block)))) {
      block = b;
      score = s;
      weight = w;
    }
  }
};

/// The rule of the file comment over slots [0, \p count) that share
/// \p capacity. \p attraction[i] is slot i's gathered neighbour weight, zero
/// off \p touched; \p lightest is the lightest (weight, index) slot with the
/// weight it was read at; \p weight_of(i) loads slot i and \p score(i, w)
/// scores it at weight w. Returns the best slot with room for
/// \p node_weight, or the lightest slot if none has room.
template <typename WeightOf, typename Score>
[[nodiscard]] BlockId select_touched_or_lightest(
    std::span<const BlockId> touched, const EdgeWeight* attraction, BlockId count,
    BlockWeights::Slot lightest, NodeWeight node_weight, NodeWeight capacity,
    WeightOf&& weight_of, Score&& score, WorkCounters& counters) {
  const auto light = static_cast<BlockId>(lightest.block);
  BlockChoice choice;
  const auto offer = [&](BlockId i, NodeWeight w) {
    if (w + node_weight <= capacity) {
      choice.offer(i, score(i, w), w);
    }
  };
  if (attraction[light] < 0) {
    counters.candidate_evaluations += static_cast<std::uint64_t>(count);
    for (BlockId i = 0; i < count; ++i) {
      offer(i, weight_of(i));
    }
  } else {
    counters.candidate_evaluations += touched.size();
    for (const BlockId i : touched) {
      offer(i, weight_of(i));
    }
    // An attracted lightest slot was offered with the touched ones. An
    // untouched one is scored at the weight its lookup read, so a concurrent
    // add cannot drop the only untouched candidate between scan and score.
    if (attraction[light] == 0) {
      counters.candidate_evaluations += 1;
      offer(light, lightest.weight);
    }
  }
  return choice.block != kInvalidBlock ? choice.block : light;
}

class FlatBlockLoads {
public:
  explicit FlatBlockLoads(BlockId k) : weights_(static_cast<std::size_t>(k)) {}

  /// Starts a pass; the tree is maintained iff \p use_tree.
  void prepare(bool use_tree) {
    use_tree_ = use_tree;
    rebuild_tree();
  }

  [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }

  void add(BlockId b, NodeWeight delta) noexcept {
    weights_.add(static_cast<std::size_t>(b), delta);
    if (use_tree_) {
      tree_.update(b, [this](std::int32_t i) { return load(i); });
    }
  }

  /// select_touched_or_lightest over all k blocks, with the lightest block
  /// from the tree on a sequential pass and from one min scan otherwise.
  template <typename Score>
  [[nodiscard]] BlockId select(std::span<const BlockId> touched,
                               const EdgeWeight* attraction, NodeWeight node_weight,
                               NodeWeight capacity, Score&& score,
                               WorkCounters& counters) const {
    BlockWeights::Slot lightest;
    if (use_tree_) {
      lightest.block = static_cast<std::size_t>(tree_.min_index());
      lightest.weight = weights_.load(lightest.block);
    } else {
      lightest = weights_.lightest(0, weights_.size());
    }
    return select_touched_or_lightest(
        touched, attraction, static_cast<BlockId>(weights_.size()), lightest, node_weight,
        capacity, [this](BlockId b) { return load(b); }, score, counters);
  }

  // Checkpoint/resume: the weights round-trip; the tree is rebuilt from them.
  void save_state(CheckpointWriter& w) const { save_block_weights(w, weights_); }
  void load_state(CheckpointReader& r) {
    load_block_weights(r, weights_);
    rebuild_tree();
  }

private:
  [[nodiscard]] NodeWeight load(BlockId b) const noexcept {
    return weights_.load(static_cast<std::size_t>(b));
  }

  void rebuild_tree() {
    if (use_tree_) {
      tree_.build(static_cast<std::int32_t>(weights_.size()),
                  [this](std::int32_t b) { return load(b); });
    }
  }

  BlockWeights weights_;
  bool use_tree_ = false;
  MinLoadTree tree_; ///< min-(weight, index) block; maintained iff use_tree_
};

} // namespace oms
