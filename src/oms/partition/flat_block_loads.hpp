/// \file flat_block_loads.hpp
/// \brief Block weights of the flat one-pass partitioners (Fennel, LDG) plus
///        the MinLoadTree that makes their sequential block selection exact
///        in O(deg + log k).
///
/// Every weight change goes through add() or load_state(), so the tree stays
/// exact through assign, restreaming unassign and checkpoint resume (which
/// runs prepare() first, on zero weights). The tree is live only on
/// sequential passes: relaxed racy weight adds of concurrent passes cannot
/// keep it consistent, so those keep their dense O(k) scans.
#pragma once

#include <cstdint>
#include <vector>

#include "oms/stream/block_weights.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/util/min_load_tree.hpp"
#include "oms/util/work_counters.hpp"

namespace oms {

/// The best block offered so far by (score desc, weight asc, index asc). The
/// ascending dense loops never reach the index clause; select_sparse() needs
/// it because it offers its candidates unsorted.
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

class FlatBlockLoads {
public:
  using DenseView = BlockWeights::View<BlockWeights::Layout::kDense>;

  explicit FlatBlockLoads(BlockId k) : weights_(static_cast<std::size_t>(k)) {}

  /// Starts a pass; the tree is maintained iff \p use_tree.
  void prepare(bool use_tree) {
    use_tree_ = use_tree;
    rebuild_tree();
  }
  [[nodiscard]] bool tree_live() const noexcept { return use_tree_; }

  /// Unit-stride accessor for the k-wide scans.
  [[nodiscard]] DenseView view() noexcept {
    return weights_.view<BlockWeights::Layout::kDense>();
  }
  [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }

  void add(BlockId b, NodeWeight delta) noexcept {
    weights_.add(static_cast<std::size_t>(b), delta);
    if (use_tree_) {
      const DenseView weights = view();
      tree_.update(b, [weights](std::int32_t i) {
        return weights.load(static_cast<std::size_t>(i));
      });
    }
  }

  /// The lightest (weight, index) block: the all-full fallback's answer.
  [[nodiscard]] BlockId lightest() const noexcept {
    if (use_tree_) {
      return tree_.min_index();
    }
    BlockId best = 0;
    for (BlockId b = 1; b < static_cast<BlockId>(weights_.size()); ++b) {
      if (weights_.load(static_cast<std::size_t>(b)) <
          weights_.load(static_cast<std::size_t>(best))) {
        best = b;
      }
    }
    return best;
  }

  /// Exact O(deg + log k) selection on a tree-live pass: offers touched ∪
  /// {lightest} to \p consider, which keeps the best feasible one. Every
  /// feasible zero-attraction block scores the same attraction (zero), so
  /// among them the lightest (weight, index) block wins under any penalty
  /// that does not decrease in the weight (sparse_select.hpp); an attracted
  /// lightest block is offered anyway. If even the lightest block is full,
  /// every block is, and consider() keeps nothing.
  template <typename Consider>
  void select_sparse(const std::vector<BlockId>& touched, Consider&& consider,
                     WorkCounters& counters) const {
    OMS_HEAVY_ASSERT(use_tree_);
    counters.candidate_evaluations += touched.size() + 1;
    for (const BlockId b : touched) {
      consider(b);
    }
    consider(tree_.min_index());
  }

  // Checkpoint/resume: the weights round-trip; the tree is rebuilt from them.
  void save_state(CheckpointWriter& w) const { save_block_weights(w, weights_); }
  void load_state(CheckpointReader& r) {
    load_block_weights(r, weights_);
    rebuild_tree();
  }

private:
  void rebuild_tree() {
    if (use_tree_) {
      tree_.build(static_cast<std::int32_t>(weights_.size()), [this](std::int32_t b) {
        return weights_.load(static_cast<std::size_t>(b));
      });
    }
  }

  BlockWeights weights_;
  bool use_tree_ = false;
  MinLoadTree tree_; ///< min-(weight, index) block; maintained iff use_tree_
};

} // namespace oms
