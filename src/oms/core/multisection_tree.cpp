#include "oms/core/multisection_tree.hpp"

#include <algorithm>
#include <cmath>

namespace oms {

template <typename ChildCount>
void MultisectionTree::build(ChildCount&& children_of) {
  OMS_ASSERT(k_ >= 1);
  blocks_.clear();
  // Lemma 1: at most 2k blocks when all extents are >= 2; reserving up front
  // keeps the BFS expansion from copying the block array log(k) times.
  blocks_.reserve(2 * static_cast<std::size_t>(k_));
  Block root;
  root.leaf_begin = 0;
  root.leaf_end = k_;
  root.depth = 0;
  blocks_.push_back(root);

  // Magic-number computation costs a wide division each; blocks of one layer
  // share (t, c), so memoize on the previous block's shape (a handful of
  // recomputations per tree instead of one per block).
  std::int64_t memo_t = -1;
  std::int64_t memo_c = -1;
  FastDiv32 memo_div_big;
  FastDiv32 memo_div_small;
  FastMod64 memo_mod_children;

  // Iterative BFS-style expansion; children of a block are contiguous.
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    // Copy the POD: push_back below may reallocate the vector.
    const Block current = blocks_[id];
    const std::int64_t t = current.num_leaves();
    if (t <= 1) {
      continue; // leaf of the multi-section tree = one final block
    }
    const std::int64_t c = children_of(current.depth, t);
    OMS_ASSERT_MSG(c >= 1 && c <= t, "child count must lie in [1, t]");
    blocks_[id].first_child = static_cast<std::int32_t>(blocks_.size());
    blocks_[id].num_children = static_cast<std::int32_t>(c);

    const std::int64_t small = t / c;
    const std::int64_t big = t % c;
    if (t != memo_t || c != memo_c) {
      memo_t = t;
      memo_c = c;
      memo_div_big = FastDiv32::of(static_cast<std::uint32_t>(small + 1));
      memo_div_small = FastDiv32::of(static_cast<std::uint32_t>(small));
      memo_mod_children = FastMod64::of(static_cast<std::uint32_t>(c));
    }
    blocks_[id].num_big = static_cast<std::int32_t>(big);
    blocks_[id].big_boundary = static_cast<BlockId>(big * (small + 1));
    blocks_[id].div_big = memo_div_big;
    blocks_[id].div_small = memo_div_small;
    blocks_[id].mod_children = memo_mod_children;
    BlockId cursor = current.leaf_begin;
    for (std::int64_t child = 0; child < c; ++child) {
      Block b;
      b.parent = static_cast<std::int32_t>(id);
      b.leaf_begin = cursor;
      b.leaf_end = cursor + static_cast<BlockId>(child < big ? small + 1 : small);
      b.depth = current.depth + 1;
      cursor = b.leaf_end;
      height_ = std::max(height_, b.depth);
      blocks_.push_back(b);
    }
    OMS_ASSERT(cursor == current.leaf_end);
  }
}

MultisectionTree MultisectionTree::regular(
    std::span<const std::int64_t> extents_top_down) {
  OMS_ASSERT_MSG(!extents_top_down.empty(), "hierarchy needs at least one level");
  MultisectionTree tree;
  std::int64_t k = 1;
  for (const std::int64_t a : extents_top_down) {
    OMS_ASSERT_MSG(a >= 1, "extents must be >= 1");
    k *= a;
  }
  tree.k_ = static_cast<BlockId>(k);
  tree.build([&](std::int32_t depth, std::int64_t t) {
    OMS_ASSERT_MSG(static_cast<std::size_t>(depth) < extents_top_down.size(),
                   "regular tree deeper than the hierarchy");
    const std::int64_t a = extents_top_down[static_cast<std::size_t>(depth)];
    OMS_ASSERT_MSG(t % a == 0, "regular hierarchy must divide evenly");
    return a;
  });
  return tree;
}

MultisectionTree MultisectionTree::b_section(BlockId k, int base) {
  OMS_ASSERT_MSG(base >= 2, "b-section requires base >= 2");
  MultisectionTree tree;
  tree.k_ = k;
  tree.build([base](std::int32_t /*depth*/, std::int64_t t) {
    return std::min<std::int64_t>(base, t);
  });
  return tree;
}

void MultisectionTree::finalize(NodeWeight lmax, double alpha_global,
                                bool adapted_alpha) {
  OMS_ASSERT(lmax >= 0);
  capacity_.resize(blocks_.size());
  penalty_factor_.resize(blocks_.size());
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    Block& b = blocks_[id];
    b.capacity = static_cast<NodeWeight>(b.num_leaves()) * lmax;
    b.alpha = adapted_alpha
                  ? alpha_global / std::sqrt(static_cast<double>(b.num_leaves()))
                  : alpha_global;
    // fennel_penalty(alpha, 1.5, w) evaluates ((alpha * 1.5) * sqrt(w));
    // baking the left factor keeps the scorer bit-identical.
    b.penalty_factor = b.alpha * 1.5;
    capacity_[id] = b.capacity;
    penalty_factor_[id] = b.penalty_factor;
  }
  // Siblings share (capacity, alpha) iff the children split evenly; a
  // pass-through layer has nothing to select.
  for (Block& b : blocks_) {
    if (b.num_children < 2) {
      continue;
    }
    const auto first = static_cast<std::size_t>(b.first_child);
    b.equal_children_monotone_penalty = b.num_big == 0 && penalty_factor_[first] >= 0.0;
  }
}

std::size_t MultisectionTree::leaf_block_id(BlockId leaf) const noexcept {
  OMS_ASSERT(leaf >= 0 && leaf < k_);
  std::size_t id = 0;
  while (!blocks_[id].is_leaf()) {
    const Block& current = blocks_[id];
    const std::int32_t child = child_index_of_leaf(current, leaf);
    id = static_cast<std::size_t>(current.first_child + child);
  }
  return id;
}

} // namespace oms
