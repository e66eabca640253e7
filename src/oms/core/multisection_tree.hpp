/// \file multisection_tree.hpp
/// \brief The hierarchy of blocks and sub-blocks the online recursive
///        multi-section descends (paper Sections 3.1 and 3.3).
///
/// Two construction modes:
///  * regular(extents_top_down): one layer per hierarchy level — the root has
///    a_l children, each of those a_{l-1}, ...; used when a topology
///    S = a1:...:al is given (process mapping / OMS);
///  * b_section(k, b): Algorithm 2's artificial hierarchy for arbitrary k —
///    every block covering t > 1 final blocks gets min(b, t) children whose
///    leaf ranges split as evenly as possible, larger ranges first (this is
///    exactly the paper's midpoint split for b = 2); used for general graph
///    partitioning (nh-OMS).
///
/// Every block stores the half-open range [leaf_begin, leaf_end) of final
/// blocks it covers. From that range, finalize() derives the heterogeneous
/// capacity t * Lmax and the adapted Fennel constant alpha / sqrt(t)
/// (Section 3.3: the alpha of a block is "sqrt(t) times smaller than the
/// alpha from the original k-way partitioning problem").
///
/// Lemma 1: with all extents >= 2 the tree holds at most 2k blocks, so block
/// weights take O(k) space.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "oms/types.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/fastdiv.hpp"

namespace oms {

class MultisectionTree {
public:
  struct Block {
    std::int32_t parent = -1;      ///< -1 for the root
    std::int32_t first_child = -1; ///< children are contiguous; -1 for leaves
    std::int32_t num_children = 0;
    BlockId leaf_begin = 0; ///< first final block covered
    BlockId leaf_end = 0;   ///< one past the last final block covered
    std::int32_t depth = 0; ///< root = 0
    NodeWeight capacity = 0;
    double alpha = 0.0;
    /// alpha * gamma for the tuned gamma = 3/2, precomputed by finalize() so
    /// the Fennel scorer is one multiply and one (cached) sqrt per child.
    double penalty_factor = 0.0;
    // Descent accelerators, fixed at construction (internal blocks only):
    // children split num_leaves() into `num_big` ranges of size small+1
    // followed by ranges of size small; `big_boundary` = num_big*(small+1).
    FastDiv32 div_big;     ///< exact division by small + 1
    FastDiv32 div_small;   ///< exact division by small
    BlockId big_boundary = 0;
    std::int32_t num_big = 0;
    FastMod64 mod_children; ///< exact hash % num_children (hashing layers)
    /// At least two children, all covering the same leaf count (=> one
    /// shared capacity and Fennel alpha), and a Fennel penalty that does not
    /// decrease with the weight — the conditions under which a quality layer
    /// scores only the touched children plus the lightest one
    /// (select_touched_or_lightest in partition/flat_block_loads.hpp).
    bool equal_children_monotone_penalty = false;

    [[nodiscard]] BlockId num_leaves() const noexcept { return leaf_end - leaf_begin; }
    [[nodiscard]] bool is_leaf() const noexcept { return num_children == 0; }
  };

  /// Regular hierarchy; \p extents_top_down = (a_l, a_{l-1}, ..., a_1).
  /// Extents of 1 are allowed (the paper's S = 4:16:r sweep includes r = 1)
  /// and produce single-child pass-through layers.
  [[nodiscard]] static MultisectionTree regular(
      std::span<const std::int64_t> extents_top_down);

  /// Algorithm 2 generalized to base \p b >= 2 for arbitrary \p k >= 1.
  [[nodiscard]] static MultisectionTree b_section(BlockId k, int base);

  /// Compute capacities (t * Lmax) and per-block Fennel alphas. With
  /// \p adapted_alpha false, every block keeps the flat k-way alpha (the
  /// ablation baseline the paper tunes against). Also fills the dense
  /// capacity/penalty side arrays the scorer scans.
  void finalize(NodeWeight lmax, double alpha_global, bool adapted_alpha);

  /// Hot per-block scalars, stored densely so the per-child score loop scans
  /// 8-byte slots instead of striding whole Block structs.
  [[nodiscard]] NodeWeight capacity_of(std::size_t id) const noexcept {
    OMS_HEAVY_ASSERT(id < capacity_.size());
    return capacity_[id];
  }
  [[nodiscard]] double penalty_factor_of(std::size_t id) const noexcept {
    OMS_HEAVY_ASSERT(id < penalty_factor_.size());
    return penalty_factor_[id];
  }

  [[nodiscard]] const Block& root() const noexcept { return blocks_.front(); }
  [[nodiscard]] const Block& block(std::size_t id) const noexcept {
    OMS_HEAVY_ASSERT(id < blocks_.size());
    return blocks_[id];
  }
  [[nodiscard]] std::size_t num_blocks() const noexcept { return blocks_.size(); }
  [[nodiscard]] BlockId num_final_blocks() const noexcept { return k_; }
  [[nodiscard]] std::int32_t height() const noexcept { return height_; }

  /// Index (within \p parent's children) of the child whose leaf range
  /// contains \p leaf. O(1) and division-free: children split the parent
  /// range evenly with the larger parts first, and both range widths carry a
  /// precomputed exact-division magic.
  [[nodiscard]] static std::int32_t child_index_of_leaf(const Block& parent,
                                                        BlockId leaf) noexcept {
    OMS_HEAVY_ASSERT(leaf >= parent.leaf_begin && leaf < parent.leaf_end);
    const auto offset = static_cast<std::uint32_t>(leaf - parent.leaf_begin);
    if (offset < static_cast<std::uint32_t>(parent.big_boundary)) {
      return static_cast<std::int32_t>(parent.div_big.divide(offset));
    }
    return parent.num_big +
           static_cast<std::int32_t>(parent.div_small.divide(
               offset - static_cast<std::uint32_t>(parent.big_boundary)));
  }

  /// Tree-block id of the leaf covering final block \p leaf (descends from
  /// the root in O(height)).
  [[nodiscard]] std::size_t leaf_block_id(BlockId leaf) const noexcept;

  /// Sum over internal blocks of their child counts — the paper's
  /// sum_i prod_{r>=i} a_r bound from Lemma 1 is num_blocks() - 1.
  [[nodiscard]] std::size_t num_non_root_blocks() const noexcept {
    return blocks_.size() - 1;
  }

private:
  /// \p children_of(depth, num_leaves) -> child count for an internal block.
  template <typename ChildCount>
  void build(ChildCount&& children_of);

  std::vector<Block> blocks_;
  std::vector<NodeWeight> capacity_;     // mirrors Block::capacity, dense
  std::vector<double> penalty_factor_;   // mirrors Block::penalty_factor, dense
  BlockId k_ = 0;
  std::int32_t height_ = 0;
};

} // namespace oms
