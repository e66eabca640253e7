/// \file min_load_tree.hpp
/// \brief Tournament tree over k slots that keeps the lexicographic minimum
///        of (load, index) — the one untouched block that can win an exact
///        Fennel/LDG/HDRF block selection (see partition/flat_block_loads.hpp
///        for the dominance argument).
///
/// Users: sequential flat Fennel and LDG (partition/flat_block_loads.hpp),
/// HDRF (edgepart/hdrf.hpp), and the sequential multi-section descent, which
/// keeps one tree per wide parent over its children in one flat forest
/// (core/online_multisection.hpp). Where no tree is kept, the same slot comes
/// from one min scan over the loads (BlockWeights::lightest).
///
/// Internal node p holds the winning slot of its children 2p and 2p+1; leaf
/// k + i stands for slot i. Because the (load, index) order is total, node 1
/// is the minimum over all leaves for any k, power of two or not. The tree
/// stores winner indices only and reads loads through an accessor, so it
/// keeps no second copy of the weights: after a slot's load changes, the
/// caller reports it with update(). O(k) build, O(log k) update, O(1) query,
/// 2k int32 of state. Single-writer: racy concurrent load updates cannot keep
/// it consistent, which is why concurrent passes use the min scan instead.
#pragma once

#include <cstdint>
#include <vector>

#include "oms/util/assert.hpp"

namespace oms {

/// The tree over caller-owned storage node[0, 2k) (node[0] is unused), so
/// many small trees can share one allocation.
class MinLoadTreeView {
public:
  MinLoadTreeView(std::int32_t* node, std::int32_t k) noexcept : node_(node), k_(k) {
    OMS_HEAVY_ASSERT(k >= 1);
  }

  /// (Re)build over slots [0, k) from the current loads; load(i) returns the
  /// load of slot i.
  template <typename LoadAt>
  void build(LoadAt&& load) const {
    for (std::int32_t i = 0; i < k_; ++i) {
      node_[k_ + i] = i;
    }
    for (std::int32_t p = k_ - 1; p >= 1; --p) {
      node_[p] = winner(p, load);
    }
  }

  /// Slot \p i's load changed: replay its matches on the path to the root.
  /// Stops early once a match keeps a winner other than \p i, because every
  /// match above it then sees the same two keys as before.
  template <typename LoadAt>
  void update(std::int32_t i, LoadAt&& load) const {
    OMS_HEAVY_ASSERT(i >= 0 && i < k_);
    for (std::int32_t p = (k_ + i) / 2; p >= 1; p /= 2) {
      const std::int32_t before = node_[p];
      const std::int32_t after = winner(p, load);
      node_[p] = after;
      if (after == before && after != i) {
        return;
      }
    }
  }

  /// The slot with the smallest load, lowest index among equal loads.
  [[nodiscard]] std::int32_t min_index() const noexcept { return node_[1]; }

private:
  template <typename LoadAt>
  [[nodiscard]] std::int32_t winner(std::int32_t p, LoadAt& load) const {
    const std::int32_t a = node_[2 * p];
    const std::int32_t b = node_[2 * p + 1];
    const auto la = load(a);
    const auto lb = load(b);
    return lb < la || (lb == la && b < a) ? b : a;
  }

  std::int32_t* node_;
  std::int32_t k_;
};

/// A MinLoadTreeView that owns its storage.
class MinLoadTree {
public:
  template <typename LoadAt>
  void build(std::int32_t k, LoadAt&& load) {
    OMS_ASSERT(k >= 1);
    k_ = k;
    node_.resize(2 * static_cast<std::size_t>(k));
    view().build(load);
  }

  template <typename LoadAt>
  void update(std::int32_t i, LoadAt&& load) {
    view().update(i, load);
  }

  [[nodiscard]] std::int32_t min_index() const noexcept { return node_[1]; }

private:
  [[nodiscard]] MinLoadTreeView view() noexcept { return {node_.data(), k_}; }

  std::int32_t k_ = 0;
  std::vector<std::int32_t> node_;
};

} // namespace oms
