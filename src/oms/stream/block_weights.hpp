/// \file block_weights.hpp
/// \brief Atomically updated per-block weight array — the only shared mutable
///        state of the parallel streaming algorithms (paper Section 3.4).
///
/// The paper makes the weight increment atomic but deliberately accepts that
/// a block may be overshot when several threads pick it simultaneously
/// ("since this is very unlikely, we do not use any synchronization to keep
/// it from happening"). We reproduce exactly that design: relaxed atomic
/// adds, plain reads, no compare-and-swap loops, and one dense slot per
/// block on every thread count.
#pragma once

#include <atomic>
#include <memory>

#include "oms/types.hpp"
#include "oms/util/assert.hpp"

namespace oms {

class BlockWeights {
public:
  /// A block and the weight it was read at.
  struct Slot {
    std::size_t block = 0;
    NodeWeight weight = 0;
  };

  explicit BlockWeights(std::size_t num_blocks)
      : size_(num_blocks),
        weights_(std::make_unique<std::atomic<NodeWeight>[]>(num_blocks)) {
    reset();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] std::uint64_t footprint_bytes() const noexcept {
    return static_cast<std::uint64_t>(size_) * sizeof(std::atomic<NodeWeight>);
  }

  void add(std::size_t block, NodeWeight delta) noexcept {
    OMS_HEAVY_ASSERT(block < size_);
    weights_[block].fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] NodeWeight load(std::size_t block) const noexcept {
    OMS_HEAVY_ASSERT(block < size_);
    return weights_[block].load(std::memory_order_relaxed);
  }

  /// Add delta only if the block stays <= cap, also under concurrent
  /// callers: reserve with fetch_add, give it back if that overshot. For
  /// the Hashing probe, whose whole point is to never exceed Lmax; the
  /// score-based assigners keep the paper's unchecked add().
  [[nodiscard]] bool try_add(std::size_t block, NodeWeight delta,
                             NodeWeight cap) noexcept {
    OMS_HEAVY_ASSERT(block < size_);
    auto& slot = weights_[block];
    if (slot.load(std::memory_order_relaxed) + delta > cap) {
      return false;
    }
    if (slot.fetch_add(delta, std::memory_order_relaxed) + delta > cap) {
      slot.fetch_sub(delta, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// The lightest (weight, index) block of [begin, end), which must be
  /// non-empty, with the weight it was read at. Each weight is loaded once
  /// and the running minimum stays in registers: reloading the best slot on
  /// every step measurably slows the k-wide scan of a concurrent Fennel pass.
  [[nodiscard]] Slot lightest(std::size_t begin, std::size_t end) const noexcept {
    OMS_HEAVY_ASSERT(begin < end && end <= size_);
    std::size_t best = begin;
    NodeWeight best_weight = weights_[begin].load(std::memory_order_relaxed);
    for (std::size_t i = begin + 1; i < end; ++i) {
      const NodeWeight w = weights_[i].load(std::memory_order_relaxed);
      const bool lighter = w < best_weight;
      best = lighter ? i : best;
      best_weight = lighter ? w : best_weight;
    }
    return {best, best_weight};
  }

  void reset() noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      weights_[i].store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] NodeWeight total() const noexcept {
    NodeWeight sum = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      sum += load(i);
    }
    return sum;
  }

private:
  std::size_t size_;
  std::unique_ptr<std::atomic<NodeWeight>[]> weights_;
};

} // namespace oms
