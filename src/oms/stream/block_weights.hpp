/// \file block_weights.hpp
/// \brief Atomically updated per-block weight array — the only shared mutable
///        state of the parallel streaming algorithms (paper Section 3.4).
///
/// The paper makes the weight increment atomic but deliberately accepts that
/// a block may be overshot when several threads pick it simultaneously
/// ("since this is very unlikely, we do not use any synchronization to keep
/// it from happening"). We reproduce exactly that design: relaxed atomic
/// adds, plain reads, no compare-and-swap loops.
///
/// Two layouts:
///  * kDense — one atomic per slot. Right for sequential passes and for flat
///    partitioners (Fennel, LDG): their concurrent passes scan all k weights
///    per node, and density keeps that scan inside as few cache lines as
///    possible (sequential passes read only the touched blocks and the
///    MinLoadTree root).
///  * kPadded — one cache line per slot. Right for concurrent multi-section
///    passes, where reads touch only O(b) blocks per layer but *every*
///    thread's assignment read-modify-writes one of the few top-layer
///    blocks; dense packing would put all of those on one line and ping it
///    between cores (false sharing).
///
/// Hot loops must not pay for the flexibility: view<Layout>() returns an
/// accessor whose stride is a compile-time constant (a runtime shift in the
/// indexing measurably slows the k-wide Fennel scan), while the plain
/// load()/add() members stay layout-agnostic for cold paths.
#pragma once

#include <atomic>
#include <memory>

#include "oms/types.hpp"
#include "oms/util/assert.hpp"

namespace oms {

class BlockWeights {
public:
  enum class Layout : std::uint8_t { kDense, kPadded };

  /// 64-byte cache lines / 8-byte atomics: stride 8 slots when padded.
  static constexpr unsigned kPadShift = 3;

  [[nodiscard]] static constexpr unsigned shift_of(Layout layout) noexcept {
    return layout == Layout::kPadded ? kPadShift : 0;
  }

  /// Compile-time-strided accessor for hot loops.
  template <Layout L>
  class View {
  public:
    explicit View(std::atomic<NodeWeight>* base) noexcept : base_(base) {}

    [[nodiscard]] NodeWeight load(std::size_t block) const noexcept {
      return base_[block << shift_of(L)].load(std::memory_order_relaxed);
    }
    void add(std::size_t block, NodeWeight delta) const noexcept {
      base_[block << shift_of(L)].fetch_add(delta, std::memory_order_relaxed);
    }

  private:
    std::atomic<NodeWeight>* base_;
  };

  explicit BlockWeights(std::size_t num_blocks, Layout layout = Layout::kDense)
      : size_(num_blocks),
        shift_(shift_of(layout)),
        weights_(std::make_unique<std::atomic<NodeWeight>[]>(num_blocks << shift_)) {
    // Note on alignment: operator new returns >= 16-byte-aligned storage and
    // the elements are 8 bytes, so with a 64-byte stride no two padded slots
    // can ever share a cache line even if the base is not 64-byte aligned.
    reset();
  }

  /// Re-layout in place, preserving the logical weights. Lets an assigner
  /// pick the layout once the thread count is known (prepare()).
  void set_layout(Layout layout) {
    const unsigned shift = shift_of(layout);
    if (shift == shift_) {
      return;
    }
    auto moved = std::make_unique<std::atomic<NodeWeight>[]>(size_ << shift);
    for (std::size_t i = 0; i < (size_ << shift); ++i) {
      moved[i].store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < size_; ++i) {
      moved[i << shift].store(load(i), std::memory_order_relaxed);
    }
    weights_ = std::move(moved);
    shift_ = shift;
  }

  [[nodiscard]] Layout layout() const noexcept {
    return shift_ == 0 ? Layout::kDense : Layout::kPadded;
  }

  /// The caller must have established the matching layout (see set_layout).
  template <Layout L>
  [[nodiscard]] View<L> view() noexcept {
    OMS_HEAVY_ASSERT(shift_of(L) == shift_);
    return View<L>(weights_.get());
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Allocated bytes (the padded layout trades memory for line exclusivity;
  /// still O(k) with a 64-byte constant — within Theorem 1's state bound).
  [[nodiscard]] std::uint64_t footprint_bytes() const noexcept {
    return static_cast<std::uint64_t>(size_ << shift_) *
           sizeof(std::atomic<NodeWeight>);
  }

  void add(std::size_t block, NodeWeight delta) noexcept {
    OMS_HEAVY_ASSERT(block < size_);
    weights_[block << shift_].fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] NodeWeight load(std::size_t block) const noexcept {
    OMS_HEAVY_ASSERT(block < size_);
    return weights_[block << shift_].load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (std::size_t i = 0; i < (size_ << shift_); ++i) {
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
  unsigned shift_;
  std::unique_ptr<std::atomic<NodeWeight>[]> weights_;
};

} // namespace oms
