/// \file dense_bitset.hpp
/// \brief A table of fixed-width dense bitsets, one row per vertex — the
///        replica sets of the streaming vertex-cut partitioners.
///
/// Vertex-cut replication state is a |V| x k boolean matrix with small k
/// (tens to a few thousand blocks), so each row is a handful of 64-bit
/// words stored flat. Rows grow on demand because edge-list streams reveal
/// the vertex universe only as edges arrive.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "oms/types.hpp"
#include "oms/util/assert.hpp"

namespace oms {

class BitsetTable {
public:
  explicit BitsetTable(BlockId bits_per_row)
      : bits_per_row_(bits_per_row),
        words_per_row_((static_cast<std::size_t>(bits_per_row) + 63) / 64) {
    OMS_ASSERT_MSG(bits_per_row >= 1, "BitsetTable needs at least one bit per row");
  }

  [[nodiscard]] BlockId bits_per_row() const noexcept { return bits_per_row_; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return num_rows_; }

  /// Grow to at least \p rows rows (doubling, so per-edge growth is O(1)
  /// amortized even when vertex ids arrive in ascending order).
  void ensure_rows(std::size_t rows) {
    if (rows <= num_rows_) {
      return;
    }
    std::size_t capacity = words_.size() / words_per_row_;
    if (rows > capacity) {
      capacity = capacity == 0 ? 16 : capacity;
      while (capacity < rows) {
        capacity *= 2;
      }
      words_.resize(capacity * words_per_row_, 0);
    }
    num_rows_ = rows;
  }

  void set(std::size_t row, BlockId bit) noexcept {
    OMS_HEAVY_ASSERT(row < num_rows_ && bit >= 0 && bit < bits_per_row_);
    words_[row * words_per_row_ + static_cast<std::size_t>(bit) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(bit) % 64);
  }

  /// Rows beyond the current size read as all-zero (a vertex never seen has
  /// no replicas), so tests need no bounds bookkeeping.
  [[nodiscard]] bool test(std::size_t row, BlockId bit) const noexcept {
    OMS_HEAVY_ASSERT(bit >= 0 && bit < bits_per_row_);
    if (row >= num_rows_) {
      return false;
    }
    return (words_[row * words_per_row_ + static_cast<std::size_t>(bit) / 64] >>
            (static_cast<std::size_t>(bit) % 64)) &
           1U;
  }

  [[nodiscard]] std::size_t words_per_row() const noexcept { return words_per_row_; }

  /// Word \p w of one row (bits 64w .. 64w + 63); rows beyond the current
  /// size read as zero, like test().
  [[nodiscard]] std::uint64_t word(std::size_t row, std::size_t w) const noexcept {
    OMS_HEAVY_ASSERT(w < words_per_row_);
    return row < num_rows_ ? words_[row * words_per_row_ + w] : 0;
  }

  /// Any bit set in [begin, end)? The hot probe of the hierarchical descent:
  /// "does u already have a replica inside this child's leaf range".
  [[nodiscard]] bool any_in_range(std::size_t row, BlockId begin,
                                  BlockId end) const noexcept {
    OMS_HEAVY_ASSERT(begin >= 0 && begin <= end && end <= bits_per_row_);
    if (row >= num_rows_ || begin == end) {
      return false;
    }
    const std::uint64_t* words = words_.data() + row * words_per_row_;
    const auto first = static_cast<std::size_t>(begin) / 64;
    const auto last = (static_cast<std::size_t>(end) - 1) / 64;
    const std::uint64_t head_mask = ~std::uint64_t{0}
                                    << (static_cast<std::size_t>(begin) % 64);
    const std::uint64_t tail_mask =
        ~std::uint64_t{0} >> (63 - (static_cast<std::size_t>(end) - 1) % 64);
    if (first == last) {
      return (words[first] & head_mask & tail_mask) != 0;
    }
    if ((words[first] & head_mask) != 0 || (words[last] & tail_mask) != 0) {
      return true;
    }
    for (std::size_t w = first + 1; w < last; ++w) {
      if (words[w] != 0) {
        return true;
      }
    }
    return false;
  }

  /// Set bits in [begin, end) of one row — how many of a vertex's replicas
  /// sit inside a module's leaf range.
  [[nodiscard]] std::uint32_t count_in_range(std::size_t row, BlockId begin,
                                             BlockId end) const noexcept {
    OMS_HEAVY_ASSERT(begin >= 0 && begin <= end && end <= bits_per_row_);
    if (row >= num_rows_ || begin == end) {
      return 0;
    }
    const std::uint64_t* words = words_.data() + row * words_per_row_;
    const auto first = static_cast<std::size_t>(begin) / 64;
    const auto last = (static_cast<std::size_t>(end) - 1) / 64;
    const std::uint64_t head_mask = ~std::uint64_t{0}
                                    << (static_cast<std::size_t>(begin) % 64);
    const std::uint64_t tail_mask =
        ~std::uint64_t{0} >> (63 - (static_cast<std::size_t>(end) - 1) % 64);
    if (first == last) {
      return static_cast<std::uint32_t>(
          std::popcount(words[first] & head_mask & tail_mask));
    }
    std::uint32_t count =
        static_cast<std::uint32_t>(std::popcount(words[first] & head_mask)) +
        static_cast<std::uint32_t>(std::popcount(words[last] & tail_mask));
    for (std::size_t w = first + 1; w < last; ++w) {
      count += static_cast<std::uint32_t>(std::popcount(words[w]));
    }
    return count;
  }

  /// Number of set bits in one row (= number of replicas of that vertex).
  [[nodiscard]] std::uint32_t count_row(std::size_t row) const noexcept {
    if (row >= num_rows_) {
      return 0;
    }
    std::uint32_t count = 0;
    const std::uint64_t* words = words_.data() + row * words_per_row_;
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      count += static_cast<std::uint32_t>(std::popcount(words[w]));
    }
    return count;
  }

  /// Invoke \p fn(BlockId) for every set bit of \p row, ascending.
  template <typename Fn>
  void for_each_set(std::size_t row, Fn&& fn) const {
    if (row >= num_rows_) {
      return;
    }
    const std::uint64_t* words = words_.data() + row * words_per_row_;
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t word = words[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(static_cast<BlockId>(w * 64 + static_cast<std::size_t>(bit)));
        word &= word - 1;
      }
    }
  }

private:
  BlockId bits_per_row_;
  std::size_t words_per_row_;
  std::size_t num_rows_ = 0;
  std::vector<std::uint64_t> words_;
};

} // namespace oms
