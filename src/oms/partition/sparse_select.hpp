/// \file sparse_select.hpp
/// \brief Exact sparse-candidate selection for the tuned Fennel objective.
///        It serves the scans that keep no MinLoadTree: flat Fennel and
///        every multi-section layer on concurrent passes (threads > 1), and
///        the narrow layers (fan-out below OnlineMultisection's tree cutoff)
///        of a sequential descent. Sequential flat passes and the wide layers
///        of a sequential descent apply the same dominance argument through a
///        MinLoadTree (util/min_load_tree.hpp), which yields the
///        representative in O(1) instead of this O(k) integer reduction.
///
/// The dense reference loop scores every slot i in ascending order:
///
///   score(i) = attraction(i) - factor * sqrt(w_i)   among slots with room,
///
/// keeping the best (score, then lighter weight, then earlier index). When
/// every slot shares (capacity, factor) and the penalty is strictly
/// increasing (factor > 0), all zero-attraction slots score -factor*sqrt(w):
/// the best of them is the lexicographic min of (weight, index) — exactly
/// the slot the ascending-index tie-break would keep, and sqrt is injective
/// on the integer weights so equal scores imply equal weights. Every other
/// zero-attraction slot is strictly dominated by that representative under
/// the loop's selection order, so evaluating only the attracted slots plus
/// the representative — in ascending index order, with the original
/// comparison — provably returns the identical winner.
///
/// Cost: O(count) branchless integer ops + O(#attracted) double ops, instead
/// of O(count) double ops. Preconditions (checked by the callers when they
/// enable this path): factor > 0, 0 <= w_i, capacity < 2^31, count < 2^31.
#pragma once

#include <cstdint>

#include "oms/types.hpp"
#include "oms/util/sqrt_cache.hpp"

namespace oms {

/// \param count        number of candidate slots
/// \param node_weight  weight of the node being placed (capacity filter)
/// \param capacity     shared slot capacity
/// \param factor       shared alpha * gamma (> 0)
/// \param sqrt_cache   memoized sqrt for the penalty
/// \param load_weight  load_weight(i) -> current weight of slot i
/// \param attraction   attraction(i) -> gathered neighbor weight of slot i
/// \param touched_scratch at least `count` slots of scratch
/// \returns the winning slot index, or -1 if no slot has room.
template <typename LoadWeight, typename AttractionAt>
[[nodiscard]] std::int32_t sparse_fennel_select(
    std::int32_t count, NodeWeight node_weight, NodeWeight capacity, double factor,
    const SqrtCache& sqrt_cache, LoadWeight&& load_weight,
    AttractionAt&& attraction, std::int32_t* touched_scratch) {
  // Branchless (weight, index) key reduction over zero-attraction slots with
  // room; attracted slots are collected (in ascending index order) on the way.
  std::uint64_t best_key = ~std::uint64_t{0};
  std::int32_t touched_count = 0;
  for (std::int32_t i = 0; i < count; ++i) {
    const NodeWeight w = load_weight(i);
    const EdgeWeight g = attraction(i);
    if (g != 0) {
      touched_scratch[touched_count++] = i;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(w) << 32) | static_cast<std::uint32_t>(i);
    const bool eligible = w + node_weight <= capacity && g == 0;
    const std::uint64_t masked = eligible ? key : ~std::uint64_t{0};
    best_key = masked < best_key ? masked : best_key;
  }
  const std::int32_t rep =
      best_key == ~std::uint64_t{0}
          ? -1
          : static_cast<std::int32_t>(best_key & 0xffffffffU);

  // Exact evaluation over attracted ∪ {representative}, ascending index,
  // reproducing the dense loop's comparison bit for bit. The representative
  // is scored at its scan-time weight (recovered from the key): sequentially
  // that equals a fresh load, and under concurrent overshoot it keeps the
  // slot eligible at the snapshot that selected it — re-loading could
  // otherwise drop the only zero-attraction candidate and fall through to
  // the all-full fallback, a divergence the dense racy loop cannot produce.
  std::int32_t best = -1;
  double best_score = 0.0;
  NodeWeight best_weight = 0;
  const auto consider_at = [&](std::int32_t i, NodeWeight w) {
    if (w + node_weight > capacity) {
      return;
    }
    const double score =
        static_cast<double>(attraction(i)) - factor * sqrt_cache(w);
    if (best < 0 || score > best_score ||
        (score == best_score && w < best_weight)) {
      best = i;
      best_score = score;
      best_weight = w;
    }
  };
  const auto rep_weight = static_cast<NodeWeight>(best_key >> 32);
  bool rep_pending = rep >= 0;
  for (std::int32_t t = 0; t < touched_count; ++t) {
    if (rep_pending && rep < touched_scratch[t]) {
      consider_at(rep, rep_weight);
      rep_pending = false;
    }
    const std::int32_t i = touched_scratch[t];
    consider_at(i, load_weight(i));
  }
  if (rep_pending) {
    consider_at(rep, rep_weight);
  }
  return best;
}

} // namespace oms
