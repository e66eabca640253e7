#include "oms/edgepart/hdrf.hpp"

#include <bit>

namespace oms {

namespace {

/// Keeps bal(b) strictly decreasing in load(b) after rounding (see hdrf.hpp):
/// lambda in [2^-900, 2^40] and a load spread below 2^40.
constexpr double kMinExactLambda = 0x1p-900;
constexpr double kMaxExactLambda = 0x1p40;
constexpr EdgeWeight kMaxExactSpread = EdgeWeight{1} << 40;

} // namespace

HdrfPartitioner::HdrfPartitioner(const EdgePartConfig& config)
    : StreamingEdgePartitioner(config),
      exact_lambda_(config.lambda == 0.0 || (config.lambda >= kMinExactLambda &&
                                             config.lambda <= kMaxExactLambda)) {
  const std::span<const EdgeWeight> loads = edge_loads();
  tree_.build(config.k, [loads](std::int32_t b) {
    return loads[static_cast<std::size_t>(b)];
  });
}

BlockId HdrfPartitioner::choose_block(const StreamedEdge& edge) {
  // Partial degrees are bumped on arrival, before scoring, per the original
  // streaming formulation (the edge itself is evidence of degree).
  const auto du = static_cast<double>(degrees_.increment(edge.u));
  const auto dv = static_cast<double>(degrees_.increment(edge.v));
  const double degree_sum = du + dv;
  // theta(x) in the paper: the *normalized complement* of x's degree share —
  // rewarding the block that already holds the lower-degree endpoint.
  const double gain_u = 1.0 + (1.0 - du / degree_sum);
  const double gain_v = 1.0 + (1.0 - dv / degree_sum);

  const std::span<const EdgeWeight> loads = edge_loads();
  const BitsetTable& reps = replicas();
  const BlockId k = num_blocks();
  const double lambda = config().lambda;

  const BlockId root = tree_.min_index();
  const EdgeWeight min_load = loads[static_cast<std::size_t>(root)];
  const EdgeWeight max_load = max_load_;
  const double balance_range = 1.0 + static_cast<double>(max_load - min_load);
  const auto balance = [&](BlockId b) {
    return lambda * static_cast<double>(max_load - loads[static_cast<std::size_t>(b)]) /
           balance_range;
  };

  if (!exact_lambda_ || max_load - min_load >= kMaxExactSpread) {
    BlockId best = 0;
    double best_score = -1.0;
    for (BlockId b = 0; b < k; ++b) {
      double score = balance(b);
      if (reps.test(edge.u, b)) {
        score += gain_u;
      }
      if (reps.test(edge.v, b)) {
        score += gain_v;
      }
      if (score > best_score) {
        best_score = score;
        best = b;
      }
    }
    return best;
  }

  // Exact sparse selection: score the replica blocks of u and v (set bits of
  // R(u) | R(v), ascending) plus one non-replica block. Non-replica blocks
  // score bal(b) alone. With lambda > 0 that is strictly decreasing in the
  // load, so the min-(load, index) root beats or ties-and-precedes every
  // other non-replica block; if the root is itself a replica block, it beats
  // them all by its gain >= 1. With lambda == 0 every non-replica block
  // scores 0, so the lowest-index one stands for them.
  BlockId best = -1;
  double best_score = -1.0;
  BlockId first_free = -1;
  const std::size_t words = reps.words_per_row();
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t ru = reps.word(edge.u, w);
    const std::uint64_t rv = reps.word(edge.v, w);
    if (first_free < 0 && ~(ru | rv) != 0) {
      first_free = static_cast<BlockId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(~(ru | rv))));
    }
    for (std::uint64_t bits = ru | rv; bits != 0; bits &= bits - 1) {
      const int bit = std::countr_zero(bits);
      const auto b = static_cast<BlockId>(w * 64 + static_cast<std::size_t>(bit));
      double score = balance(b);
      if ((ru >> bit) & 1U) {
        score += gain_u;
      }
      if ((rv >> bit) & 1U) {
        score += gain_v;
      }
      if (score > best_score) {
        best_score = score;
        best = b;
      }
    }
  }
  const BlockId extra = lambda == 0.0 ? first_free : root;
  // A replica root was scored above with its gains; its bal() alone cannot
  // displace it.
  if (extra >= 0 && extra < k) {
    const double score = balance(extra);
    if (score > best_score || (score == best_score && extra < best)) {
      best = extra;
    }
  }
  return best;
}

void HdrfPartitioner::on_placed(const StreamedEdge& edge, BlockId block) {
  // Loads only grow (edge weights are positive), so the max is a running max.
  OMS_HEAVY_ASSERT(edge.weight >= 0);
  (void)edge;
  const std::span<const EdgeWeight> loads = edge_loads();
  const EdgeWeight load = loads[static_cast<std::size_t>(block)];
  max_load_ = load > max_load_ ? load : max_load_;
  tree_.update(block, [loads](std::int32_t b) {
    return loads[static_cast<std::size_t>(b)];
  });
}

} // namespace oms
