#include "oms/multilevel/block_swap.hpp"

#include <unordered_map>

#include "oms/util/assert.hpp"
#include "oms/util/random.hpp"

namespace oms {

BlockGraph BlockGraph::build(const CsrGraph& graph,
                             const std::vector<BlockId>& partition, BlockId k) {
  OMS_ASSERT(partition.size() == graph.num_nodes());
  BlockGraph bg;
  bg.k = k;
  bg.adjacency.resize(static_cast<std::size_t>(k));

  std::vector<std::unordered_map<BlockId, EdgeWeight>> accum(
      static_cast<std::size_t>(k));
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto neigh = graph.neighbors(u);
    const auto weights = graph.incident_weights(u);
    const BlockId bu = partition[u];
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const BlockId bv = partition[neigh[i]];
      if (bu < bv) { // each fine edge once, each unordered block pair once
        accum[static_cast<std::size_t>(bu)][bv] += weights[i];
      }
    }
  }
  for (BlockId b = 0; b < k; ++b) {
    for (const auto& [c, w] : accum[static_cast<std::size_t>(b)]) {
      bg.adjacency[static_cast<std::size_t>(b)].emplace_back(c, w);
      bg.adjacency[static_cast<std::size_t>(c)].emplace_back(b, w);
    }
  }
  return bg;
}

namespace {

/// Upper bound on the swap rounds; most runs stop earlier, after a round
/// without an accepted swap.
constexpr int kMaxRounds = 10;

/// Cost change of block x's incident communication if x moved from PE
/// perm[x] to PE new_pe (partner y excluded: its term is swap-invariant
/// because D is symmetric).
[[nodiscard]] std::int64_t move_delta(const BlockGraph& bg,
                                      const SystemHierarchy& topology,
                                      const std::vector<BlockId>& perm, BlockId x,
                                      BlockId new_pe, BlockId partner) {
  std::int64_t delta = 0;
  for (const auto& [c, w] : bg.adjacency[static_cast<std::size_t>(x)]) {
    if (c == partner) {
      continue;
    }
    delta += static_cast<std::int64_t>(w) *
             (topology.distance(new_pe, perm[static_cast<std::size_t>(c)]) -
              topology.distance(perm[static_cast<std::size_t>(x)],
                                perm[static_cast<std::size_t>(c)]));
  }
  return delta;
}

} // namespace

std::size_t swap_refine_mapping(const CsrGraph& graph, const SystemHierarchy& topology,
                                std::vector<BlockId>& mapping, std::uint64_t seed) {
  const BlockId k = topology.num_pes();
  const BlockGraph bg = BlockGraph::build(graph, mapping, k);

  // perm[b] = PE currently hosting block b (blocks are named by their
  // original PE, so perm starts as the identity).
  std::vector<BlockId> perm(static_cast<std::size_t>(k));
  for (BlockId b = 0; b < k; ++b) {
    perm[static_cast<std::size_t>(b)] = b;
  }

  Rng rng(seed);
  std::size_t accepted = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    std::size_t round_accepted = 0;

    const auto try_swap = [&](BlockId x, BlockId y) {
      if (x == y) {
        return;
      }
      const std::int64_t delta =
          move_delta(bg, topology, perm, x, perm[static_cast<std::size_t>(y)], y) +
          move_delta(bg, topology, perm, y, perm[static_cast<std::size_t>(x)], x);
      if (delta < 0) {
        std::swap(perm[static_cast<std::size_t>(x)],
                  perm[static_cast<std::size_t>(y)]);
        ++round_accepted;
      }
    };

    // Communicating pairs are the most promising candidates (Brandfass'
    // "only consider pairs that can reduce the objective").
    for (BlockId b = 0; b < k; ++b) {
      for (const auto& [c, w] : bg.adjacency[static_cast<std::size_t>(b)]) {
        if (b < c) {
          try_swap(b, c);
        }
      }
    }
    // A sprinkle of random pairs escapes purely local structure.
    for (BlockId i = 0; i < k; ++i) {
      try_swap(static_cast<BlockId>(rng.next_below(static_cast<std::uint64_t>(k))),
               static_cast<BlockId>(rng.next_below(static_cast<std::uint64_t>(k))));
    }

    accepted += round_accepted;
    if (round_accepted == 0) {
      break;
    }
  }

  for (auto& pe : mapping) {
    pe = perm[static_cast<std::size_t>(pe)];
  }
  return accepted;
}

} // namespace oms
