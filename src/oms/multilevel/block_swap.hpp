/// \file block_swap.hpp
/// \brief Pairwise block-swap local search on the mapping objective J —
///        the Brandfass-style refinement the paper's offline mapping tools
///        finish with. Works on the contracted block communication graph,
///        so each swap evaluation costs O(deg of the two blocks).
#pragma once

#include <cstdint>
#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/mapping/hierarchy.hpp"
#include "oms/types.hpp"

namespace oms {

/// Aggregated communication between blocks of a partition: entry (b, c, w)
/// means blocks b and c exchange total volume w (each unordered pair once).
struct BlockGraph {
  BlockId k = 0;
  std::vector<std::vector<std::pair<BlockId, EdgeWeight>>> adjacency;

  [[nodiscard]] static BlockGraph build(const CsrGraph& graph,
                                        const std::vector<BlockId>& partition,
                                        BlockId k);
};

/// Hill-climb the PE permutation of the blocks: try swapping the PEs of block
/// pairs that communicate (plus random pairs drawn from \p seed), accept
/// strict improvements of J, stop after a full round without improvement (or
/// 10 rounds). The node mapping is updated in place. Returns the number of
/// accepted swaps.
std::size_t swap_refine_mapping(const CsrGraph& graph, const SystemHierarchy& topology,
                                std::vector<BlockId>& mapping, std::uint64_t seed);

} // namespace oms
