/// \file recursive_multisection.hpp
/// \brief "IntMapLite": the *offline* recursive multi-section mapper the
///        paper uses as its internal-memory mapping reference — partition
///        the whole graph into a_l blocks with the multilevel partitioner,
///        recurse into every block for a_{l-1}, ..., then improve the
///        block-to-PE assignment with pairwise-swap local search
///        (Brandfass-style), all with the full graph in memory.
#pragma once

#include <cstdint>

#include "oms/graph/csr_graph.hpp"
#include "oms/mapping/hierarchy.hpp"
#include "oms/multilevel/multilevel_partitioner.hpp"
#include "oms/types.hpp"

namespace oms {

struct IntMapConfig {
  MultilevelConfig multilevel;
  bool swap_refinement = true;
  std::uint64_t seed = 1;
};

struct IntMapResult {
  std::vector<BlockId> mapping; ///< node -> PE
  std::uint64_t peak_graph_bytes = 0;
};

/// Map \p graph onto \p topology. The returned mapping respects the global
/// balance constraint (per-level epsilons are attenuated so imbalance does
/// not compound across the recursion; a final rebalance enforces the bound).
[[nodiscard]] IntMapResult offline_recursive_multisection(
    const CsrGraph& graph, const SystemHierarchy& topology, const IntMapConfig& config);

} // namespace oms
