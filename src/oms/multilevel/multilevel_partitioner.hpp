/// \file multilevel_partitioner.hpp
/// \brief "KaMinParLite": an internal-memory multilevel k-way partitioner
///        serving as the paper's KaMinPar reference point — far better cuts
///        than any streaming algorithm, at far higher memory cost, with
///        balance always enforced.
///
/// Pipeline: size-constrained LP coarsening -> BFS-band initial k-way
/// partition on the coarsest graph -> uncoarsening with size-constrained LP
/// refinement and a greedy rebalancer at every level.
#pragma once

#include <cstdint>
#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/types.hpp"

namespace oms {

struct MultilevelConfig {
  double epsilon = 0.03;
  std::uint64_t seed = 1;
};

struct MultilevelResult {
  std::vector<BlockId> partition;
  int levels_used = 0;
  /// Peak of the summed CSR footprints alive at once — the reason streaming
  /// beats this approach on memory (Section 4.1).
  std::uint64_t peak_graph_bytes = 0;
};

/// Balanced k-way partition of \p graph (always satisfies the epsilon
/// constraint on return).
[[nodiscard]] MultilevelResult multilevel_partition(const CsrGraph& graph, BlockId k,
                                                    const MultilevelConfig& config);

/// BFS-band initial partitioning used on the coarsest level (exposed for
/// tests): walk the graph in BFS order filling blocks 0..k-1 up to Lmax.
[[nodiscard]] std::vector<BlockId> bfs_band_partition(const CsrGraph& graph, BlockId k,
                                                      NodeWeight max_block_weight,
                                                      std::uint64_t seed);

} // namespace oms
