/// \file mapping_cost.hpp
/// \brief The process-mapping objective J(C, D, Pi) = sum_{i,j} C_ij *
///        D_{Pi(i),Pi(j)} evaluated over a communication graph and a
///        hierarchical topology.
///
/// The communication matrix C is represented by the graph G_C itself (paper
/// Section 2.1): edge weights are the communication volumes, and the sum runs
/// over ordered pairs, i.e. every undirected edge contributes twice.
#pragma once

#include <span>

#include "oms/graph/csr_graph.hpp"
#include "oms/mapping/hierarchy.hpp"
#include "oms/types.hpp"

namespace oms {

/// Full objective: sum over ordered communicating pairs (u, v) of
/// C_uv * D_{Pi(u),Pi(v)}. Parallelized over contiguous node ranges (read-only
/// reduction on \p num_threads std::threads; 0 = all hardware threads).
[[nodiscard]] Cost mapping_cost(const CsrGraph& communication_graph,
                                const SystemHierarchy& topology,
                                std::span<const BlockId> mapping,
                                int num_threads = 1);

/// Abort with a diagnostic unless \p mapping maps every node into [0, k).
void verify_mapping(const CsrGraph& communication_graph,
                    const SystemHierarchy& topology, std::span<const BlockId> mapping);

/// Communication volume between each pair of hierarchy levels: entry j is
/// the summed C_uv (over ordered pairs) whose endpoints' PEs first meet in a
/// level-(j+1) module; entry 0 counts intra-PE pairs. Useful for examples
/// and for diagnosing *where* a mapping pays its cost.
[[nodiscard]] std::vector<Cost> per_level_volume(const CsrGraph& communication_graph,
                                                 const SystemHierarchy& topology,
                                                 std::span<const BlockId> mapping);

} // namespace oms
