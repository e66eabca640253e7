/// \file label_propagation.hpp
/// \brief Size-constrained label propagation — the workhorse of the
///        internal-memory baseline: used as clustering for coarsening and as
///        k-way refinement during uncoarsening (the same roles it plays in
///        KaMinPar, which this baseline stands in for).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/types.hpp"

namespace oms {

/// Both label propagations stop after 5 sweeps, or once a sweep moves
/// nothing; \p seed drives their shuffled visit orders.

/// Clustering for coarsening: every node starts as its own cluster; nodes
/// greedily join the neighboring cluster with the heaviest connection,
/// subject to cluster weights staying below \p max_cluster_weight.
/// Returns cluster ids renumbered densely to [0, num_clusters).
[[nodiscard]] std::vector<NodeId> lp_clustering(const CsrGraph& graph,
                                                NodeWeight max_cluster_weight,
                                                std::uint64_t seed);

/// k-way refinement: move nodes to the adjacent block with the highest
/// positive gain (connection-weight delta), subject to the balance
/// constraint max_block_weight. Modifies \p partition in place and returns
/// the number of nodes moved.
std::size_t lp_refinement(const CsrGraph& graph, std::vector<BlockId>& partition,
                          BlockId k, NodeWeight max_block_weight, std::uint64_t seed);

/// Greedy balancer: while some block exceeds \p max_block_weight, move the
/// node with the smallest cut-increase out of the heaviest block into the
/// lightest block with room. Guarantees the balance constraint on return
/// (possible whenever k * max_block_weight >= c(V)).
void rebalance(const CsrGraph& graph, std::vector<BlockId>& partition, BlockId k,
               NodeWeight max_block_weight);

} // namespace oms
