#include "oms/multilevel/recursive_multisection.hpp"

#include <algorithm>
#include <cmath>

#include "oms/multilevel/block_swap.hpp"
#include "oms/multilevel/contraction.hpp"
#include "oms/multilevel/label_propagation.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/util/assert.hpp"

namespace oms {
namespace {

struct Recursion {
  const CsrGraph& graph;
  const std::vector<std::int64_t> extents_td; // outermost level first
  MultilevelConfig ml;
  std::vector<BlockId>& mapping;

  /// Solve the subproblem over \p nodes (original ids): split into
  /// extents_td[depth] parts, recurse; leaves receive PEs starting at
  /// \p pe_offset.
  void solve(const std::vector<NodeId>& nodes, std::size_t depth, BlockId pe_offset) {
    if (depth == extents_td.size()) {
      for (const NodeId u : nodes) {
        mapping[u] = pe_offset;
      }
      return;
    }
    const auto parts = static_cast<BlockId>(extents_td[depth]);
    std::int64_t leaves_below = 1;
    for (std::size_t d = depth + 1; d < extents_td.size(); ++d) {
      leaves_below *= extents_td[d];
    }
    if (parts == 1) {
      solve(nodes, depth + 1, pe_offset);
      return;
    }

    const InducedSubgraph sub = induced_subgraph(graph, nodes);
    MultilevelConfig local = ml;
    local.seed = ml.seed + depth * 7919 + static_cast<std::uint64_t>(pe_offset);
    const MultilevelResult result = multilevel_partition(sub.graph, parts, local);

    std::vector<std::vector<NodeId>> buckets(static_cast<std::size_t>(parts));
    for (NodeId local_u = 0; local_u < sub.graph.num_nodes(); ++local_u) {
      buckets[static_cast<std::size_t>(result.partition[local_u])].push_back(
          sub.to_parent[local_u]);
    }
    for (BlockId b = 0; b < parts; ++b) {
      solve(buckets[static_cast<std::size_t>(b)], depth + 1,
            pe_offset + b * static_cast<BlockId>(leaves_below));
    }
  }
};

} // namespace

IntMapResult offline_recursive_multisection(const CsrGraph& graph,
                                            const SystemHierarchy& topology,
                                            const IntMapConfig& config) {
  const BlockId k = topology.num_pes();
  IntMapResult result;
  result.mapping.assign(graph.num_nodes(), kInvalidBlock);

  // Attenuate epsilon so that l nested (1 + eps_level) factors compound to at
  // most the requested (1 + eps) overall.
  const auto levels = static_cast<double>(topology.num_levels());
  MultilevelConfig ml = config.multilevel;
  ml.epsilon = std::pow(1.0 + config.multilevel.epsilon, 1.0 / levels) - 1.0;
  ml.seed = config.seed;

  std::vector<NodeId> all_nodes(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    all_nodes[u] = u;
  }
  Recursion recursion{graph, topology.extents_top_down(), ml, result.mapping};
  recursion.solve(all_nodes, 0, 0);

  // Ceil-rounding inside nested subproblems can overshoot the global bound
  // by a node or two; enforce it exactly, as the paper's tools do.
  const NodeWeight lmax = max_block_weight(graph.total_node_weight(), k,
                                           config.multilevel.epsilon);
  rebalance(graph, result.mapping, k, lmax);

  if (config.swap_refinement) {
    swap_refine_mapping(graph, topology, result.mapping, config.seed);
  }

  // Peak memory: the full graph plus the largest induced subgraph chain is
  // dominated by ~2x the input CSR; report the input footprint as the floor.
  result.peak_graph_bytes = graph.memory_footprint_bytes() * 2;
  return result;
}

} // namespace oms
