#include "oms/multilevel/multilevel_partitioner.hpp"

#include <algorithm>

#include "oms/multilevel/contraction.hpp"
#include "oms/multilevel/inner_kernels.hpp"
#include "oms/multilevel/label_propagation.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/util/assert.hpp"

namespace oms {

/// Coarsening stops at max(kCoarseFloor, kCoarseningFactor * k) nodes, or
/// after kMaxLevels levels.
constexpr NodeId kCoarseFloor = 256;
constexpr std::int64_t kCoarseningFactor = 2;
constexpr int kMaxLevels = 40;
/// Initial partitions tried on the coarsest graph (best cut wins).
constexpr int kInitialAttempts = 3;

std::vector<BlockId> bfs_band_partition(const CsrGraph& graph, BlockId k,
                                        NodeWeight max_block_weight,
                                        std::uint64_t seed) {
  // No outside base weights: every block starts empty (the template's n == 0
  // guard also covers the empty graph, which used to hit next_below(0) UB).
  return bfs_band_impl(graph, k, max_block_weight, {}, seed);
}

MultilevelResult multilevel_partition(const CsrGraph& graph, BlockId k,
                                      const MultilevelConfig& config) {
  OMS_ASSERT(k >= 1);
  if (graph.num_nodes() == 0) {
    // Nothing to partition: coarsening, initial partitioning and refinement
    // are all vacuous (and bfs_band on n == 0 must not roll the RNG).
    MultilevelResult empty;
    empty.peak_graph_bytes = graph.memory_footprint_bytes();
    return empty;
  }
  if (k == 1) {
    MultilevelResult trivial;
    trivial.partition.assign(graph.num_nodes(), 0);
    trivial.peak_graph_bytes = graph.memory_footprint_bytes();
    return trivial;
  }
  const NodeWeight lmax = max_block_weight(graph.total_node_weight(), k,
                                           config.epsilon);

  // --- Coarsening -------------------------------------------------------
  // The hierarchy owns each coarse level; level 0 aliases the input graph.
  std::vector<Contraction> hierarchy;
  const CsrGraph* current = &graph;
  std::uint64_t live_bytes = graph.memory_footprint_bytes();
  std::uint64_t peak_bytes = live_bytes;
  const NodeId target = std::max<NodeId>(
      kCoarseFloor,
      static_cast<NodeId>(std::min<std::int64_t>(
          kCoarseningFactor * k,
          static_cast<std::int64_t>(graph.num_nodes()))));

  // Cluster weight cap derived from the coarsening target: with cap W/target,
  // clustering yields at least ~target clusters (unit weights), so it cannot
  // overshoot the coarsest size the initial partitioner is tuned for — the
  // overshoot guard below is then a genuine safety stop for weighted graphs,
  // not the every-time exit the old W/(4k) cap made it. The cap also keeps
  // coarse nodes small enough that a balanced k-way partition stays feasible
  // (target >= kCoarseningFactor * k).
  const NodeWeight max_cluster_weight = std::max<NodeWeight>(
      1, graph.total_node_weight() / std::max<NodeId>(1, target));

  for (int level = 0; level < kMaxLevels; ++level) {
    if (current->num_nodes() <= target) {
      break;
    }
    const std::vector<NodeId> cluster = lp_clustering(
        *current, max_cluster_weight, config.seed + static_cast<std::uint64_t>(level) + 1);
    const NodeId num_clusters = *std::max_element(cluster.begin(), cluster.end()) + 1;
    if (num_clusters >= current->num_nodes() ||
        num_clusters < target / 2 + 1) {
      // No progress, or the clustering would overshoot the coarsening target
      // by more than 2x: stop coarsening *before* contracting. (The old code
      // only stopped in the no-progress case and contracted the overshooting
      // clustering anyway, leaving a coarsest graph far below the size the
      // initial partitioner was tuned for.)
      break;
    }
    hierarchy.push_back(contract(*current, cluster));
    current = &hierarchy.back().coarse;
    live_bytes += current->memory_footprint_bytes();
    peak_bytes = std::max(peak_bytes, live_bytes);
  }

  // Balance bound per level: coarse nodes can be heavy, so a strict Lmax may
  // be unachievable at coarse levels (bin-packing granularity). The standard
  // remedy is Lmax + (max node weight) there; the finest level re-enforces
  // the strict bound, which is always achievable for unit node weights.
  const auto bound_for = [lmax](const CsrGraph& level_graph) {
    NodeWeight heaviest = 1;
    for (NodeId u = 0; u < level_graph.num_nodes(); ++u) {
      heaviest = std::max(heaviest, level_graph.node_weight(u));
    }
    return heaviest <= 1 ? lmax : lmax + heaviest;
  };

  // --- Initial partitioning ---------------------------------------------
  // Best of several seeds: the coarsest graph is small, so repeated initial
  // partitioning is cheap and buys noticeable quality (standard multilevel
  // practice).
  const NodeWeight coarsest_bound = bound_for(*current);

  std::vector<BlockId> partition;
  Cost best_cut = 0;
  for (int attempt = 0; attempt < kInitialAttempts; ++attempt) {
    const std::uint64_t seed = config.seed + static_cast<std::uint64_t>(attempt) * 101;
    std::vector<BlockId> candidate =
        bfs_band_partition(*current, k, coarsest_bound, seed);
    rebalance(*current, candidate, k, coarsest_bound);
    lp_refinement(*current, candidate, k, coarsest_bound, seed ^ 0x9e3779b9ULL);
    const Cost cut = edge_cut(*current, candidate);
    if (attempt == 0 || cut < best_cut) {
      best_cut = cut;
      partition = std::move(candidate);
    }
  }
  std::uint64_t refine_seed = config.seed ^ 0x9e3779b9ULL;

  // --- Uncoarsening -------------------------------------------------------
  for (std::size_t level = hierarchy.size(); level-- > 0;) {
    partition = project_partition(hierarchy[level].fine_to_coarse, partition);
    const CsrGraph& fine =
        (level == 0) ? graph : hierarchy[level - 1].coarse;
    const NodeWeight bound = bound_for(fine);
    lp_refinement(fine, partition, k, bound, ++refine_seed);
    rebalance(fine, partition, k, bound);
  }
  if (hierarchy.empty()) {
    // No uncoarsening happened: enforce the strict input-level bound now.
    rebalance(graph, partition, k, bound_for(graph));
  }

  MultilevelResult result;
  result.partition = std::move(partition);
  result.levels_used = static_cast<int>(hierarchy.size());
  result.peak_graph_bytes = peak_bytes;
  return result;
}

} // namespace oms
