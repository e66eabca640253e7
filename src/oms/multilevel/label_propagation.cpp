#include "oms/multilevel/label_propagation.hpp"

#include <algorithm>
#include <numeric>

#include "oms/multilevel/inner_kernels.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/random.hpp"

namespace oms {

constexpr int kLpIterations = 5;

std::vector<NodeId> lp_clustering(const CsrGraph& graph,
                                  NodeWeight max_cluster_weight,
                                  std::uint64_t seed) {
  return lp_cluster_impl(graph, max_cluster_weight, kLpIterations, seed);
}

std::size_t lp_refinement(const CsrGraph& graph, std::vector<BlockId>& partition,
                          BlockId k, NodeWeight max_block_weight,
                          std::uint64_t seed) {
  const NodeId n = graph.num_nodes();
  OMS_ASSERT(partition.size() == n);
  std::vector<NodeWeight> block_weight(static_cast<std::size_t>(k), 0);
  for (NodeId u = 0; u < n; ++u) {
    block_weight[static_cast<std::size_t>(partition[u])] += graph.node_weight(u);
  }

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  Rng rng(seed);
  ConnectionGather gather(static_cast<std::size_t>(k));
  std::size_t total_moved = 0;

  for (int iteration = 0; iteration < kLpIterations; ++iteration) {
    rng.shuffle(order);
    std::size_t moved = 0;
    for (const NodeId u : order) {
      const auto neigh = graph.neighbors(u);
      if (neigh.empty()) {
        continue;
      }
      const auto weights = graph.incident_weights(u);
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        gather.add(static_cast<std::size_t>(partition[neigh[i]]), weights[i]);
      }
      const auto current = static_cast<std::size_t>(partition[u]);
      const EdgeWeight internal = gather.get(current);
      const NodeWeight u_weight = graph.node_weight(u);
      std::size_t best = current;
      EdgeWeight best_connection = internal;
      // Post-move weight of the best option so far: staying leaves the
      // current block at its full weight (u included); moving to a candidate
      // puts u's weight there. Comparing both sides post-move makes the
      // zero-gain tiebreak actually balance-improving — the old code
      // compared the candidate *without* u against the current block *with*
      // u, firing "towards a lighter block" on blocks that end up heavier.
      NodeWeight best_weight = block_weight[current];
      for (const std::size_t candidate : gather.touched()) {
        if (candidate == current) {
          continue;
        }
        const NodeWeight candidate_weight = block_weight[candidate] + u_weight;
        if (candidate_weight > max_block_weight) {
          continue;
        }
        const EdgeWeight connection = gather.get(candidate);
        // Strict gain, or zero gain towards a lighter (post-move) block
        // (helps balance without hurting the cut).
        if (connection > best_connection ||
            (connection == best_connection && candidate_weight < best_weight)) {
          best = candidate;
          best_connection = connection;
          best_weight = candidate_weight;
        }
      }
      gather.clear();
      if (best != current) {
        block_weight[current] -= u_weight;
        block_weight[best] += u_weight;
        partition[u] = static_cast<BlockId>(best);
        ++moved;
      }
    }
    total_moved += moved;
    if (moved == 0) {
      break;
    }
  }
  return total_moved;
}

void rebalance(const CsrGraph& graph, std::vector<BlockId>& partition, BlockId k,
               NodeWeight max_block_weight) {
  const NodeId n = graph.num_nodes();
  std::vector<NodeWeight> block_weight(static_cast<std::size_t>(k), 0);
  for (NodeId u = 0; u < n; ++u) {
    block_weight[static_cast<std::size_t>(partition[u])] += graph.node_weight(u);
  }

  // Collect nodes of overweight blocks, lightest first, and push them to the
  // lightest block that can take them.
  for (BlockId b = 0; b < k; ++b) {
    if (block_weight[static_cast<std::size_t>(b)] <= max_block_weight) {
      continue;
    }
    std::vector<NodeId> members;
    for (NodeId u = 0; u < n; ++u) {
      if (partition[u] == b) {
        members.push_back(u);
      }
    }
    // Moving low-degree nodes first tends to cost the least cut.
    std::sort(members.begin(), members.end(), [&](NodeId a, NodeId c) {
      return graph.degree(a) < graph.degree(c);
    });
    for (const NodeId u : members) {
      if (block_weight[static_cast<std::size_t>(b)] <= max_block_weight) {
        break;
      }
      BlockId target = kInvalidBlock;
      for (BlockId t = 0; t < k; ++t) {
        if (t == b) {
          continue;
        }
        if (block_weight[static_cast<std::size_t>(t)] + graph.node_weight(u) >
            max_block_weight) {
          continue;
        }
        if (target == kInvalidBlock ||
            block_weight[static_cast<std::size_t>(t)] <
                block_weight[static_cast<std::size_t>(target)]) {
          target = t;
        }
      }
      OMS_ASSERT_MSG(target != kInvalidBlock,
                     "rebalance impossible: total capacity below total weight");
      block_weight[static_cast<std::size_t>(b)] -= graph.node_weight(u);
      block_weight[static_cast<std::size_t>(target)] += graph.node_weight(u);
      partition[u] = target;
    }
  }
}

} // namespace oms
