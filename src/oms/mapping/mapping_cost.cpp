#include "oms/mapping/mapping_cost.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "oms/util/assert.hpp"
#include "oms/util/parallel.hpp"

namespace oms {

Cost mapping_cost(const CsrGraph& graph, const SystemHierarchy& topology,
                  std::span<const BlockId> mapping, int num_threads) {
  OMS_ASSERT(mapping.size() == graph.num_nodes());
  const std::size_t n = graph.num_nodes();
  const std::size_t threads =
      std::min<std::size_t>(resolve_threads(num_threads), std::max<std::size_t>(n, 1));
  // Read-only fan-out: thread t sums its contiguous node range locally and
  // adds it to the total once.
  std::atomic<Cost> total{0};
  const auto sum_range = [&](std::size_t t) {
    Cost local = 0;
    for (auto u = static_cast<NodeId>(n * t / threads); u < n * (t + 1) / threads; ++u) {
      const auto neigh = graph.neighbors(u);
      const auto weights = graph.incident_weights(u);
      const BlockId pu = mapping[u];
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        local += weights[i] * topology.distance(pu, mapping[neigh[i]]);
      }
    }
    total.fetch_add(local, std::memory_order_relaxed);
  };
  std::vector<std::jthread> workers;
  for (std::size_t t = 1; t < threads; ++t) {
    workers.emplace_back(sum_range, t);
  }
  sum_range(0);
  workers.clear(); // joins
  // Each undirected edge was visited from both endpoints — exactly the
  // ordered-pair sum of the objective definition.
  return total.load(std::memory_order_relaxed);
}

void verify_mapping(const CsrGraph& graph, const SystemHierarchy& topology,
                    std::span<const BlockId> mapping) {
  OMS_ASSERT_MSG(mapping.size() == graph.num_nodes(),
                 "mapping size must equal node count");
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    OMS_ASSERT_MSG(mapping[u] >= 0 && mapping[u] < topology.num_pes(),
                   "node mapped outside the PE range");
  }
}

std::vector<Cost> per_level_volume(const CsrGraph& graph,
                                   const SystemHierarchy& topology,
                                   std::span<const BlockId> mapping) {
  OMS_ASSERT(mapping.size() == graph.num_nodes());
  std::vector<Cost> volume(topology.num_levels() + 1, 0);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto neigh = graph.neighbors(u);
    const auto weights = graph.incident_weights(u);
    const BlockId pu = mapping[u];
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      volume[topology.meeting_level(pu, mapping[neigh[i]])] += weights[i];
    }
  }
  return volume;
}

} // namespace oms
