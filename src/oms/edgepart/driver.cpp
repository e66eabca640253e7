#include "oms/edgepart/driver.hpp"

#include "oms/util/timer.hpp"

namespace oms {

EdgePartitionResult run_edge_partition(std::span<const StreamedEdge> edges,
                                       StreamingEdgePartitioner& partitioner) {
  EdgePartitionResult result;
  Timer timer;
  NodeId max_id = 0;
  for (const StreamedEdge& edge : edges) {
    if (edge.u == edge.v) {
      ++result.stats.self_loops_skipped;
      continue;
    }
    partitioner.assign(edge);
    ++result.stats.num_edges;
    max_id = edge.u > max_id ? edge.u : max_id;
    max_id = edge.v > max_id ? edge.v : max_id;
  }
  result.elapsed_s = timer.elapsed_s();
  result.stats.num_vertices = result.stats.num_edges > 0 ? max_id + 1 : 0;
  result.edge_assignment = partitioner.take_edge_assignment();
  return result;
}

} // namespace oms
