#include "oms/graph/graph_builder.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

namespace oms {

GraphBuilder::GraphBuilder(NodeId num_nodes)
    : num_nodes_(num_nodes), node_weights_(num_nodes, NodeWeight{1}) {}

void GraphBuilder::reserve_edges(std::size_t num_edges) {
  edges_.reserve(num_edges);
}

void GraphBuilder::add_edge(NodeId u, NodeId v, EdgeWeight weight) {
  OMS_ASSERT_MSG(u < num_nodes_ && v < num_nodes_, "edge endpoint out of range");
  OMS_ASSERT_MSG(weight > 0, "edge weights must be positive");
  if (u == v) {
    return; // self-loops are dropped, matching the paper's preprocessing
  }
  if (u > v) {
    std::swap(u, v);
  }
  edges_.push_back({u, v, weight});
}

void GraphBuilder::set_node_weight(NodeId u, NodeWeight weight) {
  OMS_ASSERT_MSG(u < num_nodes_, "node id out of range");
  OMS_ASSERT_MSG(weight >= 0, "node weights must be non-negative");
  node_weights_[u] = weight;
}

CsrGraph GraphBuilder::build() && {
  const std::size_t n = num_nodes_;

  // Count both arc directions per node, shifted by one so that after the
  // prefix sum xadj[u] is the first slot of row u.
  std::vector<EdgeIndex> xadj(n + 1, 0);
  for (const Edge& e : edges_) {
    ++xadj[e.u + 1];
    ++xadj[e.v + 1];
  }
  std::partial_sum(xadj.begin(), xadj.end(), xadj.begin());

  // Scatter every arc into its row, with xadj[u] as row u's write cursor;
  // afterwards xadj[u] holds the old xadj[u + 1], so shift it back.
  std::vector<NodeId> adjncy(edges_.size() * 2);
  std::vector<EdgeWeight> adjwgt(edges_.size() * 2);
  for (const Edge& e : edges_) {
    const EdgeIndex at_u = xadj[e.u]++;
    adjncy[at_u] = e.v;
    adjwgt[at_u] = e.w;
    const EdgeIndex at_v = xadj[e.v]++;
    adjncy[at_v] = e.u;
    adjwgt[at_v] = e.w;
  }
  std::move_backward(xadj.begin(), xadj.end() - 1, xadj.end());
  xadj[0] = 0;
  edges_ = {};

  // Per row: sort when the arcs did not arrive ascending (they do whenever
  // the edges were added in ascending (u, v) order), then merge parallel
  // arcs by summing their weights, compacting the row to the left. Writing
  // never overtakes reading, since no row grows.
  std::vector<std::pair<NodeId, EdgeWeight>> scratch;
  EdgeIndex out = 0;
  EdgeIndex begin = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const EdgeIndex end = xadj[u + 1];
    const auto first = adjncy.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = adjncy.begin() + static_cast<std::ptrdiff_t>(end);
    if (!std::is_sorted(first, last)) {
      scratch.clear();
      for (EdgeIndex i = begin; i < end; ++i) {
        scratch.emplace_back(adjncy[i], adjwgt[i]);
      }
      std::sort(scratch.begin(), scratch.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (EdgeIndex i = begin; i < end; ++i) {
        std::tie(adjncy[i], adjwgt[i]) = scratch[i - begin];
      }
    }
    const EdgeIndex row_start = out;
    xadj[u] = row_start;
    for (EdgeIndex i = begin; i < end; ++i) {
      if (out > row_start && adjncy[out - 1] == adjncy[i]) {
        adjwgt[out - 1] += adjwgt[i];
      } else {
        adjncy[out] = adjncy[i];
        adjwgt[out] = adjwgt[i];
        ++out;
      }
    }
    begin = end;
  }
  xadj[n] = out;
  // memory_footprint_bytes() reports capacities: keep them equal to the size.
  if (out < adjncy.size()) {
    adjncy.resize(out);
    adjncy.shrink_to_fit();
    adjwgt.resize(out);
    adjwgt.shrink_to_fit();
  }

  return CsrGraph(std::move(xadj), std::move(adjncy), std::move(adjwgt),
                  std::move(node_weights_));
}

} // namespace oms
