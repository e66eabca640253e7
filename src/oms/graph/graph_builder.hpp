/// \file graph_builder.hpp
/// \brief Edge-list accumulator that establishes the CsrGraph invariants:
///        it symmetrizes, drops self-loops, merges parallel edges (summing
///        weights), and sorts adjacency lists.
///
/// This mirrors the preprocessing the paper applies to its benchmark graphs
/// ("removing parallel edges, self loops, and directions").
///
/// build() runs in O(n + m) plus the sorts of rows that arrive out of order:
/// it counts both arc directions per node, scatters the arcs into their CSR
/// rows in insertion order, and merges parallel arcs row by row. A row is
/// sorted only when its arcs are not already ascending, which they are
/// whenever the edges were added in ascending (u, v) order, as read_metis
/// adds them from a file with sorted adjacency lists.
#pragma once

#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/types.hpp"

namespace oms {

class GraphBuilder {
public:
  /// \param num_nodes  final node count; all edge endpoints must be < it.
  explicit GraphBuilder(NodeId num_nodes);

  /// Room for \p num_edges add_edge calls, so the edge array need not grow
  /// by doubling when the count is known up front.
  void reserve_edges(std::size_t num_edges);

  /// Record an undirected edge {u, v}; direction and duplicates are fine,
  /// self-loops are silently dropped. Weights of duplicates are summed.
  void add_edge(NodeId u, NodeId v, EdgeWeight weight = 1);

  /// Override the (default unit) weight of a node.
  void set_node_weight(NodeId u, NodeWeight weight);

  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }

  /// Produce the finished graph. The builder is consumed.
  [[nodiscard]] CsrGraph build() &&;

private:
  struct Edge {
    NodeId u;
    NodeId v;
    EdgeWeight w;
  };

  NodeId num_nodes_;
  std::vector<Edge> edges_;
  std::vector<NodeWeight> node_weights_;
};

} // namespace oms
