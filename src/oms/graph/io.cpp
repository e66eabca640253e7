#include "oms/graph/io.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "oms/graph/graph_builder.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/io_error.hpp"

namespace oms {

void write_metis(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  OMS_ASSERT_MSG(out.good(), "cannot open file for writing");

  bool node_weights = false;
  bool edge_weights = false;
  for (NodeId u = 0; u < graph.num_nodes() && !node_weights; ++u) {
    node_weights = graph.node_weight(u) != 1;
  }
  for (const EdgeWeight w : graph.raw_adjwgt()) {
    if (w != 1) {
      edge_weights = true;
      break;
    }
  }

  out << graph.num_nodes() << ' ' << graph.num_edges();
  if (node_weights || edge_weights) {
    out << ' ' << (node_weights ? '1' : '0') << (edge_weights ? '1' : '0');
  }
  out << '\n';

  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    std::ostringstream line;
    if (node_weights) {
      line << graph.node_weight(u);
    }
    const auto neigh = graph.neighbors(u);
    const auto weights = graph.incident_weights(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      if (node_weights || i > 0) {
        line << ' ';
      }
      line << (neigh[i] + 1);
      if (edge_weights) {
        line << ' ' << weights[i];
      }
    }
    out << line.str() << '\n';
  }
  OMS_ASSERT_MSG(out.good(), "write failure");
}

void write_edge_list(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  OMS_ASSERT_MSG(out.good(), "cannot open file for writing");

  bool edge_weights = false;
  for (const EdgeWeight w : graph.raw_adjwgt()) {
    if (w != 1) {
      edge_weights = true;
      break;
    }
  }

  out << "# edge list of " << graph.num_nodes() << " nodes, "
      << graph.num_edges() << " edges\n";
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto neigh = graph.neighbors(u);
    const auto weights = graph.incident_weights(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      if (neigh[i] <= u) {
        continue; // each undirected edge once, u < v
      }
      out << u << ' ' << neigh[i];
      if (edge_weights) {
        out << ' ' << weights[i];
      }
      out << '\n';
    }
  }
  OMS_ASSERT_MSG(out.good(), "write failure");
}

CsrGraph read_metis(const std::string& path) {
  auto stream = std::make_unique<MetisNodeStream>(path);
  const MetisHeader header = stream->header();
  GraphBuilder builder(header.num_nodes);
  // Size the edge array from the header, but never beyond what the input
  // can hold: a regular file of B bytes lists each edge from both endpoints,
  // at least two bytes ("1 ") per listing, so at most B / 4 edges. A pipe
  // has no size and gets no reserve. Either way a header that lies about m
  // fails the edge-count check below, not the allocation.
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (!ec) {
      builder.reserve_edges(static_cast<std::size_t>(
          std::min<std::uintmax_t>(header.num_edges, bytes / 4)));
    }
  }
  StreamedNode node{};
  while (stream->next(node)) {
    if (header.has_node_weights) {
      builder.set_node_weight(node.id, node.weight);
    }
    // METIS lists every edge from both endpoints; record the canonical
    // direction only so GraphBuilder does not double the weights.
    for (std::size_t i = 0; i < node.neighbors.size(); ++i) {
      if (node.id < node.neighbors[i]) {
        builder.add_edge(node.id, node.neighbors[i], node.edge_weights[i]);
      }
    }
  }
  stream.reset(); // free the chunk buffer before build() allocates the CSR
  CsrGraph graph = std::move(builder).build();
  if (graph.num_edges() != header.num_edges) {
    throw IoError(path + ": edge count disagrees with METIS header (header says " +
                  std::to_string(header.num_edges) + ", file has " +
                  std::to_string(graph.num_edges()) + ")");
  }
  return graph;
}

} // namespace oms
