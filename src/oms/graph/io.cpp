#include "oms/graph/io.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "oms/graph/graph_builder.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/node_batch.hpp"
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

namespace {

/// True when \p rows are canonical CSR rows: each strictly ascending with no
/// self-loop, and every arc (u, v, w) matched by an arc (v, u, w). Those are
/// exactly the rows GraphBuilder assembles from the arcs with u < v. One
/// pass: cursor[v] is the first unmatched slot of row v, and rows u < v
/// match the arcs to lower ids at the front of row v in ascending order, so
/// when row u comes up, its lower part must be matched already.
[[nodiscard]] bool rows_are_canonical(const NodeBatch::Storage& rows) {
  const std::size_t n = rows.weights.size();
  const auto& xadj = rows.offsets;
  const auto& adjncy = rows.neighbors;
  const auto& adjwgt = rows.edge_weights;
  std::vector<EdgeIndex> cursor(xadj.begin(), xadj.end() - 1);
  for (std::size_t u = 0; u < n; ++u) {
    std::size_t prev = u;
    for (EdgeIndex i = cursor[u]; i < xadj[u + 1]; ++i) {
      const NodeId v = adjncy[i];
      if (v <= prev) {
        return false; // unmatched arc to a lower id, self-loop or disorder
      }
      EdgeIndex& reverse = cursor[v];
      if (reverse == xadj[v + 1] || adjncy[reverse] != u ||
          adjwgt[reverse] != adjwgt[i]) {
        return false;
      }
      ++reverse;
      prev = v;
    }
  }
  return true;
}

} // namespace

CsrGraph read_metis(const std::string& path) {
  auto stream = std::make_unique<MetisNodeStream>(path);
  const MetisHeader header = stream->header();
  // Size the arc arrays from the header, but never beyond what the input
  // can hold: a regular file of B bytes holds at most B / 2 arcs, each at
  // least a digit and a separator ("1 "). A pipe has no size and gets no
  // arc reserve. Either way a header that lies about m fails the edge-count
  // check below, not the allocation. (2m cannot overflow: m < 2^63.)
  std::size_t arcs = 0;
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (!ec) {
      arcs = static_cast<std::size_t>(
          std::min<std::uintmax_t>(2 * header.num_edges, bytes / 2));
    }
  }
  // The whole file as one batch: its owned storage is the CSR layout.
  NodeBatch batch;
  batch.reserve(header.num_nodes, arcs);
  stream->fill_batch(batch, header.num_nodes);
  stream.reset(); // free the chunk buffer before the CSR is finished
  NodeBatch::Storage rows = std::move(batch).release();

  CsrGraph graph;
  if (rows_are_canonical(rows)) {
    // memory_footprint_bytes() reports capacities: keep them equal to the
    // size (they already are when the reserve matched the header).
    if (rows.neighbors.size() < rows.neighbors.capacity()) {
      rows.neighbors.shrink_to_fit();
      rows.edge_weights.shrink_to_fit();
    }
    graph = CsrGraph(std::move(rows.offsets), std::move(rows.neighbors),
                     std::move(rows.edge_weights), std::move(rows.weights));
  } else {
    // METIS lists every edge from both endpoints; record the canonical
    // direction only so GraphBuilder does not double the weights. It sorts,
    // merges duplicates, drops self-loops and symmetrizes the rest.
    GraphBuilder builder(header.num_nodes);
    builder.reserve_edges(rows.neighbors.size() / 2); // exact when symmetric
    for (NodeId u = 0; u < header.num_nodes; ++u) {
      if (header.has_node_weights) {
        builder.set_node_weight(u, rows.weights[u]);
      }
      for (EdgeIndex i = rows.offsets[u]; i < rows.offsets[u + 1]; ++i) {
        if (u < rows.neighbors[i]) {
          builder.add_edge(u, rows.neighbors[i], rows.edge_weights[i]);
        }
      }
    }
    rows = {}; // free the rows before build() allocates the CSR
    graph = std::move(builder).build();
  }
  if (graph.num_edges() != header.num_edges) {
    throw IoError(path + ": edge count disagrees with METIS header (header says " +
                  std::to_string(header.num_edges) + ", file has " +
                  std::to_string(graph.num_edges()) + ")");
  }
  return graph;
}

} // namespace oms
