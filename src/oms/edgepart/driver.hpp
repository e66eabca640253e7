/// \file driver.hpp
/// \brief Results of the edge-streaming passes and the in-memory edge
///        driver. Edge-list files stream through run_stream
///        (stream/pipeline.hpp), sequentially or with the reader thread.
///
/// Vertex-cut assigners are order-dependent sequential algorithms (partial
/// degrees, min/max load tracking), so an edge stream always runs one
/// consumer: a reader thread only hides the parse latency, and the output is
/// bit-identical either way.
#pragma once

#include <span>
#include <vector>

#include "oms/edgepart/edge_partitioner.hpp"
#include "oms/stream/edge_list_stream.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/types.hpp"

namespace oms {

/// What the stream revealed about the graph (edge lists carry no header).
struct EdgeStreamStats {
  EdgeIndex num_edges = 0;
  EdgeIndex self_loops_skipped = 0;
  /// One past the largest endpoint id (0 when no edge streamed).
  NodeId num_vertices = 0;
};

/// Result of a streaming edge-partition pass.
struct EdgePartitionResult {
  std::vector<BlockId> edge_assignment; ///< block per edge, stream order
  double elapsed_s = 0.0;
  EdgeStreamStats stats;
  StreamErrorStats skipped; ///< malformed lines skipped (--on-error skip)
};

/// In-memory pass over an already-materialized edge sequence (tests,
/// benchmarks, restreaming experiments). Self-loops are skipped like the
/// file reader does.
[[nodiscard]] EdgePartitionResult run_edge_partition(
    std::span<const StreamedEdge> edges, StreamingEdgePartitioner& partitioner);

} // namespace oms
