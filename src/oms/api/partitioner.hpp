/// \file partitioner.hpp
/// \brief The unified partitioning facade: one entry point over every driver
///        family in the library — flat one-pass, OMS mapping, sliding
///        window, buffered (lp/multilevel), and the vertex-cut edge
///        partitioners — sequential, pipelined, checkpointed or in memory.
///
/// Each call parses the request's string fields (algo, format, on_error,
/// buffered_engine) once, through one name table that also records each
/// algorithm's facts: node or edge input, ordered consumer, checkpointable.
/// Every later decision reads those. Node streams, from a METIS file or a
/// loaded graph, then take one route to run_stream; edge lists take the
/// vertex-cut route. Results are bit-identical to calling the drivers
/// directly (pinned by the facade parity suite).
///
/// Ordered consumers — window, buffered and the vertex-cut assigners — commit
/// in stream order: in memory they ignore `threads`, and with --pipeline they
/// take only io_threads = 1. threads and io_threads must lie in
/// [0, kMaxThreads]; 0 means all hardware threads.
///
/// Error contract:
///  * InvalidRequest — the request itself cannot be executed (unknown algo,
///    contradictory flags, unusable path, resume mismatch). CLIs exit 2.
///  * oms::IoError  — the input *content* is malformed. CLIs exit 1.
#pragma once

#include "oms/api/partition_artifact.hpp"
#include "oms/api/partition_request.hpp"
#include "oms/graph/csr_graph.hpp"

namespace oms {

class Partitioner {
public:
  /// Fill defaults and validate: resolves format "auto" from the extension,
  /// picks the per-format default algorithm, derives k from the hierarchy,
  /// makes pipeline/checkpointing imply from_disk, and rejects every
  /// contradictory or out-of-range combination with InvalidRequest.
  /// Idempotent; partition() normalizes internally, so calling this first is
  /// only needed to *inspect* the resolved request (the CLIs do, for their
  /// advisory notes).
  [[nodiscard]] static PartitionRequest normalize(PartitionRequest request);

  /// Ingest request.graph_path once (streaming from disk or loading in
  /// memory, per the request) and produce the partition artifact.
  /// Throws InvalidRequest / IoError per the contract above.
  [[nodiscard]] PartitionArtifact partition(const PartitionRequest& request) const;

  /// In-memory entry point over an already-loaded graph (node algorithms
  /// only; graph_path/format/from_disk/pipeline/checkpoint fields are
  /// ignored). Decisions are bit-identical to the disk entry point on the
  /// same node order.
  [[nodiscard]] PartitionArtifact partition(const CsrGraph& graph,
                                            const PartitionRequest& request) const;
};

} // namespace oms
