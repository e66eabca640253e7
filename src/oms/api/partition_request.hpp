/// \file partition_request.hpp
/// \brief The one request struct behind every partitioning entry point.
///
/// Below it the library has one stream driver, run_stream(source, consumer,
/// policy) (stream/pipeline.hpp), over files and in-memory graphs alike,
/// and each consumer takes its own algorithm config. PartitionRequest unifies PartitionConfig,
/// BufferedConfig, WindowConfig, EdgePartConfig and the checkpoint/pipeline/
/// error-policy options into a single description of "partition this input
/// like so"; oms::Partitioner (api/partitioner.hpp) turns it into a
/// PartitionArtifact. The CLI flags of
/// partition_tool and oms_serve map onto these fields one to one
/// (cli/parse_request.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "oms/types.hpp"

namespace oms {

/// A request that cannot be executed: unknown algorithm, contradictory
/// flags, an out-of-range tuning value, an unusable input path, a resume
/// checkpoint that does not match the run. Distinct from oms::IoError on
/// purpose — an invalid *request* is a usage problem (the CLI exits 2),
/// while malformed input *content* is an IoError (the CLI exits 1).
class InvalidRequest : public std::runtime_error {
public:
  explicit InvalidRequest(const std::string& message)
      : std::runtime_error(message) {}
};

struct PartitionRequest {
  // --- input -------------------------------------------------------------
  /// Path of the graph to ingest (METIS node stream or SNAP-style edge
  /// list). Unused by the in-memory Partitioner::partition(CsrGraph&, ...).
  std::string graph_path;
  /// "auto" (extension sniff: .edgelist/.el/.edges/.snap = edge list),
  /// "metis" or "edgelist".
  std::string format = "auto";

  // --- problem -----------------------------------------------------------
  /// Node streams: oms | fennel | ldg | hashing | window | buffered.
  /// Edge lists:   hdrf | dbh | grid2d.
  /// Empty = default for the format (oms / hdrf).
  std::string algo;
  /// Number of blocks; ignored (derived) when \p hierarchy is set.
  BlockId k = 0;
  /// Process-mapping topology "a1:a2:...:al" (paper notation). Sets k to the
  /// PE count and switches the objective to the mapping cost J (node
  /// streams) or the weighted replica cost (hierarchical HDRF).
  std::optional<std::string> hierarchy;
  std::string distances = "1:10:100";
  double epsilon = 0.03;
  /// HDRF balance pressure (edge lists only).
  double lambda = 1.1;
  std::uint64_t seed = 1;

  // --- per-model tuning --------------------------------------------------
  int threads = 1;          ///< in-memory parallel one-pass / metric threads
  long buffer_size = 4096;  ///< buffered model: nodes per buffer
  long refine_iters = 3;    ///< buffered model: refinement budget multiplier
  std::optional<std::string> buffered_engine; ///< lp | multilevel
  long window_size = 1024;  ///< sliding window: delayed nodes

  // --- execution ---------------------------------------------------------
  bool from_disk = false;
  bool pipeline = false;      ///< implies from_disk
  int io_threads = 1;         ///< pipeline consumers (unordered one-pass runs)
  std::uint64_t watchdog_ms = 0;

  // --- fault tolerance ---------------------------------------------------
  std::string checkpoint;                 ///< snapshot path; empty = disabled
  std::uint64_t checkpoint_every = 65536; ///< cadence in streamed nodes
  std::string resume;                     ///< checkpoint to resume from
  std::string on_error = "abort";         ///< abort | skip (malformed lines)
  std::uint64_t error_budget = 100;       ///< max skips under on_error=skip
};

} // namespace oms
