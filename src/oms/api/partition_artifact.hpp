/// \file partition_artifact.hpp
/// \brief The immutable product of a partitioning run: the assignment, the
///        hierarchical address tree, and the run's metrics — everything a
///        downstream system needs to *use* the partition millions of times
///        (oms_serve answers its queries straight off this struct).
///
/// Shape follows the engine → primitive → execute pattern of mature
/// performance libraries: Partitioner::partition() ingests the graph once
/// and returns this artifact; lookups (where / rank_of) are then O(1) /
/// O(tree height) with no further access to the input. Artifacts snapshot
/// to disk in a checksummed binary format (same CRC-32 + strict-length
/// discipline as the v2 graph cache in graph/io), so a daemon restart — or
/// a fleet of replicas — can restore served state without re-partitioning.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "oms/core/multisection_tree.hpp"
#include "oms/mapping/hierarchy.hpp"
#include "oms/stream/error_policy.hpp"
#include "oms/types.hpp"
#include "oms/util/work_counters.hpp"

namespace oms {

/// Quality metrics of the run; -1 marks "not computed". Node runs take the
/// cut and J that the consumer counted while assigning (StreamResult), or,
/// in memory, evaluate the loaded graph. Streaming entry points never
/// materialize the graph, so there -1 means a concurrent, resumed, skipped
/// (--on-error skip hit a line) or non-counting run (hashing, window,
/// buffered; J also for the flat algorithms).
struct ArtifactMetrics {
  double edge_cut = -1.0;           ///< node partitions
  double imbalance = -1.0;          ///< node partitions, in-memory runs
  double mapping_j = -1.0;          ///< node partitions with a hierarchy
  double replication_factor = -1.0; ///< edge partitions
  double edge_imbalance = -1.0;     ///< edge partitions
  double replica_cost = -1.0;       ///< hierarchical edge partitions
};

struct PartitionArtifact {
  /// Algorithm that produced the assignment ("oms", "buffered:lp", "hdrf", ...).
  std::string algo;
  /// Vertex-cut artifact? Then \p assignment holds one block per *edge* in
  /// stream order and where() answers edge-index queries.
  bool edge_partition = false;
  BlockId k = 0;
  std::uint64_t num_nodes = 0; ///< nodes streamed (vertices seen, edge runs)
  std::uint64_t num_edges = 0;
  std::uint64_t self_loops_skipped = 0; ///< edge runs only
  std::uint64_t seed = 1;
  double elapsed_s = 0.0;
  /// Block per node (or per edge, see edge_partition), stream order.
  std::vector<BlockId> assignment;
  /// The process-mapping topology, when the run had one.
  std::optional<SystemHierarchy> hierarchy;
  ArtifactMetrics metrics;
  /// Malformed-line skip accounting of the run (on_error=skip); transient,
  /// not serialized.
  StreamErrorStats skip_stats;
  /// Merged work counters of the producing run (node one-pass routes only;
  /// all-zero elsewhere); transient, not serialized.
  WorkCounters work;

  /// O(1) lookup: block of item \p v (node id, or edge index for vertex-cut
  /// artifacts). kInvalidBlock for out-of-range ids — callers that must
  /// distinguish (the service protocol) check before trusting the value.
  [[nodiscard]] BlockId where(std::uint64_t v) const noexcept {
    return v < assignment.size() ? assignment[static_cast<std::size_t>(v)]
                                 : kInvalidBlock;
  }

  /// Hierarchical address of item \p v: the id of the MultisectionTree leaf
  /// covering its block — the PE's position in the topology for mapping
  /// runs, the b-section address otherwise. -1 for out-of-range ids.
  [[nodiscard]] std::int64_t rank_of(std::uint64_t v) const noexcept {
    const BlockId b = where(v);
    if (b == kInvalidBlock || !tree_.has_value()) {
      return -1;
    }
    return static_cast<std::int64_t>(tree_->leaf_block_id(b));
  }

  /// The address tree rank_of() descends: regular(hierarchy) for mapping
  /// runs, the default base-4 b-section otherwise. Built by
  /// Partitioner::partition() and by read_artifact(); rebuild after mutating
  /// k/hierarchy by hand.
  [[nodiscard]] const MultisectionTree& tree() const { return *tree_; }
  void rebuild_tree();

private:
  std::optional<MultisectionTree> tree_;
};

/// Snapshot/restore: little-endian binary ("OMSPART1"), u64 payload length,
/// CRC-32 trailer over every preceding byte, strict length check — the same
/// corruption discipline as the v2 binary graph cache. read_artifact throws
/// oms::IoError on unopenable paths, bad magic, truncation, trailing bytes
/// and CRC mismatch, and rebuilds the address tree.
void write_artifact(const PartitionArtifact& artifact, const std::string& path);
[[nodiscard]] PartitionArtifact read_artifact(const std::string& path);

} // namespace oms
