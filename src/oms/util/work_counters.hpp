/// \file work_counters.hpp
/// \brief Instrumentation counters used to verify the paper's complexity
///        claims (Theorems 2-4) empirically: the number of block-score
///        evaluations and neighbor visits performed by a streaming run, next
///        to the number of blocks the implementation actually scored.
#pragma once

#include <cstdint>

#include "oms/types.hpp"

namespace oms {

/// Plain counters; each worker thread owns one instance and the driver merges
/// them at the end of a run, so no atomics are needed on the hot path. The
/// merged result is the run's single aggregation product: drivers publish it
/// once into the telemetry registry (telemetry::publish_work, the
/// work.* counters of --metrics-out and the METRICS opcode) and surface it
/// on PartitionArtifact::work for the CLI summary — there is no separate
/// ad-hoc reporting path.
struct WorkCounters {
  /// Score evaluations of candidate (sub-)blocks in the paper's cost model;
  /// Theorem 2 predicts ~ n * sum_i a_i for OMS and ~ n * k for flat
  /// Fennel/LDG. A model counter: the flat algorithms add k per node even
  /// when their exact selection scores fewer blocks.
  std::uint64_t score_evaluations = 0;
  /// Blocks actually scored (measured): per Fennel/LDG node, and per OMS
  /// layer whose children share a capacity, the touched blocks plus the
  /// lightest one if it is untouched (all blocks if the lightest is
  /// repelled), so never more than score_evaluations; all children on the
  /// other dense OMS layers, one per hashed layer.
  std::uint64_t candidate_evaluations = 0;
  /// Neighbor inspections; Theorem 2 predicts ~ m * l for OMS and ~ m for
  /// flat one-pass algorithms (each endpoint visited once).
  std::uint64_t neighbor_visits = 0;
  /// Tree layers traversed over all nodes (equals n for flat algorithms).
  std::uint64_t layers_traversed = 0;

  /// Quality counted at assign time, not work (OnePassAssigner::
  /// counted_quality() says which of the two an assigner fills): placing v
  /// adds every edge to an already-assigned neighbour u, so each edge is
  /// counted once, from its later endpoint. `cut` sums w(u,v) over u in
  /// another block; `mapping_j` sums w(u,v) * d(block u, block v), half of
  /// mapping_cost's ordered-pair J.
  Cost cut = 0;
  Cost mapping_j = 0;

  WorkCounters& operator+=(const WorkCounters& other) noexcept {
    score_evaluations += other.score_evaluations;
    candidate_evaluations += other.candidate_evaluations;
    neighbor_visits += other.neighbor_visits;
    layers_traversed += other.layers_traversed;
    cut += other.cut;
    mapping_j += other.mapping_j;
    return *this;
  }

  /// Sum of the model counters (candidate_evaluations measures the same work
  /// as score_evaluations and is not added twice).
  [[nodiscard]] std::uint64_t total() const noexcept {
    return score_evaluations + neighbor_visits + layers_traversed;
  }
};

} // namespace oms
