/// \file buffer_multilevel.hpp
/// \brief HeiStream-proper inner engine for the buffered streaming core: run
///        a full multilevel scheme (LP-clustering coarsening, best-of-seeds
///        initial partitioning, projection + LP refinement back down) over
///        one buffer-local model graph per buffer.
///
/// The model graph is BufferedPartitioner's arena-backed buffer-local CSR:
/// an intra-buffer adjacency plus, per node, block-aggregated "super-edges"
/// toward the already-committed rest of the graph. Unlike HeiStream's
/// formulation, committed blocks are NOT materialized as k fixed super-node
/// vertices; instead the per-node block-affinity lists are coarsened
/// alongside the graph (summed per coarse node), which keeps every level's
/// size independent of k and lets clustering merge on intra edges only.
///
/// The engine object persists across buffers and reuses all of its level
/// arenas, so steady-state processing allocates nothing. All randomness is
/// derived from (config seed, caller-provided salt), making results
/// identical across the in-memory, disk-sequential and disk-pipelined entry
/// points, which feed identical buffers in identical order.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "oms/multilevel/inner_kernels.hpp"
#include "oms/types.hpp"

namespace oms {

/// Read-only view of one buffer's model graph, pointing into the buffered
/// core's arenas. \p intra_weight may be null (all intra arcs weight 1).
struct BufferModelView {
  std::uint32_t num_nodes = 0;
  const std::uint32_t* intra_offset = nullptr; // num_nodes + 1
  const std::uint32_t* intra_target = nullptr; // local node indices, symmetric
  const EdgeWeight* intra_weight = nullptr;    // null => unit weights
  const NodeWeight* node_weight = nullptr;     // num_nodes
  const std::uint32_t* super_offset = nullptr; // num_nodes + 1
  const BlockId* super_block = nullptr;        // aggregated per-block arcs
  const EdgeWeight* super_weight = nullptr;
};

/// Multilevel improvement engine over buffer-local models. One instance per
/// BufferedPartitioner; improve() is called once per buffer.
class BufferMultilevel {
public:
  BufferMultilevel(BlockId k, std::uint64_t seed);

  /// Improve \p partition (the greedy placement of this buffer, one entry per
  /// model node, all in [0, k)) in place and update \p block_weight (global
  /// per-block weights, buffer contribution included) to match.
  ///
  /// \param lmax  strict per-block weight bound at the finest level; coarse
  ///              levels relax it by their heaviest node (bin packing).
  /// \param dist  optional k*k row-major block distance matrix. When null the
  ///              engine minimizes the edge-cut objective; when set it
  ///              minimizes the process-mapping objective J (connection
  ///              weights scored by layer distance).
  /// \param salt  per-buffer value (e.g. the buffer index) mixed into the
  ///              seed so every buffer gets fresh but reproducible RNG.
  ///
  /// The result is never worse than the incoming partition under the active
  /// objective (the engine falls back to the input if its own result loses).
  void improve(const BufferModelView& model, std::span<BlockId> partition,
               std::span<NodeWeight> block_weight, NodeWeight lmax,
               const std::int64_t* dist, std::uint64_t salt);

  /// Checkpoint support: the adaptive backoff counters are the engine's only
  /// cross-buffer state (everything else is a per-buffer arena); restoring
  /// them makes a resumed stream decide identically to an uninterrupted one.
  [[nodiscard]] std::pair<std::int64_t, std::uint64_t> backoff_state() const noexcept {
    return {fail_streak_, skip_until_};
  }
  void restore_backoff(std::int64_t fail_streak, std::uint64_t skip_until) noexcept {
    fail_streak_ = static_cast<int>(fail_streak);
    skip_until_ = skip_until;
  }

private:
  /// One coarse level's graph + coarsened affinity lists (arena, reused).
  struct Level {
    std::uint32_t n = 0;
    std::vector<std::uint32_t> xadj;
    std::vector<std::uint32_t> adjncy;
    std::vector<EdgeWeight> adjwgt;
    std::vector<NodeWeight> vwgt;
    std::vector<std::uint32_t> aff_offset;
    std::vector<BlockId> aff_block;
    std::vector<EdgeWeight> aff_weight;
    std::vector<NodeId> cluster_of_fine; // finer level node -> this level
  };

  /// Adapter satisfying the inner_kernels graph concept over raw arrays.
  struct GraphView {
    std::uint32_t n;
    const std::uint32_t* xadj;
    const std::uint32_t* adjncy;
    const EdgeWeight* adjwgt; // null => unit
    const NodeWeight* vwgt;

    struct ArcWeights {
      const EdgeWeight* w;
      EdgeWeight operator[](std::size_t i) const { return w != nullptr ? w[i] : 1; }
    };

    [[nodiscard]] NodeId num_nodes() const { return n; }
    [[nodiscard]] NodeWeight node_weight(NodeId u) const { return vwgt[u]; }
    [[nodiscard]] std::span<const std::uint32_t> neighbors(NodeId u) const {
      return {adjncy + xadj[u], xadj[u + 1] - xadj[u]};
    }
    [[nodiscard]] ArcWeights incident_weights(NodeId u) const {
      return {adjwgt != nullptr ? adjwgt + xadj[u] : nullptr};
    }
  };

  struct AffinityView {
    const std::uint32_t* offset;
    const BlockId* block;
    const EdgeWeight* weight;
  };

  [[nodiscard]] static GraphView view_of(const Level& level);
  [[nodiscard]] static AffinityView affinity_of(const Level& level);

  /// Aggregate (graph + affinities + node weights) of \p fine under
  /// \p cluster into \p out; also projects \p part (a partition of the fine
  /// level) to the coarse level by weight-plurality vote into next_part_.
  void contract_level(const GraphView& fine, const AffinityView& aff,
                      const std::vector<NodeId>& cluster, NodeId num_clusters,
                      const std::vector<BlockId>& part, Level& out);

  /// Recompute cur_weight_ = base committed weights + this level's
  /// contribution under \p part.
  void reset_weights(const GraphView& graph, const std::vector<BlockId>& part);

  /// Active-set LP refinement over one level: seeded with the (shuffled)
  /// boundary nodes, a node re-enters when an in-level neighbor moves, and no
  /// node is visited more than kRefinementVisits times. Moves respect
  /// cur_weight_ <= bound. Cut mode (dist == null) maximizes connection with
  /// the zero-gain lighter-block tiebreak; J mode scores all k blocks by
  /// sum(conn[b'] * (dist_max - dist[b][b'])).
  void refine_level(const GraphView& graph, const AffinityView& aff,
                    std::vector<BlockId>& part, NodeWeight bound,
                    const std::int64_t* dist, Rng& rng);

  /// Objective value of \p part on one level: edge cut (plus cut affinity
  /// weight) in cut mode, J (distance-weighted connection volume) in J mode.
  /// Intra arcs are symmetric and counted once (u < v). Lower is better.
  [[nodiscard]] Cost model_cost(const GraphView& graph, const AffinityView& aff,
                                const std::vector<BlockId>& part,
                                const std::int64_t* dist) const;

  /// model_cost for two partitions in one traversal (the commit decision
  /// needs both, and the model reads dominate the arithmetic).
  [[nodiscard]] std::pair<Cost, Cost> model_cost_pair(
      const GraphView& graph, const AffinityView& aff,
      const std::vector<BlockId>& part_a, const std::vector<BlockId>& part_b,
      const std::int64_t* dist) const;

  BlockId k_;
  std::uint64_t seed_;
  std::int64_t dist_max_ = 0; // max entry of dist, valid while dist != null

  // Adaptive backoff over the stream: consecutive buffers whose V-cycle
  // failed to substantively beat the lp-refined incoming partition, and the
  // buffer index (salt) before which improve() returns immediately.
  int fail_streak_ = 0;
  std::uint64_t skip_until_ = 0;

  std::vector<Level> levels_; // grows to the deepest hierarchy seen, reused
  std::vector<NodeWeight> base_;       // committed weights minus this buffer
  std::vector<NodeWeight> cur_weight_; // base_ + current level contribution
  std::vector<BlockId> cur_part_;      // partition at the current level
  std::vector<BlockId> next_part_;     // projection scratch
  std::vector<BlockId> cand_part_;     // initial-partitioning candidate
  std::vector<BlockId> best_part_;     // best coarsest candidate
  std::vector<BlockId> incoming_;      // input partition (never-worse fallback)
  std::vector<std::uint32_t> order_;   // refinement seed order (boundary nodes)
  std::vector<std::uint32_t> queue_;   // active-set ring buffer
  std::vector<std::uint8_t> in_queue_;
  std::vector<std::uint8_t> visits_left_; // per-node refinement budget
  std::vector<std::uint32_t> member_offset_; // contraction buckets
  std::vector<std::uint32_t> member_cursor_;
  std::vector<std::uint32_t> member_;
  ConnectionGather gather_nodes_;  // keyed by coarse node id
  ConnectionGather gather_blocks_; // keyed by block id
};

} // namespace oms
