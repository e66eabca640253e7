/// \file buffered_partitioner.hpp
/// \brief Buffered streaming partitioning in the style of HeiStream
///        (Faraj & Schulz, the paper's reference [13]) — the related-work
///        model the paper positions itself against: instead of deciding per
///        node, load a *buffer* of delta nodes, build a model graph that
///        represents the already-assigned rest of the graph by k fixed
///        super-nodes, optimize the buffer jointly, then commit.
///
/// This "lite" variant keeps HeiStream's model construction and its overall
/// O(m + n) complexity but replaces the inner multilevel engine with a
/// greedy placement + fixed-vertex label-propagation refinement. Its role in
/// this repository matches the paper's positioning: better cuts than the
/// strictly one-pass algorithms at higher (but k-independent) cost per node.
///
/// The core is a true streaming algorithm: BufferedPartitioner consumes
/// NodeBatch chunks (run_stream's handoff unit) in stream order and holds
/// O(buffer + k) state beyond the assignment vector. Each batch is
/// materialized once into a reusable buffer-local model — a
/// contiguous intra-buffer CSR plus per-node super-edges aggregated by block
/// at build time — so the optimization loops never re-walk a raw
/// neighborhood. Refinement is an active-set sweep: only nodes whose
/// neighborhood changed are revisited, and it is deterministic (no RNG).
/// The in-memory buffered_partition() entry point and the disk stream are
/// both run_stream (stream/pipeline.hpp) over this core, fed identical
/// batches, so their partitions coincide bit for bit on the same node order.
/// Each batch picks its kernel from NodeBatch::has_unit_edge_weights(): a
/// batch parsed from an unweighted file, or borrowed from a unit-weight
/// graph, runs the kernel without weight arrays, with no scan of its arcs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/stream/error_policy.hpp"
#include "oms/stream/node_batch.hpp"
#include "oms/types.hpp"

namespace oms {

class BufferMultilevel;
class CheckpointReader;
class CheckpointWriter;
struct CheckpointMeta;
class SystemHierarchy;

/// Inner optimization engine run on each buffer-local model.
enum class BufferedEngine {
  /// Flat active-set label propagation (the "lite" default): fastest, and
  /// golden-pinned bit for bit across releases.
  kLp,
  /// HeiStream-proper: contract the model by LP clustering, partition the
  /// coarsest level best-of-seeds, project and refine back down. Better cuts
  /// (the buffer is optimized with a global view) at a few times the cost.
  kMultilevel,
};

struct BufferedConfig {
  /// Nodes per buffer ("delta" in HeiStream). Larger buffers see more of the
  /// graph at once and cut fewer edges, at higher latency per decision.
  NodeId buffer_size = 4096;
  double epsilon = 0.03;
  /// Seed for the multilevel engine's shuffled sweeps and BFS starts. The lp
  /// engine is deterministic (active-set, no RNG) and ignores it.
  std::uint64_t seed = 1;
  /// Refinement budget: the active set examines each buffer node at most
  /// this many times (total work thus bounded like that many full
  /// label-propagation sweeps, but the queue usually drains far earlier).
  int refinement_iterations = 3;
  BufferedEngine engine = BufferedEngine::kLp;
  /// Multilevel-engine knobs (engine == kMultilevel); see
  /// BufferMultilevelConfig for semantics.
  NodeId ml_coarse_floor = 128;
  int ml_coarsening_factor = 2;
  int ml_max_levels = 20;
  int ml_clustering_iterations = 1;
  int ml_initial_attempts = 3;
  int ml_refinement_iterations = 2;
  /// Optional process-mapping topology. When set (num_pes() must equal k),
  /// placement and refinement score block gains against the hierarchy's
  /// layer distances — buffered streaming then optimizes the paper's mapping
  /// objective J instead of plain edge cut. Not owned; must outlive the
  /// partitioner.
  const SystemHierarchy* hierarchy = nullptr;
};

struct BufferedResult {
  std::vector<BlockId> assignment;
  double elapsed_s = 0.0;
  std::size_t buffers_processed = 0;
  StreamErrorStats skipped; ///< malformed lines skipped (disk, --on-error skip)
};

/// Algorithm id stamped into buffered checkpoints; resume validation refuses
/// a checkpoint written by the other inner engine.
[[nodiscard]] inline const char* buffered_checkpoint_algo_id(
    const BufferedConfig& config) noexcept {
  return config.engine == BufferedEngine::kMultilevel ? "buffered:multilevel"
                                                      : "buffered:lp";
}

/// Streaming core shared by the in-memory and disk-native entry points.
/// Feed buffers of consecutive stream nodes (ids must arrive in order,
/// starting at 0) via process_buffer(), then take_assignment().
class BufferedPartitioner {
public:
  BufferedPartitioner(NodeId num_nodes, NodeWeight total_node_weight, BlockId k,
                      const BufferedConfig& config);
  ~BufferedPartitioner(); // out of line: BufferMultilevel is incomplete here

  /// Jointly place and refine one buffer of nodes, then commit it. The batch
  /// (parsed from a file or borrowed from an in-memory graph) must start at
  /// the next unseen node id; adjacency may reference any node (earlier =
  /// super-edges, in-buffer = model edges, future = ignored).
  void process_buffer(const NodeBatch& batch);

  [[nodiscard]] BlockId num_blocks() const noexcept { return k_; }
  /// Nodes per buffer (config.buffer_size): the batch size every source
  /// must deliver, since buffer boundaries shape the decisions.
  [[nodiscard]] NodeId buffer_size() const noexcept { return buffer_size_; }
  [[nodiscard]] std::size_t buffers_processed() const noexcept {
    return buffers_processed_;
  }
  [[nodiscard]] NodeWeight max_block_weight() const noexcept { return lmax_; }

  /// Release the final assignment (the partitioner is done afterwards).
  [[nodiscard]] std::vector<BlockId> take_assignment();

  /// Checkpoint/resume at a buffer boundary (stream/checkpoint.hpp): the
  /// cross-buffer state is the assignment prefix, the block weights (the
  /// cached penalties are recomputed on load), buffers_processed_ (the
  /// multilevel engine's per-buffer RNG salt) and the engine's adaptive
  /// backoff. Everything else is per-buffer arena scratch.
  /// Both always succeed (return true), mirroring OnePassAssigner's
  /// contract so run_stream checkpoints either consumer the same way.
  [[nodiscard]] bool save_stream_state(CheckpointWriter& w) const;
  [[nodiscard]] bool load_stream_state(CheckpointReader& r);
  /// Snapshot identity: buffered_checkpoint_algo_id() and the config seed.
  void stamp_checkpoint(CheckpointMeta& meta) const;

private:
  /// One fused pass per buffer node: walk the raw adjacency exactly once,
  /// aggregating committed neighbors (earlier buffers) into per-block
  /// super-edges and recording in-buffer arcs into the intra CSR — the
  /// buffer-local model — while the same walk feeds the greedy LDG-style
  /// initial placement. Refinement then runs on the model only; the raw
  /// adjacency is never revisited. LocalBlock is the compact in-buffer
  /// block-id type (uint16 whenever k fits, else uint32) so the refinement
  /// loop's random reads stay L1-resident.
  template <bool kUnit, typename LocalBlock>
  void build_and_place(std::vector<LocalBlock>& local, const NodeBatch& batch);

  /// Connection weight of local node \p i to every block it touches, from
  /// the model (super-edges + assigned in-buffer neighbors). Results are in
  /// gather_[b] for b in touched_.
  template <typename LocalBlock>
  void gather_connections(const std::vector<LocalBlock>& local, std::uint32_t i);

  /// Fixed-vertex label propagation over the buffer driven by an active-set
  /// queue: seeded with the nodes whose neighborhood was incomplete at
  /// placement time (they have in-buffer successors), a node re-enters only
  /// when an in-buffer neighbor moved, and no node is examined more than
  /// refinement_iterations times (the old sweep-count work bound).
  template <typename LocalBlock>
  void refine(std::vector<LocalBlock>& local);

  /// Hand the buffer-local model to the multilevel engine (widening the
  /// compact local blocks to BlockId and back); the engine updates
  /// block_weight_ directly, so the cached penalties are resynced after.
  template <typename LocalBlock>
  void refine_multilevel(std::vector<LocalBlock>& local);

  /// build_and_place + refine + one sequential flush of the buffer's blocks
  /// into the O(n) assignment.
  template <bool kUnit, typename LocalBlock>
  void run_buffer(std::vector<LocalBlock>& local, const NodeBatch& batch);

  [[nodiscard]] BlockId lightest_block() const;
  void set_block_weight(BlockId b, NodeWeight w);

  BlockId k_;
  NodeId buffer_size_;
  std::uint64_t rng_seed_;
  NodeWeight lmax_;
  int refinement_iterations_;
  BufferedEngine engine_;
  std::size_t buffers_processed_ = 0;
  std::unique_ptr<BufferMultilevel> ml_; // engine_ == kMultilevel only
  std::vector<BlockId> ml_part_;         // widened local blocks for ml_
  // Process-mapping state (empty when no hierarchy is configured): k*k
  // row-major block distances and their maximum, for J-aware gain scoring.
  std::vector<std::int64_t> dist_;
  std::int64_t dist_max_ = 0;
  std::vector<BlockId> assignment_;      // O(n): the output
  std::vector<NodeWeight> block_weight_; // O(k)
  std::vector<double> penalty_;          // O(k): 1 - w/Lmax, kept in sync

  // Buffer-local model graph; capacity is reused across buffers (arena).
  NodeId begin_ = 0;      // stream id of local node 0
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> intra_offset_; // size_+1: prefix into intra arrays
  std::vector<std::uint32_t> intra_target_; // local index of in-buffer neighbor
  std::vector<EdgeWeight> intra_weight_;
  std::vector<std::uint32_t> super_offset_; // size_+1: prefix into super arrays
  std::vector<BlockId> super_block_;        // aggregated block super-edges
  std::vector<EdgeWeight> super_weight_;
  std::vector<NodeWeight> node_weight_; // size_
  bool intra_unit_ = true; // all intra weights 1: gather skips the array

  // Gather + active-set scratch (arena, zero steady-state allocation).
  std::vector<EdgeWeight> gather_; // O(k), all-zero except touched_
  std::vector<BlockId> touched_;
  std::vector<std::uint32_t> queue_; // ring of local indices
  std::vector<std::uint8_t> in_queue_;
  std::vector<std::uint8_t> visits_left_; // per-node refinement budget
  std::vector<std::uint8_t> seed_;        // has in-buffer successors
  std::vector<std::uint16_t> local16_;    // in-buffer blocks, k <= 2^16
  std::vector<std::uint32_t> local32_;    // in-buffer blocks, larger k
};

/// Partition \p graph into \p k balanced blocks by streaming it buffer by
/// buffer in node-id order (run_stream over the graph, no reader thread).
/// The returned partition satisfies the epsilon balance constraint and is
/// identical to the disk stream's output on the same node order; unlike the
/// disk stream it accepts node weights.
[[nodiscard]] BufferedResult buffered_partition(const CsrGraph& graph, BlockId k,
                                                const BufferedConfig& config);

} // namespace oms
