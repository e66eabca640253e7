#include "oms/buffered/buffered_partitioner.hpp"

#include <algorithm>
#include <limits>

#include "oms/mapping/hierarchy.hpp"
#include "oms/multilevel/buffer_multilevel.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/io_error.hpp"

namespace oms {

namespace {
[[nodiscard]] inline std::size_t as_index(BlockId b) noexcept {
  return static_cast<std::size_t>(b);
}
} // namespace

BufferedPartitioner::BufferedPartitioner(NodeId num_nodes,
                                         NodeWeight total_node_weight, BlockId k,
                                         const BufferedConfig& config)
    : k_(k),
      buffer_size_(config.buffer_size),
      rng_seed_(config.seed),
      lmax_(oms::max_block_weight(total_node_weight, k, config.epsilon)),
      refinement_iterations_(config.refinement_iterations),
      engine_(config.engine),
      assignment_(num_nodes, kInvalidBlock),
      block_weight_(as_index(k), 0),
      penalty_(as_index(k), 1.0),
      gather_(as_index(k), 0) {
  OMS_ASSERT(k >= 1);
  OMS_ASSERT(config.buffer_size >= 1);
  OMS_ASSERT(config.refinement_iterations >= 0);
  if (config.hierarchy != nullptr) {
    OMS_ASSERT_MSG(config.hierarchy->num_pes() == k,
                   "hierarchy PE count must equal the number of blocks");
    dist_.resize(as_index(k) * as_index(k));
    for (BlockId x = 0; x < k; ++x) {
      for (BlockId y = 0; y < k; ++y) {
        const std::int64_t d = config.hierarchy->distance(x, y);
        dist_[as_index(x) * as_index(k) + as_index(y)] = d;
        dist_max_ = std::max(dist_max_, d);
      }
    }
  }
  if (config.engine == BufferedEngine::kMultilevel) {
    ml_ = std::make_unique<BufferMultilevel>(k, config.seed);
  }
}

BufferedPartitioner::~BufferedPartitioner() = default;

void BufferedPartitioner::set_block_weight(BlockId b, NodeWeight w) {
  block_weight_[as_index(b)] = w;
  // Recomputed (not delta-updated) so the score arithmetic matches a fresh
  // 1 - w/Lmax evaluation exactly — determinism across entry points hinges
  // on every path computing identical doubles.
  penalty_[as_index(b)] =
      1.0 - static_cast<double>(w) / static_cast<double>(lmax_);
}

BlockId BufferedPartitioner::lightest_block() const {
  BlockId best = 0;
  for (BlockId b = 1; b < k_; ++b) {
    if (block_weight_[as_index(b)] < block_weight_[as_index(best)]) {
      best = b;
    }
  }
  return best;
}

template <bool kUnit, typename LocalBlock>
void BufferedPartitioner::build_and_place(std::vector<LocalBlock>& local,
                                          const NodeBatch& batch) {
  begin_ = batch.first_id();
  size_ = static_cast<std::uint32_t>(batch.size());
  const NodeId end = begin_ + size_;
  const std::size_t arc_bound = batch.num_arcs();

  // Cursor-written arenas sized once by the arc bound: the hot walk below
  // never pays push_back bookkeeping, and raw pointers keep the compiler
  // from re-loading vector internals after every store.
  intra_offset_.resize(size_ + std::size_t{1});
  intra_target_.resize(arc_bound);
  if constexpr (!kUnit) {
    intra_weight_.resize(arc_bound);
  }
  super_offset_.resize(size_ + std::size_t{1});
  super_block_.resize(arc_bound);
  super_weight_.resize(arc_bound);
  node_weight_.resize(size_);
  intra_unit_ = kUnit;
  seed_.assign(size_, 0);
  local.resize(size_); // written in placement order; reads stay behind writes

  std::uint32_t* const intra_offset = intra_offset_.data();
  std::uint32_t* const intra_target = intra_target_.data();
  EdgeWeight* const intra_weight = intra_weight_.data();
  std::uint32_t* const super_offset = super_offset_.data();
  BlockId* const super_block = super_block_.data();
  EdgeWeight* const super_weight = super_weight_.data();
  EdgeWeight* const gather = gather_.data();
  const BlockId* const assignment = assignment_.data();
  std::uint32_t intra_cursor = 0;
  std::uint32_t super_cursor = 0;
  intra_offset[0] = 0;
  super_offset[0] = 0;

  for (std::uint32_t i = 0; i < size_; ++i) {
    const StreamedNode node = batch.node(i);
    node_weight_[i] = node.weight;

    // Phase 1 of the fused walk: committed neighbors (earlier buffers) fold
    // into gather_ — they become this node's aggregated super-edges — while
    // in-buffer arcs are recorded into the intra CSR for refinement.
    const std::uint32_t intra_begin = intra_cursor;
    for (std::size_t e = 0; e < node.neighbors.size(); ++e) {
      const NodeId v = node.neighbors[e];
      if (v < begin_) {
        const BlockId b = assignment[v];
        if (gather[as_index(b)] == 0) {
          touched_.push_back(b);
        }
        gather[as_index(b)] += kUnit ? 1 : node.edge_weights[e];
      } else if (v < end) {
        const std::uint32_t j = v - begin_;
        intra_target[intra_cursor] = j;
        if constexpr (!kUnit) {
          intra_weight[intra_cursor] = node.edge_weights[e];
        }
        ++intra_cursor;
        if (j > i) {
          // An in-buffer successor: this node decides before seeing it, so
          // it seeds the refinement active set.
          seed_[i] = 1;
        }
      }
      // else: a future node beyond this buffer — it is undecided while this
      // buffer optimizes, exactly like the one-pass algorithms skip it.
    }
    // Seal the super-edges before intra contributions mix in: the committed
    // side is immutable during this buffer, so refinement re-reads it from
    // the aggregated list instead of ever walking the raw adjacency again.
    for (const BlockId b : touched_) {
      super_block[super_cursor] = b;
      super_weight[super_cursor] = gather[as_index(b)];
      ++super_cursor;
    }
    super_offset[i + 1] = super_cursor;

    // Phase 2: already-placed in-buffer predecessors join the gather; the
    // union is exactly the information a streaming placement may use.
    intra_offset[i + 1] = intra_cursor;
    for (std::uint32_t e = intra_begin; e < intra_cursor; ++e) {
      const std::uint32_t j = intra_target[e];
      if (j >= i) {
        continue; // successor (or self-loop): not yet placed
      }
      const auto b = static_cast<BlockId>(local[j]);
      if (gather[as_index(b)] == 0) {
        touched_.push_back(b);
      }
      gather[as_index(b)] += kUnit ? 1 : intra_weight[e];
    }

    // Greedy placement: LDG-style multiplicative penalty over the gathered
    // connections (cheap, respects remaining capacity).
    const NodeWeight weight = node_weight_[i];
    BlockId best = kInvalidBlock;
    double best_score = -1.0;
    NodeWeight best_weight = 0;
    if (!dist_.empty()) {
      // Mapping-aware placement: put the node where its communication is
      // cheapest, i.e. minimize sum over connected blocks of conn * d(b, b').
      // A block with no direct connection can still win when it sits close
      // to the blocks this node communicates with, so all k are candidates.
      // Strict cost minimization snowballs on scale-free streams (the LDG
      // penalty exists to stop exactly that), so the distance cost is only
      // the *primary* key: among blocks within one distance unit per
      // connection of the optimum — in practice, the optimum's whole
      // hierarchy group — the lightest block wins. Balance pressure stays
      // local to the group, where it is J-neutral.
      std::int64_t total_connection = 0;
      for (const BlockId t : touched_) {
        total_connection += gather[as_index(t)];
      }
      std::int64_t best_cost = 0;
      for (BlockId b = 0; b < k_; ++b) {
        const NodeWeight w = block_weight_[as_index(b)];
        if (w + weight > lmax_) {
          continue;
        }
        const std::int64_t* const row = dist_.data() + as_index(b) * as_index(k_);
        std::int64_t cost = 0;
        for (const BlockId t : touched_) {
          cost += gather[as_index(t)] * row[as_index(t)];
        }
        if (best == kInvalidBlock) {
          best = b;
          best_cost = cost;
          best_weight = w;
          continue;
        }
        const std::int64_t slack = total_connection;
        if (cost + slack < best_cost ||
            (cost <= best_cost + slack && w < best_weight)) {
          best = b;
          best_cost = std::min(best_cost, cost);
          best_weight = w;
        }
      }
      if (best != kInvalidBlock) {
        best_score = 1.0; // feasible choice made; skip the fallback below
      }
    } else {
      for (const BlockId b : touched_) {
        const NodeWeight w = block_weight_[as_index(b)];
        if (w + weight > lmax_) {
          continue;
        }
        const double score =
            static_cast<double>(gather_[as_index(b)]) * penalty_[as_index(b)];
        if (score > best_score || (score == best_score && w < best_weight)) {
          best = b;
          best_score = score;
          best_weight = w;
        }
      }
    }
    if (best == kInvalidBlock || best_score <= 0.0) {
      // No (feasible) connected block: take the globally lightest one so
      // empty blocks fill up and balance is always attainable.
      best = lightest_block();
    }
    local[i] = static_cast<LocalBlock>(best);
    set_block_weight(best, block_weight_[as_index(best)] + weight);

    for (const BlockId b : touched_) {
      gather[as_index(b)] = 0;
    }
    touched_.clear();
  }
}

template <typename LocalBlock>
void BufferedPartitioner::gather_connections(const std::vector<LocalBlock>& local,
                                             std::uint32_t i) {
  EdgeWeight* const gather = gather_.data();
  for (const BlockId b : touched_) {
    gather[as_index(b)] = 0;
  }
  touched_.clear();
  // Super-edges are unique per node by construction: straight assigns, no
  // first-touch test.
  const BlockId* const super_block = super_block_.data();
  const EdgeWeight* const super_weight = super_weight_.data();
  for (std::uint32_t s = super_offset_[i]; s < super_offset_[i + 1]; ++s) {
    const BlockId b = super_block[s];
    touched_.push_back(b);
    gather[as_index(b)] = super_weight[s];
  }
  const std::uint32_t* const intra_target = intra_target_.data();
  const LocalBlock* const blocks = local.data();
  const std::uint32_t intra_begin = intra_offset_[i];
  const std::uint32_t intra_end = intra_offset_[i + 1];
  // Unit edge weights (the overwhelmingly common streaming case) skip the
  // weight array entirely: one fewer stream to pull through the cache on
  // every revisit.
  if (intra_unit_) {
    for (std::uint32_t e = intra_begin; e < intra_end; ++e) {
      const auto b = static_cast<BlockId>(blocks[intra_target[e]]);
      if (gather[as_index(b)] == 0) {
        touched_.push_back(b);
      }
      gather[as_index(b)] += 1;
    }
  } else {
    const EdgeWeight* const intra_weight = intra_weight_.data();
    for (std::uint32_t e = intra_begin; e < intra_end; ++e) {
      const auto b = static_cast<BlockId>(blocks[intra_target[e]]);
      if (gather[as_index(b)] == 0) {
        touched_.push_back(b);
      }
      gather[as_index(b)] += intra_weight[e];
    }
  }
}

template <typename LocalBlock>
void BufferedPartitioner::refine(std::vector<LocalBlock>& local) {
  if (size_ == 0 || k_ == 1 || refinement_iterations_ == 0) {
    return;
  }
  // Active set: only nodes that decided before seeing an in-buffer successor
  // start dirty; everyone else re-enters solely when a neighbor moves. Each
  // node is examined at most refinement_iterations times — the old
  // sweep-count bound — so hot hubs cannot thrash the queue. Deliberate
  // trade-off vs full sweeps: a node placed with complete information is
  // never revisited even though placement (connection * penalty) and
  // refinement (raw connection) rank blocks differently, so a rare
  // penalty-driven placement stays put unless a neighbor moves; measured
  // cuts stay within 0.2% of full shuffled sweeps at a fraction of the work.
  const auto visit_budget =
      static_cast<std::uint8_t>(std::min(refinement_iterations_, 255));
  queue_.resize(size_);
  in_queue_.assign(size_, 0);
  visits_left_.assign(size_, visit_budget);
  std::size_t head = 0;
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    if (seed_[i] != 0) {
      queue_[count++] = i;
      in_queue_[i] = 1;
    }
  }

  while (count > 0) {
    const std::uint32_t i = queue_[head];
    head = head + 1 < size_ ? head + 1 : 0;
    --count;
    in_queue_[i] = 0;
    --visits_left_[i];

    const auto current = static_cast<BlockId>(local[i]);
    const NodeWeight weight = node_weight_[i];
    gather_connections(local, i);
    BlockId best = current;
    if (!dist_.empty()) {
      // Mapping-aware move rule: maximize the distance-discounted connection
      // volume (equivalently, minimize this node's contribution to J); all k
      // blocks are candidates, same reasoning as in placement.
      const auto gain_of = [&](BlockId b) {
        const std::int64_t* const row = dist_.data() + as_index(b) * as_index(k_);
        std::int64_t gain = 0;
        for (const BlockId t : touched_) {
          gain += gather_[as_index(t)] * (dist_max_ - row[as_index(t)]);
        }
        return gain;
      };
      std::int64_t best_gain = gain_of(current);
      NodeWeight best_weight = block_weight_[as_index(current)];
      for (BlockId b = 0; b < k_; ++b) {
        if (b == current) {
          continue;
        }
        const NodeWeight w = block_weight_[as_index(b)];
        if (w + weight > lmax_) {
          continue;
        }
        const std::int64_t gain = gain_of(b);
        if (gain > best_gain || (gain == best_gain && w < best_weight)) {
          best = b;
          best_gain = gain;
          best_weight = w;
        }
      }
    } else {
      EdgeWeight best_connection = gather_[as_index(current)];
      NodeWeight best_weight = block_weight_[as_index(current)];
      for (const BlockId b : touched_) {
        if (b == current) {
          continue;
        }
        const NodeWeight w = block_weight_[as_index(b)];
        if (w + weight > lmax_) {
          continue;
        }
        const EdgeWeight connection = gather_[as_index(b)];
        if (connection > best_connection ||
            (connection == best_connection && w < best_weight)) {
          best = b;
          best_connection = connection;
          best_weight = w;
        }
      }
    }
    if (best == current) {
      continue;
    }
    set_block_weight(current, block_weight_[as_index(current)] - weight);
    set_block_weight(best, block_weight_[as_index(best)] + weight);
    local[i] = static_cast<LocalBlock>(best);
    // The move changed the neighborhood of every in-buffer neighbor: those
    // with budget left re-enter the queue — except neighbors already in the
    // destination block, whose internal connection just grew while the
    // alternative shrank (provably stabler under the move rule).
    for (std::uint32_t e = intra_offset_[i]; e < intra_offset_[i + 1]; ++e) {
      const std::uint32_t j = intra_target_[e];
      if (in_queue_[j] == 0 && visits_left_[j] > 0 &&
          static_cast<BlockId>(local[j]) != best) {
        in_queue_[j] = 1;
        std::size_t tail = head + count;
        if (tail >= size_) {
          tail -= size_;
        }
        queue_[tail] = j;
        ++count;
      }
    }
  }
  // Restore the gather invariant (all-zero outside an operation): the last
  // examined node's connections would otherwise leak into the next buffer's
  // build as phantom super-edges.
  for (const BlockId b : touched_) {
    gather_[as_index(b)] = 0;
  }
  touched_.clear();
}

template <typename LocalBlock>
void BufferedPartitioner::refine_multilevel(std::vector<LocalBlock>& local) {
  if (size_ == 0 || k_ == 1) {
    return;
  }
  BufferModelView model;
  model.num_nodes = size_;
  model.intra_offset = intra_offset_.data();
  model.intra_target = intra_target_.data();
  model.intra_weight = intra_unit_ ? nullptr : intra_weight_.data();
  model.node_weight = node_weight_.data();
  model.super_offset = super_offset_.data();
  model.super_block = super_block_.data();
  model.super_weight = super_weight_.data();

  ml_part_.resize(size_);
  for (std::uint32_t i = 0; i < size_; ++i) {
    ml_part_[i] = static_cast<BlockId>(local[i]);
  }
  // The buffer index salts the engine's RNG: every buffer explores fresh
  // seeds, yet all entry points (in-memory, disk, pipelined) feed identical
  // buffers in identical order and therefore agree bit for bit.
  ml_->improve(model, ml_part_, block_weight_, lmax_,
               dist_.empty() ? nullptr : dist_.data(),
               static_cast<std::uint64_t>(buffers_processed_));
  for (std::uint32_t i = 0; i < size_; ++i) {
    local[i] = static_cast<LocalBlock>(ml_part_[i]);
  }
  // improve() rewrote block_weight_ in place; resync the cached penalties.
  for (BlockId b = 0; b < k_; ++b) {
    set_block_weight(b, block_weight_[as_index(b)]);
  }
}

template <bool kUnit, typename LocalBlock>
void BufferedPartitioner::run_buffer(std::vector<LocalBlock>& local,
                                     const NodeBatch& batch) {
  {
    const telemetry::TraceSpan span(telemetry::Hist::kStageBufferBuild);
    build_and_place<kUnit>(local, batch);
  }
  // The cheap active-set refine always runs: its result is the multilevel
  // engine's incoming candidate (and never-worse fallback), anchoring the
  // two engines' trajectories together — they only diverge on buffers where
  // the V-cycle strictly improves the model objective.
  {
    const telemetry::TraceSpan span(telemetry::Hist::kStageBufferRefine);
    refine(local);
  }
  if (engine_ == BufferedEngine::kMultilevel) {
    const telemetry::TraceSpan span(telemetry::Hist::kStageMultilevel);
    refine_multilevel(local);
  }
  // One sequential flush per buffer: the hot loops above only touch the
  // compact local array (half a BlockId each, L1-resident at the default
  // buffer size), never the O(n) assignment.
  for (std::uint32_t i = 0; i < size_; ++i) {
    assignment_[begin_ + i] = static_cast<BlockId>(local[i]);
  }
  ++buffers_processed_;
  telemetry::metric_add(telemetry::Counter::kBufferedBuffers);
}

void BufferedPartitioner::process_buffer(const NodeBatch& batch) {
  if (batch.empty()) {
    return;
  }
  OMS_ASSERT_MSG(batch.first_id() + batch.size() <= assignment_.size(),
                 "batch extends past the announced node count");
  // Blocks are committed (never invalid) by the time anything reads a local
  // slot, so 16 bits suffice whenever k fits them. Unit edge weights (the
  // common streaming case) drop the weight arrays from every hot loop; the
  // batch knows it has them (no per-arc weights stored), so nothing is
  // scanned. A weighted batch whose weights all happen to be 1 takes the
  // weighted kernel, which computes the same sums.
  const bool unit = batch.has_unit_edge_weights();
  const bool small_k = static_cast<std::uint64_t>(k_) <=
                       std::numeric_limits<std::uint16_t>::max() + std::uint64_t{1};
  if (small_k && unit) {
    run_buffer<true>(local16_, batch);
  } else if (small_k) {
    run_buffer<false>(local16_, batch);
  } else if (unit) {
    run_buffer<true>(local32_, batch);
  } else {
    run_buffer<false>(local32_, batch);
  }
}

std::vector<BlockId> BufferedPartitioner::take_assignment() {
  return std::move(assignment_);
}

bool BufferedPartitioner::save_stream_state(CheckpointWriter& w) const {
  save_assignment(w, assignment_);
  w.put_u64(block_weight_.size());
  for (const NodeWeight bw : block_weight_) {
    w.put_i64(bw);
  }
  w.put_u64(buffers_processed_);
  if (ml_ != nullptr) {
    const auto [streak, skip] = ml_->backoff_state();
    w.put_i64(streak);
    w.put_u64(skip);
  } else {
    w.put_i64(0);
    w.put_u64(0);
  }
  return true;
}

bool BufferedPartitioner::load_stream_state(CheckpointReader& r) {
  load_assignment(r, assignment_);
  if (r.get_u64() != block_weight_.size()) {
    throw IoError("checkpoint: block weight count mismatch");
  }
  // Through set_block_weight so the cached penalties resync exactly as the
  // uninterrupted run computed them.
  for (BlockId b = 0; b < k_; ++b) {
    set_block_weight(b, r.get_i64());
  }
  buffers_processed_ = r.get_u64();
  const std::int64_t streak = r.get_i64();
  const std::uint64_t skip = r.get_u64();
  if (ml_ != nullptr) {
    ml_->restore_backoff(streak, skip);
  }
  return true;
}

void BufferedPartitioner::stamp_checkpoint(CheckpointMeta& meta) const {
  BufferedConfig config;
  config.engine = engine_;
  meta.algo = buffered_checkpoint_algo_id(config);
  meta.seed = rng_seed_;
}

BufferedResult buffered_partition(const CsrGraph& graph, BlockId k,
                                  const BufferedConfig& config) {
  OMS_ASSERT(k >= 1);
  OMS_ASSERT(config.buffer_size >= 1);
  BufferedPartitioner core(graph.num_nodes(), graph.total_node_weight(), k, config);
  return run_stream(graph, core, in_memory_policy(graph, 1));
}

} // namespace oms
