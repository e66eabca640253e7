#include "oms/stream/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/edgepart/driver.hpp"
#include "oms/stream/pipeline_core.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/parallel.hpp"
#include "oms/util/timer.hpp"

namespace oms {
namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// Nodes per one-pass batch on the sequential route. Each batch is assigned
/// right after it is parsed, so a small one is still in L1 when the assigner
/// reads its adjacency; the pipelined routes need PipelineConfig::batch_nodes
/// to amortize the handoff between threads.
constexpr std::size_t kSequentialBatchNodes = 64;

[[nodiscard]] bool checkpointing(const PipelineConfig& policy) noexcept {
  return !policy.checkpoint.path.empty() || policy.resume != nullptr;
}

[[nodiscard]] IoError unsupported() {
  return IoError("this consumer does not support checkpoint/resume");
}

/// The checkpoint side of a METIS node stream: restores \p consumer and the
/// source from policy.resume, then snapshots after every batch that ends at
/// or past the next multiple of checkpoint.every_nodes.
template <typename Consumer>
class CheckpointHook {
public:
  CheckpointHook(MetisNodeStream& source, Consumer& consumer,
                 const PipelineConfig& policy)
      : source_(source),
        consumer_(consumer),
        path_(policy.checkpoint.path),
        every_(path_.empty() || policy.checkpoint.every_nodes == 0
                   ? kNever
                   : policy.checkpoint.every_nodes) {
    std::uint64_t streamed = 0;
    if (policy.resume != nullptr) {
      CheckpointReader r(policy.resume->payload);
      if (!consumer.load_stream_state(r)) {
        throw unsupported();
      }
      r.expect_end();
      const CheckpointMeta& meta = policy.resume->meta;
      streamed = meta.nodes_streamed;
      source.resume_at(meta.input_offset, meta.input_line_no,
                       static_cast<NodeId>(streamed));
    }
    next_ = every_ == kNever ? kNever : (streamed / every_ + 1) * every_;
  }

  /// \p max_nodes clipped so the batch ends on the next cadence point. Reads
  /// only reader-side state, so it is safe on the reader thread.
  [[nodiscard]] std::size_t clip(std::size_t max_nodes) const noexcept {
    if (every_ == kNever) {
      return max_nodes;
    }
    const std::uint64_t to_next = every_ - source_.nodes_delivered() % every_;
    return static_cast<std::size_t>(std::min<std::uint64_t>(max_nodes, to_next));
  }

  /// Called by the (single) consumer after each batch.
  void after(const NodeBatch& batch) {
    const std::uint64_t streamed = batch.first_id() + batch.size();
    if (streamed < next_) {
      return;
    }
    CheckpointMeta meta;
    consumer_.stamp_checkpoint(meta);
    meta.k = static_cast<std::uint64_t>(consumer_.num_blocks());
    meta.num_nodes = source_.header().num_nodes;
    meta.nodes_streamed = streamed;
    meta.input_offset = batch.end_offset();
    meta.input_line_no = batch.end_line_no();
    CheckpointWriter w;
    if (!consumer_.save_stream_state(w)) {
      throw unsupported();
    }
    write_checkpoint_file(path_, meta, w.bytes());
    // The deterministic stand-in for kill -9: the snapshot is durable, the
    // process dies before consuming another batch.
    if (fault_fires(FaultSite::kCheckpointDie)) {
      throw IoError("injected crash after checkpoint at node " +
                    std::to_string(streamed));
    }
    // One buffer can cross several cadence points; snapshot once per
    // boundary, then catch the schedule up.
    while (next_ <= streamed) {
      next_ += every_;
    }
  }

private:
  MetisNodeStream& source_;
  Consumer& consumer_;
  std::string path_;
  std::uint64_t every_;
  std::uint64_t next_ = kNever;
};

/// CheckpointHook's stand-in on an in-memory graph, which has no position
/// to snapshot or resume: a checkpoint or resume policy throws.
struct NoCheckpoint {
  NoCheckpoint(const auto& /*source*/, const auto& /*consumer*/,
               const PipelineConfig& policy) {
    if (checkpointing(policy)) {
      throw IoError("in-memory graphs do not support checkpoint/resume");
    }
  }
  static std::size_t clip(std::size_t max_nodes) noexcept { return max_nodes; }
  static void after(const NodeBatch& /*batch*/) noexcept {}
};

template <typename Source, typename Consumer>
using CheckpointHookFor = std::conditional_t<std::is_same_v<Source, MetisNodeStream>,
                                             CheckpointHook<Consumer>, NoCheckpoint>;

/// An in-memory graph as a node source: each batch borrows the CSR arrays
/// of the next run of at most max_nodes consecutive nodes. The arc cap does
/// not apply, since a borrowed batch holds no memory to bound.
class GraphNodeSource {
public:
  explicit GraphNodeSource(const CsrGraph& graph) : graph_(graph) {}

  void set_error_policy(const StreamErrorPolicy& /*policy*/) noexcept {}
  [[nodiscard]] StreamErrorStats error_stats() const noexcept { return {}; }

  std::size_t fill_batch(NodeBatch& batch, std::size_t max_nodes,
                         std::size_t /*max_arcs*/ = 0) {
    const NodeId begin = next_;
    const NodeId end = begin + static_cast<NodeId>(std::min<std::size_t>(
                                   max_nodes, graph_.num_nodes() - begin));
    batch.borrow(graph_, begin, end);
    next_ = end;
    return batch.size();
  }

private:
  const CsrGraph& graph_;
  NodeId next_ = 0;
};

/// An in-memory edge sequence as an edge source: each batch borrows the next
/// loop-free run. Self-loops are skipped and counted, and the largest id is
/// tracked, as EdgeListStream does, so EdgeStreamStats read the same.
class EdgeSpanSource {
public:
  explicit EdgeSpanSource(std::span<const StreamedEdge> edges) : edges_(edges) {}

  void set_error_policy(const StreamErrorPolicy& /*policy*/) noexcept {}
  [[nodiscard]] StreamErrorStats error_stats() const noexcept { return {}; }

  std::size_t fill_batch(EdgeBatch& batch, std::size_t max_edges) {
    while (next_ < edges_.size() && edges_[next_].u == edges_[next_].v) {
      ++next_;
      ++loops_;
    }
    const std::size_t begin = next_;
    const std::size_t limit = begin + std::min(max_edges, edges_.size() - begin);
    for (; next_ < limit && edges_[next_].u != edges_[next_].v; ++next_) {
      max_id_ = std::max(max_id_, std::max(edges_[next_].u, edges_[next_].v));
    }
    batch.borrow(edges_.subspan(begin, next_ - begin));
    delivered_ += batch.size();
    return batch.size();
  }

  [[nodiscard]] EdgeIndex edges_delivered() const noexcept { return delivered_; }
  [[nodiscard]] EdgeIndex self_loops_skipped() const noexcept { return loops_; }
  [[nodiscard]] NodeId max_vertex_id() const noexcept { return max_id_; }

private:
  std::span<const StreamedEdge> edges_;
  std::size_t next_ = 0;
  EdgeIndex delivered_ = 0;
  EdgeIndex loops_ = 0;
  NodeId max_id_ = 0;
};

/// The one loop every stream runs: apply the malformed-line policy, then
/// fill and consume batches through the pipeline ring (or on the calling
/// thread), counting \p items once per consumed batch. Returns the wall
/// time of the pass.
template <typename Batch, typename Source, typename Fill, typename Consume>
double drive(Source& source, const PipelineConfig& policy, int consumers,
             telemetry::Counter items, Fill&& fill, Consume&& consume) {
  source.set_error_policy(policy.error_policy);
  Timer timer;
  run_batched_pipeline<Batch>(
      policy.ring_batches, consumers, fill,
      [&](const Batch& batch, int thread_id) {
        consume(batch, thread_id);
        telemetry::metric_add(items, batch.size());
      },
      policy.watchdog_ms);
  return timer.elapsed_s();
}

/// One-pass consumer over any node source.
template <typename Source>
StreamResult stream_one_pass(Source& source, OnePassAssigner& assigner,
                             const PipelineConfig& policy) {
  const int consumers = resolve_threads(policy.assign_threads);
  if (checkpointing(policy) && consumers != 1) {
    throw IoError("checkpoint/resume needs one consumer (assign_threads = 1)");
  }
  // prepare() first: it may re-layout the block weights, and a resumed
  // state must land in the final layout.
  assigner.prepare(consumers);
  CheckpointHookFor<Source, OnePassAssigner> hook(source, assigner, policy);

  // Per-thread counter slots merged after the join; each consumer accumulates
  // into a stack-local inside the batch loop so the shared vector is written
  // once per batch, not once per node (no false sharing on the hot path).
  std::vector<WorkCounters> counters(static_cast<std::size_t>(consumers));
  const std::size_t batch_nodes = policy.ring_batches == 0
                                      ? std::min(policy.batch_nodes, kSequentialBatchNodes)
                                      : policy.batch_nodes;
  StreamResult result;
  result.elapsed_s = drive<NodeBatch>(
      source, policy, consumers, telemetry::Counter::kStreamNodes,
      [&](NodeBatch& batch) {
        return source.fill_batch(batch, hook.clip(batch_nodes), policy.batch_arcs);
      },
      [&](const NodeBatch& batch, int thread_id) {
        WorkCounters local;
        const std::size_t count = batch.size();
        for (std::size_t i = 0; i < count; ++i) {
          assigner.assign(batch.node(i), thread_id, local);
        }
        counters[static_cast<std::size_t>(thread_id)] += local;
        hook.after(batch);
      });
  for (const WorkCounters& c : counters) {
    result.work += c;
  }
  telemetry::publish_work(result.work);
  result.skipped = source.error_stats();
  result.assignment = assigner.take_assignment();
  return result;
}

/// Buffered consumer over any node source.
template <typename Source>
BufferedResult stream_buffered(Source& source, BufferedPartitioner& partitioner,
                               const PipelineConfig& policy) {
  CheckpointHookFor<Source, BufferedPartitioner> hook(source, partitioner, policy);
  BufferedResult result;
  result.elapsed_s = drive<NodeBatch>(
      source, policy, /*consumers=*/1, telemetry::Counter::kStreamNodes,
      [&](NodeBatch& batch) {
        return source.fill_batch(batch, partitioner.buffer_size());
      },
      [&](const NodeBatch& batch, int /*thread_id*/) {
        partitioner.process_buffer(batch);
        hook.after(batch);
      });
  result.buffers_processed = partitioner.buffers_processed();
  result.skipped = source.error_stats();
  result.assignment = partitioner.take_assignment();
  return result;
}

/// Vertex-cut consumer over any edge source.
template <typename Source>
EdgePartitionResult stream_edges(Source& source, StreamingEdgePartitioner& partitioner,
                                 const PipelineConfig& policy) {
  if (checkpointing(policy)) {
    throw IoError("edge-list streams do not support checkpoint/resume");
  }
  EdgePartitionResult result;
  result.elapsed_s = drive<EdgeBatch>(
      source, policy, /*consumers=*/1, telemetry::Counter::kStreamEdges,
      [&](EdgeBatch& batch) { return source.fill_batch(batch, policy.batch_nodes); },
      [&](const EdgeBatch& batch, int /*thread_id*/) {
        const std::size_t count = batch.size();
        for (std::size_t i = 0; i < count; ++i) {
          partitioner.assign(batch.edge(i));
        }
      });
  // Any reader thread has joined inside the pipeline, so reading the stream
  // counters here is race-free.
  result.stats.num_edges = source.edges_delivered();
  result.stats.self_loops_skipped = source.self_loops_skipped();
  result.stats.num_vertices =
      source.edges_delivered() > 0 ? source.max_vertex_id() + 1 : 0;
  result.skipped = source.error_stats();
  result.edge_assignment = partitioner.take_edge_assignment();
  return result;
}

} // namespace

StreamResult run_stream(MetisNodeStream& source, OnePassAssigner& assigner,
                        const PipelineConfig& policy) {
  return stream_one_pass(source, assigner, policy);
}

StreamResult run_stream(const CsrGraph& graph, OnePassAssigner& assigner,
                        const PipelineConfig& policy) {
  GraphNodeSource source(graph);
  return stream_one_pass(source, assigner, policy);
}

BufferedResult run_stream(MetisNodeStream& source, BufferedPartitioner& partitioner,
                          const PipelineConfig& policy) {
  if (source.header().has_node_weights) {
    throw IoError("buffered disk streaming assumes unit node weights "
                  "(load the graph in memory instead)");
  }
  return stream_buffered(source, partitioner, policy);
}

BufferedResult run_stream(const CsrGraph& graph, BufferedPartitioner& partitioner,
                          const PipelineConfig& policy) {
  GraphNodeSource source(graph);
  return stream_buffered(source, partitioner, policy);
}

EdgePartitionResult run_stream(EdgeListStream& source,
                               StreamingEdgePartitioner& partitioner,
                               const PipelineConfig& policy) {
  return stream_edges(source, partitioner, policy);
}

EdgePartitionResult run_stream(std::span<const StreamedEdge> edges,
                               StreamingEdgePartitioner& partitioner,
                               const PipelineConfig& policy) {
  EdgeSpanSource source(edges);
  return stream_edges(source, partitioner, policy);
}

PipelineConfig in_memory_policy(const CsrGraph& graph, int num_threads) {
  PipelineConfig policy;
  // No more consumers than nodes: a thread per requested consumer would
  // leave the extra ones without a batch.
  const auto threads = std::min<std::size_t>(
      static_cast<std::size_t>(resolve_threads(num_threads)),
      std::max<std::size_t>(graph.num_nodes(), 1));
  policy.assign_threads = static_cast<int>(threads);
  policy.ring_batches = threads == 1 ? 0 : threads;
  policy.batch_nodes =
      std::max<std::size_t>(1, (graph.num_nodes() + threads - 1) / threads);
  return policy;
}

StreamResult run_one_pass(const CsrGraph& graph, OnePassAssigner& assigner,
                          int num_threads) {
  return run_stream(graph, assigner, in_memory_policy(graph, num_threads));
}

EdgePartitionResult run_edge_partition(std::span<const StreamedEdge> edges,
                                       StreamingEdgePartitioner& partitioner) {
  PipelineConfig policy;
  policy.ring_batches = 0;
  return run_stream(edges, partitioner, policy);
}

} // namespace oms
