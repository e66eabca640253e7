#include "oms/stream/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <string>
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

/// The checkpoint side of a node stream: restores \p consumer and the source
/// from policy.resume, then snapshots after every batch that ends at or past
/// the next multiple of checkpoint.every_nodes.
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

/// The one loop every disk stream runs: apply the malformed-line policy,
/// then fill and consume batches through the pipeline ring (or on the
/// calling thread), counting \p items once per consumed batch. Returns the
/// wall time of the pass.
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

} // namespace

StreamResult run_stream(MetisNodeStream& source, OnePassAssigner& assigner,
                        const PipelineConfig& policy) {
  const int consumers = resolve_threads(policy.assign_threads);
  if (checkpointing(policy) && consumers != 1) {
    throw IoError("checkpoint/resume needs one consumer (assign_threads = 1)");
  }
  // prepare() first: it may re-layout the block weights, and a resumed
  // state must land in the final layout.
  assigner.prepare(consumers);
  CheckpointHook<OnePassAssigner> hook(source, assigner, policy);

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

BufferedResult run_stream(MetisNodeStream& source, BufferedPartitioner& partitioner,
                          const PipelineConfig& policy) {
  if (source.header().has_node_weights) {
    throw IoError("buffered disk streaming assumes unit node weights "
                  "(load the graph in memory instead)");
  }
  CheckpointHook<BufferedPartitioner> hook(source, partitioner, policy);
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

EdgePartitionResult run_stream(EdgeListStream& source,
                               StreamingEdgePartitioner& partitioner,
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

} // namespace oms
