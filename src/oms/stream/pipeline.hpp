/// \file pipeline.hpp
/// \brief The one disk-stream driver: run_stream(source, consumer, policy)
///        reads a METIS node stream or an edge list in batches and hands
///        each batch to a consumer, with or without a reader thread.
///
/// The three parts:
///  * source — MetisNodeStream or EdgeListStream, read through fill_batch;
///  * consumer — a OnePassAssigner on PipelineConfig::assign_threads
///    threads, the BufferedPartitioner, or a StreamingEdgePartitioner,
///    called once per batch;
///  * policy — PipelineConfig: reader thread and ring, batch geometry,
///    watchdog, malformed-line policy, checkpoint cadence and resume state.
///
/// This is the producer/consumer structure of buffered streaming
/// partitioning (Faraj & Schulz, "Buffered Streaming Graph Partitioning")
/// applied to the raw ingest path, with one-pass as its buffer-size-1 case.
/// With a reader thread (ring_batches > 0) parsing overlaps assignment and
/// the run pays max(parse, assign) plus one handoff per batch; without one
/// (ring_batches == 0, the sequential route) fill and consume alternate on
/// the calling thread over a single batch.
///
/// Ordering contract: parse-ahead reorders *work*, never *decisions*. With
/// one consumer, batches are consumed strictly in stream order, so every
/// route and geometry produces the bit-identical result (pinned by the
/// golden-hash suites). With several one-pass consumers, whole batches are
/// dealt to threads like the chunked in-memory parallel driver, with the
/// same Section 3.4 overshoot semantics.
///
/// Checkpointing is one hook after each consumed batch, for node streams
/// and any consumer with save/load_stream_state. A snapshot records the
/// position the reader stored in the batch (NodeBatch::end_offset), so it
/// works with or without the reader thread. One-pass batches are clipped at
/// each multiple of checkpoint.every_nodes, so its snapshots land exactly
/// there; buffered batches are whole buffers (boundaries shape buffered
/// decisions), so its snapshots land on the first buffer boundary at or
/// past each multiple. FaultSite::kCheckpointDie fires right after a
/// snapshot is durably on disk — the chaos suite's stand-in for kill -9.
#pragma once

#include <cstddef>
#include <cstdint>

#include "oms/stream/checkpoint.hpp"
#include "oms/stream/edge_list_stream.hpp"
#include "oms/stream/error_policy.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/one_pass_driver.hpp"

namespace oms {

class BufferedPartitioner;
class StreamingEdgePartitioner;
struct BufferedResult;
struct EdgePartitionResult;

/// How run_stream executes. The defaults target "disk stream with one reader
/// and one assigner": batches big enough to amortize the queue handoff, a
/// ring deep enough to ride out parse/assign jitter.
struct PipelineConfig {
  /// One-pass consumer (assignment) threads. 1 keeps stream order exactly;
  /// >1 trades determinism for throughput exactly like run_one_pass(...,
  /// num_threads > 1). Buffered and edge consumers always run one, and so
  /// does any checkpointing run.
  int assign_threads = 1;

  /// Max nodes (edges, for edge lists) per batch. Also the parallel
  /// decomposition grain when assign_threads > 1 (one batch = one chunk).
  /// Buffered consumers take whole buffers instead.
  std::size_t batch_nodes = 4096;

  /// Max adjacency entries per one-pass batch: hub-heavy regions close a
  /// batch early so its memory stays bounded by arcs, not by the degree
  /// distribution. 0 = no arc cap.
  std::size_t batch_arcs = 1 << 18;

  /// Batches circulating between the reader thread and the consumers. Bounds
  /// the parse-ahead: the reader blocks once this many batches are parsed
  /// but not yet consumed (backpressure). 0 = no reader thread (sequential).
  std::size_t ring_batches = 4;

  /// Raw read chunk for the caller to construct the source with.
  std::size_t reader_buffer_bytes = MetisNodeStream::kDefaultBufferBytes;

  /// Watchdog on every pipeline queue wait, in milliseconds; 0 disables. A
  /// timeout means a peer thread died without closing its queue and surfaces
  /// as oms::IoError instead of a hang.
  std::uint64_t watchdog_ms = 0;

  /// Malformed-line policy applied to the source (--on-error); the skip
  /// accounting comes back in the result's `skipped`.
  StreamErrorPolicy error_policy;

  /// Periodic snapshots (empty path = none). Node streams only.
  CheckpointConfig checkpoint;

  /// When non-null, continue from this snapshot: the consumer state is
  /// loaded and the source seeks to the recorded position. It must already
  /// have passed validate_resume. Not owned.
  const CheckpointState* resume = nullptr;
};

/// Stream \p source through a one-pass \p assigner. Total memory beyond the
/// assigner's own state is O(ring_batches * batch size). An IoError raised
/// by the parser mid-stream is rethrown here, on the calling thread, after
/// all pipeline threads have been joined.
[[nodiscard]] StreamResult run_stream(MetisNodeStream& source,
                                      OnePassAssigner& assigner,
                                      const PipelineConfig& policy);

/// Stream \p source buffer by buffer through the buffered partitioner (one
/// consumer; batch_nodes/batch_arcs do not apply). Requires unit node
/// weights — the balance bound must be known before the pass and the header
/// only reveals n — and throws oms::IoError otherwise.
[[nodiscard]] BufferedResult run_stream(MetisNodeStream& source,
                                        BufferedPartitioner& partitioner,
                                        const PipelineConfig& policy);

/// Stream the edge list \p source through a vertex-cut \p partitioner (one
/// consumer: the assigners are order-dependent). Edge-list streams do not
/// checkpoint; a checkpoint or resume policy throws oms::IoError.
[[nodiscard]] EdgePartitionResult run_stream(EdgeListStream& source,
                                             StreamingEdgePartitioner& partitioner,
                                             const PipelineConfig& policy);

} // namespace oms
