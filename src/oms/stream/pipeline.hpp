/// \file pipeline.hpp
/// \brief The one stream driver: run_stream(source, consumer, policy) reads
///        a METIS node stream, an edge list, an in-memory graph or an
///        in-memory edge sequence in batches and hands each batch to a
///        consumer, with or without a reader thread.
///
/// The three parts:
///  * source — MetisNodeStream or EdgeListStream, read through fill_batch,
///    or a CsrGraph or span of StreamedEdge, whose batches borrow the
///    caller's arrays and copy nothing;
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
/// dealt to threads as they free up, and concurrent assigns race on the
/// atomic block weights with the Section 3.4 overshoot semantics;
/// run_one_pass's one batch per thread is the paper's decomposition.
///
/// Checkpointing is one hook after each consumed batch, for METIS files
/// and any consumer with save/load_stream_state. A snapshot records the
/// position the reader stored in the batch (NodeBatch::end_offset), so it
/// works with or without the reader thread. One-pass batches are clipped at
/// each multiple of checkpoint.every_nodes, so its snapshots land exactly
/// there; buffered batches are whole buffers (boundaries shape buffered
/// decisions), so its snapshots land on the first buffer boundary at or
/// past each multiple. FaultSite::kCheckpointDie fires right after a
/// snapshot is durably on disk — the chaos suite's stand-in for kill -9.
/// In-memory sources and edge lists do not checkpoint: a checkpoint or
/// resume policy on them throws oms::IoError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

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
  /// >1 trades determinism for throughput (Section 3.4). Buffered and edge
  /// consumers always run one, and so does any checkpointing run.
  int assign_threads = 1;

  /// Max nodes (edges, for edge lists) per batch. Also the parallel
  /// decomposition grain when assign_threads > 1 (one batch = one chunk).
  /// Buffered consumers take whole buffers instead, and a one-pass consumer
  /// without a reader thread caps it at 64 nodes, so each batch is assigned
  /// while its adjacency is still in L1.
  std::size_t batch_nodes = 4096;

  /// Max adjacency entries per one-pass batch: hub-heavy regions close a
  /// batch early so its memory stays bounded by arcs, not by the degree
  /// distribution. 0 = no arc cap. In-memory graphs ignore it: a borrowed
  /// batch holds no memory to bound.
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

/// Stream the METIS \p source, or \p graph in node-id order, through a
/// one-pass \p assigner. Total memory beyond the assigner's own state is
/// O(ring_batches * batch size); a graph's batches borrow runs of its CSR
/// arrays. An IoError raised by the parser mid-stream is rethrown here, on
/// the calling thread, after all pipeline threads have been joined.
[[nodiscard]] StreamResult run_stream(MetisNodeStream& source,
                                      OnePassAssigner& assigner,
                                      const PipelineConfig& policy);
[[nodiscard]] StreamResult run_stream(const CsrGraph& graph,
                                      OnePassAssigner& assigner,
                                      const PipelineConfig& policy);

/// The policy for streaming \p graph on \p num_threads consumers (as
/// run_one_pass does): no reader thread when that resolves to 1, and
/// otherwise one batch of ceil(n / threads) consecutive nodes per consumer
/// thread (the paper's decomposition).
[[nodiscard]] PipelineConfig in_memory_policy(const CsrGraph& graph, int num_threads);

/// Stream \p source or \p graph buffer by buffer through the buffered
/// partitioner (one consumer; batch_nodes/batch_arcs do not apply). A file
/// needs unit node weights — the balance bound must be known before the
/// pass and the header only reveals n — and throws oms::IoError otherwise;
/// a graph may carry node weights, since the partitioner was sized with
/// its total.
[[nodiscard]] BufferedResult run_stream(MetisNodeStream& source,
                                        BufferedPartitioner& partitioner,
                                        const PipelineConfig& policy);
[[nodiscard]] BufferedResult run_stream(const CsrGraph& graph,
                                        BufferedPartitioner& partitioner,
                                        const PipelineConfig& policy);

/// Stream the edge list \p source, or the in-memory \p edges, through a
/// vertex-cut \p partitioner (one consumer: the assigners are
/// order-dependent). Batches of \p edges borrow its loop-free runs;
/// self-loops are skipped and counted as the file reader does.
[[nodiscard]] EdgePartitionResult run_stream(EdgeListStream& source,
                                             StreamingEdgePartitioner& partitioner,
                                             const PipelineConfig& policy);
[[nodiscard]] EdgePartitionResult run_stream(std::span<const StreamedEdge> edges,
                                             StreamingEdgePartitioner& partitioner,
                                             const PipelineConfig& policy);

} // namespace oms
