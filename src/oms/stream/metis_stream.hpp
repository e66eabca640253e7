/// \file metis_stream.hpp
/// \brief True disk streaming: parse a METIS graph file into batches of
///        consecutive nodes for run_stream (stream/pipeline.hpp).
///
/// This realizes the paper's "the algorithm could also be run streaming the
/// graph from hard disk" and is what the memory experiment (Section 4.1)
/// uses: total state is the assignment vector plus block weights plus the
/// batches in flight (one on the sequential route), never the whole graph.
///
/// The reader pulls raw chunks into one reusable buffer and parses integers
/// in place (stream/line_reader.hpp) — no per-line getline, no per-line
/// string copies. It is the library's only METIS parser: read_metis
/// (graph/io.hpp) parses the whole file into one NodeBatch with fill_batch,
/// whose storage becomes the CSR directly when the rows are canonical
/// (GraphBuilder assembles it otherwise). Malformed *content* (bad header,
/// out-of-range neighbor, missing node or edge weight, an edge weight below
/// 1, a negative node weight, non-numeric token) raises oms::ContentError
/// with the file position, so CLIs fail cleanly instead of aborting.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "oms/stream/error_policy.hpp"
#include "oms/stream/line_reader.hpp"
#include "oms/stream/node_batch.hpp"
#include "oms/stream/streamed_node.hpp"
#include "oms/types.hpp"
#include "oms/util/io_error.hpp"

namespace oms {

/// Header of a METIS file (enough to size the streaming state and compute
/// Fennel's alpha before any node arrives).
struct MetisHeader {
  NodeId num_nodes = 0;
  EdgeIndex num_edges = 0;
  bool has_node_weights = false;
  bool has_edge_weights = false;
};

/// Sequentially parses a METIS file, exposing one node (next) or one batch of
/// consecutive nodes (fill_batch) at a time.
///
/// Throws oms::IoError from the constructor (unopenable file, malformed
/// header) and from next() (malformed data line).
class MetisNodeStream {
public:
  /// Chunk size of the raw reads; lines longer than the buffer grow it.
  static constexpr std::size_t kDefaultBufferBytes = std::size_t{1} << 18;

  explicit MetisNodeStream(const std::string& path,
                           std::size_t buffer_bytes = kDefaultBufferBytes);

  MetisNodeStream(const MetisNodeStream&) = delete;
  MetisNodeStream& operator=(const MetisNodeStream&) = delete;

  [[nodiscard]] const MetisHeader& header() const noexcept { return header_; }

  /// Fetch the next node; false after the last one. The spans inside
  /// \p out remain valid until the next call.
  bool next(StreamedNode& out);

  /// Chunk handoff for run_stream: parse up to \p max_nodes consecutive
  /// nodes (fewer when \p max_arcs adjacency entries accumulate first —
  /// hub-heavy regions cap batch memory by arcs, not node count) directly
  /// into \p batch's flat storage, and record the position after the last
  /// one (NodeBatch::end_offset). Returns the number of nodes parsed; 0
  /// means the stream is exhausted. \p max_arcs 0 = unbounded.
  std::size_t fill_batch(NodeBatch& batch, std::size_t max_nodes,
                         std::size_t max_arcs = 0);

  /// Rewind to the first node (used by restreaming).
  void rewind();

  // --- checkpoint/resume support (stream/checkpoint.hpp) -----------------

  /// File offset of the first byte next()/fill_batch() has not consumed yet.
  [[nodiscard]] std::uint64_t next_offset() const noexcept {
    return reader_.next_offset();
  }
  /// 1-based number of the line most recently parsed.
  [[nodiscard]] std::uint64_t line_no() const noexcept { return reader_.line_no(); }
  /// Nodes fully delivered so far (the id the next node will get).
  [[nodiscard]] NodeId nodes_delivered() const noexcept { return next_id_; }

  /// Jump to a recorded (offset, line_no) position and continue delivering
  /// nodes from id \p next_id — the stream-side half of a checkpoint resume.
  /// The position must have been captured at a node boundary on the same
  /// file (checkpoints validate that via header count + CRC).
  void resume_at(std::uint64_t offset, std::uint64_t line_no, NodeId next_id);

  // --- malformed-line policy (--on-error) --------------------------------

  /// Set before streaming data lines. Under kSkip a malformed data line is
  /// delivered as an isolated unit-weight node (ids stay aligned) up to the
  /// budget; header errors and I/O failures always abort.
  void set_error_policy(const StreamErrorPolicy& policy) noexcept {
    error_policy_ = policy;
  }
  [[nodiscard]] const StreamErrorStats& error_stats() const noexcept {
    return error_stats_;
  }

private:
  void read_header();
  /// Parse the next data line, appending the adjacency into the given sinks.
  /// False when all header().num_nodes nodes have been delivered. Applies
  /// the error policy: under kSkip a malformed line rolls back its partial
  /// appends and degrades to an isolated node.
  bool parse_next(NodeWeight& weight, std::vector<NodeId>& neighbors,
                  std::vector<EdgeWeight>& edge_weights);
  /// The raw token loop over one data line (throws ContentError via fail()).
  void parse_data_line(std::string_view line, NodeWeight& weight,
                       std::vector<NodeId>& neighbors,
                       std::vector<EdgeWeight>& edge_weights);
  [[noreturn]] void fail(const std::string& message) const;

  BufferedLineReader reader_;
  std::uint64_t data_start_ = 0; ///< file offset of the first data line
  std::uint64_t header_line_no_ = 0;

  MetisHeader header_;
  NodeId next_id_ = 0;
  std::vector<NodeId> neighbor_buffer_;
  std::vector<EdgeWeight> weight_buffer_;
  StreamErrorPolicy error_policy_;
  StreamErrorStats error_stats_;
};

} // namespace oms
