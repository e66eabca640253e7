/// \file edge_list_stream.hpp
/// \brief True disk streaming of whitespace edge-list graphs (SNAP style):
///        one edge per line, `#` comment lines, self-loops skipped — the
///        input model of distributed graph engines and of the streaming
///        vertex-cut partitioners in oms/edgepart/.
///
/// Unlike a METIS file there is no header: the vertex universe and edge
/// count are only known once the stream ends, so the edge partitioners keep
/// grow-on-demand state (partial degrees, replica rows). The reader shares
/// the buffered raw-read machinery and the oms::IoError contract of
/// MetisNodeStream, including a fill_batch-style chunk-handoff API so the
/// producer/consumer pipeline drives it unchanged.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "oms/stream/error_policy.hpp"
#include "oms/stream/line_reader.hpp"
#include "oms/types.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/io_error.hpp"

namespace oms {

/// The unit of the edge-streaming model: one edge with an optional weight
/// (a third column in the file; 1 when absent).
struct StreamedEdge {
  NodeId u = 0;
  NodeId v = 0;
  EdgeWeight weight = 1;
};

/// A contiguous run of edges — the edge-stream analogue of NodeBatch:
/// either parsed into storage the pipeline recycles forever (so a warm run
/// never allocates), or a borrowed run of an in-memory edge sequence.
class EdgeBatch {
public:
  EdgeBatch() = default;
  EdgeBatch(const EdgeBatch&) = delete; // the view may point into *this
  EdgeBatch& operator=(const EdgeBatch&) = delete;

  void reset() noexcept {
    edges_.clear();
    view_ = edges_;
  }
  void push(const StreamedEdge& edge) {
    edges_.push_back(edge);
    view_ = edges_;
  }
  /// Read \p run in place (nothing is copied) until the next reset().
  void borrow(std::span<const StreamedEdge> run) noexcept { view_ = run; }

  [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
  [[nodiscard]] bool empty() const noexcept { return view_.empty(); }
  [[nodiscard]] const StreamedEdge& edge(std::size_t i) const noexcept {
    OMS_HEAVY_ASSERT(i < view_.size());
    return view_[i];
  }

private:
  std::span<const StreamedEdge> view_; ///< what consumers read
  std::vector<StreamedEdge> edges_;    ///< owned storage, filled by a parser
};

/// Sequentially parses a SNAP-style edge-list file, exposing one edge at a
/// time. Lines are `u v` or `u v w` with arbitrary whitespace; lines that
/// are empty or start with '#' are comments; self-loops (u == v) are skipped
/// and counted.
///
/// Throws oms::IoError from the constructor (unopenable file) and from
/// next()/fill_batch() (non-numeric endpoint, truncated line with a single
/// endpoint, trailing tokens, out-of-range id, non-positive weight, or a
/// file that ends without a single edge — comments and self-loops only is
/// "empty" too).
class EdgeListStream {
public:
  /// Chunk size of the raw reads; lines longer than the buffer grow it.
  static constexpr std::size_t kDefaultBufferBytes = std::size_t{1} << 18;

  explicit EdgeListStream(const std::string& path,
                          std::size_t buffer_bytes = kDefaultBufferBytes);

  EdgeListStream(const EdgeListStream&) = delete;
  EdgeListStream& operator=(const EdgeListStream&) = delete;

  /// Fetch the next edge; false after the last one. Raises IoError on the
  /// first end-of-file when the stream delivered no edge at all.
  bool next(StreamedEdge& out);

  /// Chunk handoff for the pipelined driver: parse up to \p max_edges edges
  /// into \p batch. Returns the number parsed; 0 means exhausted.
  std::size_t fill_batch(EdgeBatch& batch, std::size_t max_edges);

  /// Rewind to the first edge (restreaming); resets the counters below.
  void rewind();

  /// Edges delivered so far (self-loops and comments excluded).
  [[nodiscard]] EdgeIndex edges_delivered() const noexcept {
    return edges_delivered_;
  }
  /// Self-loop lines skipped so far.
  [[nodiscard]] EdgeIndex self_loops_skipped() const noexcept {
    return self_loops_skipped_;
  }
  /// Largest endpoint id seen so far (0 before any edge).
  [[nodiscard]] NodeId max_vertex_id() const noexcept { return max_vertex_id_; }

  /// Malformed-line policy (--on-error): under kSkip a malformed data line
  /// contributes no edge, up to the budget. Set before streaming.
  void set_error_policy(const StreamErrorPolicy& policy) noexcept {
    error_policy_ = policy;
  }
  [[nodiscard]] const StreamErrorStats& error_stats() const noexcept {
    return error_stats_;
  }

private:
  /// False at end of file; skips comments and self-loops internally and
  /// applies the error policy per data line.
  bool parse_next(StreamedEdge& out);
  /// Parse one non-comment line; true when \p out holds a new edge, false
  /// for whitespace-only lines and self-loops. Throws ContentError.
  bool parse_edge_line(std::string_view line, StreamedEdge& out);
  [[noreturn]] void fail(const std::string& message) const;

  BufferedLineReader reader_;
  EdgeIndex edges_delivered_ = 0;
  EdgeIndex self_loops_skipped_ = 0;
  NodeId max_vertex_id_ = 0;
  bool exhausted_ = false;
  StreamErrorPolicy error_policy_;
  StreamErrorStats error_stats_;
};

} // namespace oms
