/// \file node_batch.hpp
/// \brief A contiguous run of stream nodes: parsed into flat storage the
///        pipeline recycles forever, or borrowed from an in-memory graph.
///
/// Every run_stream source hands these across the producer/consumer
/// boundary (or, on the sequential route, straight to the consumer) instead
/// of single StreamedNodes: batching amortizes the queue synchronization
/// over thousands of nodes and keeps the adjacency data of a work unit
/// cache-resident for the assigning thread. Node ids inside a batch are
/// consecutive (stream order), so only the first id is stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/stream/streamed_node.hpp"
#include "oms/types.hpp"
#include "oms/util/assert.hpp"

namespace oms {

class NodeBatch {
public:
  NodeBatch() { view_owned(); }
  NodeBatch(const NodeBatch&) = delete; // the views may point into *this
  NodeBatch& operator=(const NodeBatch&) = delete;

  /// Reset to an empty owned batch, keeping capacity. \p first_id is the
  /// stream id of the first node that will be appended.
  void reset(NodeId first_id) {
    first_id_ = first_id;
    weights_.clear();
    offsets_.assign(1, 0);
    neighbors_.clear();
    edge_weights_.clear();
    view_owned();
  }

  /// Room for \p nodes nodes and \p arcs adjacency entries in the owned
  /// storage, kept across reset(): a parse of known size never regrows it.
  void reserve(std::size_t nodes, std::size_t arcs) {
    weights_.reserve(nodes);
    offsets_.reserve(nodes + 1);
    neighbors_.reserve(arcs);
    edge_weights_.reserve(arcs);
  }

  /// The owned storage, moved out: it already has the layout of a CSR graph
  /// (offsets = xadj, weights = vwgt, neighbors = adjncy, edge weights =
  /// adjwgt) when the batch was filled from node 0.
  struct Storage {
    std::vector<EdgeIndex> offsets;
    std::vector<NodeWeight> weights;
    std::vector<NodeId> neighbors;
    std::vector<EdgeWeight> edge_weights;
  };
  [[nodiscard]] Storage release() && {
    return {std::move(offsets_), std::move(weights_), std::move(neighbors_),
            std::move(edge_weights_)};
  }

  /// The parser appends one node's adjacency directly into these sinks (no
  /// intermediate copy), then seals the slot with commit_node(). Appended
  /// nodes become readable at set_end().
  std::vector<NodeId>& neighbor_sink() noexcept { return neighbors_; }
  std::vector<EdgeWeight>& edge_weight_sink() noexcept { return edge_weights_; }
  void commit_node(NodeWeight weight) {
    weights_.push_back(weight);
    offsets_.push_back(neighbors_.size());
  }

  /// Read nodes [begin, end) of \p graph in place (nothing is copied) until
  /// the next reset() or borrow().
  void borrow(const CsrGraph& graph, NodeId begin, NodeId end) noexcept {
    OMS_HEAVY_ASSERT(begin <= end && end <= graph.num_nodes());
    first_id_ = begin;
    size_ = end - begin;
    offsets_view_ = graph.raw_xadj().data() + begin;
    weights_view_ = graph.raw_vwgt().data() + begin;
    neighbors_view_ = graph.raw_adjncy().data();
    edge_weights_view_ = graph.raw_adjwgt().data();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] NodeId first_id() const noexcept { return first_id_; }

  /// Close an owned batch: record the input position just past its last
  /// node (byte offset and line number; a checkpoint taken after this batch
  /// resumes the stream there) and make the appended nodes readable.
  void set_end(std::uint64_t offset, std::uint64_t line_no) noexcept {
    end_offset_ = offset;
    end_line_no_ = line_no;
    view_owned();
  }
  [[nodiscard]] std::uint64_t end_offset() const noexcept { return end_offset_; }
  [[nodiscard]] std::uint64_t end_line_no() const noexcept { return end_line_no_; }

  /// Total adjacency entries in the batch.
  [[nodiscard]] std::size_t num_arcs() const noexcept {
    return static_cast<std::size_t>(offsets_view_[size_] - offsets_view_[0]);
  }

  /// Every buffered edge weight in one contiguous span (consumers use it to
  /// detect the all-unit-weights fast path in a single linear scan).
  [[nodiscard]] std::span<const EdgeWeight> all_edge_weights() const noexcept {
    return {edge_weights_view_ + offsets_view_[0], num_arcs()};
  }

  /// The i-th node as the streaming-model unit. Spans borrow the batch (or
  /// the graph it borrows) and stay valid until the next reset() or borrow().
  [[nodiscard]] StreamedNode node(std::size_t i) const {
    OMS_HEAVY_ASSERT(i < size());
    const EdgeIndex begin = offsets_view_[i];
    const auto degree = static_cast<std::size_t>(offsets_view_[i + 1] - begin);
    return StreamedNode{static_cast<NodeId>(first_id_ + i), weights_view_[i],
                        std::span<const NodeId>(neighbors_view_ + begin, degree),
                        std::span<const EdgeWeight>(edge_weights_view_ + begin, degree)};
  }

private:
  /// Aim the views at the owned storage (appends may have reallocated it).
  void view_owned() noexcept {
    size_ = weights_.size();
    offsets_view_ = offsets_.data();
    weights_view_ = weights_.data();
    neighbors_view_ = neighbors_.data();
    edge_weights_view_ = edge_weights_.data();
  }

  NodeId first_id_ = 0;
  std::uint64_t end_offset_ = 0;
  std::uint64_t end_line_no_ = 0;
  // What consumers read: the owned storage below or a borrowed graph range,
  // whose offsets are the graph's (they need not start at 0).
  std::size_t size_ = 0;
  const EdgeIndex* offsets_view_ = nullptr;
  const NodeWeight* weights_view_ = nullptr;
  const NodeId* neighbors_view_ = nullptr;
  const EdgeWeight* edge_weights_view_ = nullptr;
  // Owned storage, filled by a parser.
  std::vector<NodeWeight> weights_;
  std::vector<EdgeIndex> offsets_ = {0};
  std::vector<NodeId> neighbors_;
  std::vector<EdgeWeight> edge_weights_;
};

} // namespace oms
