/// \file node_batch.hpp
/// \brief A contiguous run of parsed stream nodes, stored flat so one batch
///        is one allocation set that the pipeline recycles forever.
///
/// The disk reader hands these across the producer/consumer boundary (or,
/// on the sequential route, straight to the consumer) instead of single
/// StreamedNodes: batching amortizes the queue
/// synchronization over thousands of nodes and keeps the adjacency data of a
/// work unit cache-resident for the assigning thread. Node ids inside a
/// batch are consecutive (stream order), so only the first id is stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "oms/stream/streamed_node.hpp"
#include "oms/types.hpp"
#include "oms/util/assert.hpp"

namespace oms {

class NodeBatch {
public:
  /// Reset to empty, keeping capacity. \p first_id is the stream id of the
  /// first node that will be appended.
  void reset(NodeId first_id) {
    first_id_ = first_id;
    weights_.clear();
    offsets_.assign(1, 0);
    neighbors_.clear();
    edge_weights_.clear();
  }

  /// The parser appends one node's adjacency directly into these sinks (no
  /// intermediate copy), then seals the slot with commit_node().
  std::vector<NodeId>& neighbor_sink() noexcept { return neighbors_; }
  std::vector<EdgeWeight>& edge_weight_sink() noexcept { return edge_weights_; }
  void commit_node(NodeWeight weight) {
    weights_.push_back(weight);
    offsets_.push_back(neighbors_.size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }
  [[nodiscard]] bool empty() const noexcept { return weights_.empty(); }
  [[nodiscard]] NodeId first_id() const noexcept { return first_id_; }

  /// Input position just past the batch's last node (byte offset and line
  /// number), recorded by the reader: a checkpoint taken after this batch
  /// resumes the stream here.
  void set_end(std::uint64_t offset, std::uint64_t line_no) noexcept {
    end_offset_ = offset;
    end_line_no_ = line_no;
  }
  [[nodiscard]] std::uint64_t end_offset() const noexcept { return end_offset_; }
  [[nodiscard]] std::uint64_t end_line_no() const noexcept { return end_line_no_; }

  /// Total adjacency entries buffered (used by the reader to bound batch
  /// growth by arcs, not just node count, so hub nodes don't balloon memory).
  [[nodiscard]] std::size_t num_arcs() const noexcept { return neighbors_.size(); }

  /// Every buffered edge weight in one contiguous span (consumers use it to
  /// detect the all-unit-weights fast path in a single linear scan).
  [[nodiscard]] std::span<const EdgeWeight> all_edge_weights() const noexcept {
    return edge_weights_;
  }

  /// The i-th node as the streaming-model unit. Spans borrow the batch and
  /// stay valid until the next reset().
  [[nodiscard]] StreamedNode node(std::size_t i) const {
    OMS_HEAVY_ASSERT(i < size());
    const std::size_t begin = offsets_[i];
    const std::size_t end = offsets_[i + 1];
    return StreamedNode{
        static_cast<NodeId>(first_id_ + i), weights_[i],
        std::span<const NodeId>(neighbors_.data() + begin, end - begin),
        std::span<const EdgeWeight>(edge_weights_.data() + begin, end - begin)};
  }

private:
  NodeId first_id_ = 0;
  std::uint64_t end_offset_ = 0;
  std::uint64_t end_line_no_ = 0;
  std::vector<NodeWeight> weights_;
  std::vector<std::size_t> offsets_ = {0};
  std::vector<NodeId> neighbors_;
  std::vector<EdgeWeight> edge_weights_;
};

} // namespace oms
