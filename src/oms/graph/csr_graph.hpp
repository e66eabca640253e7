/// \file csr_graph.hpp
/// \brief Immutable undirected graph in compressed sparse row form.
///
/// This is the in-memory substrate every algorithm in the library consumes:
/// the streaming drivers iterate its adjacency arrays in node order (the
/// paper's "natural order" stream), the multilevel baselines contract it,
/// and the metrics evaluate partitions against it.
///
/// Invariants (checked by validate(), heavy parts under OMS_HEAVY_ASSERTS):
///  * no self-loops, no parallel edges;
///  * adjacency is symmetric: v in N(u)  <=>  u in N(v), with equal weights;
///  * each adjacency list is sorted by neighbor id;
///  * all node weights >= 0 and all edge weights > 0;
///  * unit edge weights are implicit: when every edge weight is 1 (the
///    common streaming input) the graph stores no per-arc weights, only one
///    shared run of max_degree() 1s that every incident_weights() row
///    points into. The constructor collapses an all-ones weight array, so a
///    graph has one representation whichever way it was built.
#pragma once

#include <span>
#include <vector>

#include "oms/types.hpp"
#include "oms/util/assert.hpp"

namespace oms {

/// Edge weights addressed by arc offset: the row of \p degree arcs starting
/// at offset b is base[(b & mask) ...]. mask ~0 means every arc stores its
/// own weight; mask 0 means all weights are 1 and base is a run of 1s at
/// least as long as the longest row. Branch-free either way.
struct EdgeWeightRows {
  const EdgeWeight* base = nullptr;
  EdgeIndex mask = 0;

  [[nodiscard]] bool unit() const noexcept { return mask == 0; }
  [[nodiscard]] std::span<const EdgeWeight> row(EdgeIndex begin,
                                                std::size_t degree) const noexcept {
    return {base + (begin & mask), degree};
  }
};

class CsrGraph {
public:
  CsrGraph() = default;

  /// Assemble from raw CSR arrays. Prefer GraphBuilder, which establishes the
  /// invariants; this constructor only spot-checks shapes. \p adjwgt holds
  /// one weight per arc, or nothing for unit edge weights; an all-ones array
  /// is collapsed to the unit representation.
  CsrGraph(std::vector<EdgeIndex> xadj, std::vector<NodeId> adjncy,
           std::vector<EdgeWeight> adjwgt, std::vector<NodeWeight> vwgt);

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(vwgt_.size());
  }

  /// Number of undirected edges (each stored twice internally).
  [[nodiscard]] EdgeIndex num_edges() const noexcept {
    return static_cast<EdgeIndex>(adjncy_.size() / 2);
  }

  /// Number of directed arcs (2 * num_edges()); the size of the CSR arrays.
  [[nodiscard]] EdgeIndex num_arcs() const noexcept {
    return static_cast<EdgeIndex>(adjncy_.size());
  }

  [[nodiscard]] EdgeIndex degree(NodeId u) const noexcept {
    OMS_HEAVY_ASSERT(u < num_nodes());
    return xadj_[u + 1] - xadj_[u];
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    OMS_HEAVY_ASSERT(u < num_nodes());
    return {adjncy_.data() + xadj_[u], static_cast<std::size_t>(degree(u))};
  }

  [[nodiscard]] std::span<const EdgeWeight> incident_weights(NodeId u) const noexcept {
    OMS_HEAVY_ASSERT(u < num_nodes());
    return edge_weight_rows().row(xadj_[u], static_cast<std::size_t>(degree(u)));
  }

  [[nodiscard]] NodeWeight node_weight(NodeId u) const noexcept {
    OMS_HEAVY_ASSERT(u < num_nodes());
    return vwgt_[u];
  }

  [[nodiscard]] NodeWeight total_node_weight() const noexcept {
    return total_node_weight_;
  }

  /// Sum of weights over undirected edges.
  [[nodiscard]] EdgeWeight total_edge_weight() const noexcept {
    return total_edge_weight_;
  }

  [[nodiscard]] EdgeIndex max_degree() const noexcept { return max_degree_; }

  /// Raw arrays, for I/O and contraction kernels.
  [[nodiscard]] std::span<const EdgeIndex> raw_xadj() const noexcept { return xadj_; }
  [[nodiscard]] std::span<const NodeId> raw_adjncy() const noexcept { return adjncy_; }
  [[nodiscard]] std::span<const NodeWeight> raw_vwgt() const noexcept { return vwgt_; }

  /// Edge weights by arc offset (what a NodeBatch borrowing this graph reads).
  [[nodiscard]] EdgeWeightRows edge_weight_rows() const noexcept {
    return {adjwgt_.data(), weight_mask_};
  }

  /// True if every edge weight is 1 (then no per-arc weights are stored).
  [[nodiscard]] bool has_unit_edge_weights() const noexcept { return weight_mask_ == 0; }

  /// True if every node weight is 1 and every edge weight is 1.
  [[nodiscard]] bool is_unit_weighted() const noexcept;

  /// Full invariant scan (O(n + m log d)); aborts with a diagnostic on
  /// violation. Used by tests and by GraphBuilder in heavy-assert builds.
  void validate() const;

  /// Approximate heap footprint in bytes (for the memory experiment).
  [[nodiscard]] std::uint64_t memory_footprint_bytes() const noexcept;

private:
  std::vector<EdgeIndex> xadj_;     // size n+1
  std::vector<NodeId> adjncy_;      // size 2m
  std::vector<EdgeWeight> adjwgt_;  // size 2m, or max_degree_ 1s when unit
  std::vector<NodeWeight> vwgt_;    // size n
  EdgeIndex weight_mask_ = 0;       // ~0 weighted, 0 unit (see EdgeWeightRows)
  NodeWeight total_node_weight_ = 0;
  EdgeWeight total_edge_weight_ = 0;
  EdgeIndex max_degree_ = 0;
};

} // namespace oms
