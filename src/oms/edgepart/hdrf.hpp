/// \file hdrf.hpp
/// \brief HDRF — High-Degree Replicated First (Petroni et al., CIKM'15) —
///        the reference one-pass vertex-cut heuristic.
///
/// For each edge (u, v) every block b is scored
///   C(b) = g(u, b) + g(v, b) + lambda * bal(b)
/// where g(x, b) = 1 + (1 - d(x) / (d(u) + d(v))) if x already has a replica
/// on b and 0 otherwise (d = *partial* degree, so the lower-degree endpoint
/// contributes the larger reward — high-degree vertices get replicated
/// first, keeping low-degree vertices intact), and
/// bal(b) = (max_load - load(b)) / (1 + max_load - min_load).
/// Ties break to the lowest block id, so a run is fully deterministic.
///
/// Cost: O(k/64 + |R(u) | R(v)| + log k) per edge, exact. A MinLoadTree
/// gives min_load and the lightest block, max_load is a running max (loads
/// only grow), and only the replica blocks of u and v plus one stand-in for
/// all non-replica blocks are scored. The stand-in argument needs bal(b)
/// strictly decreasing in the load after rounding, which holds for lambda in
/// {0} or [2^-900, 2^40] and a load spread below 2^40; outside that range
/// the per-edge O(k) scan runs instead.
#pragma once

#include "oms/edgepart/edge_partitioner.hpp"
#include "oms/util/min_load_tree.hpp"

namespace oms {

class HdrfPartitioner final : public StreamingEdgePartitioner {
public:
  explicit HdrfPartitioner(const EdgePartConfig& config);

protected:
  [[nodiscard]] BlockId choose_block(const StreamedEdge& edge) override;
  void on_placed(const StreamedEdge& edge, BlockId block) override;

private:
  PartialDegrees degrees_;
  bool exact_lambda_; ///< lambda admits the sparse selection (see above)
  MinLoadTree tree_;  ///< min-(load, index) block over edge_loads()
  EdgeWeight max_load_ = 0;
};

} // namespace oms
