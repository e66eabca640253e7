/// \file restream.hpp
/// \brief Restreaming (Nishimura & Ugander): run the one-pass scoring several
///        times over the input; from the second pass on a node is first
///        removed from its current block and then re-placed, so it sees the
///        *complete* placement of its neighbors instead of only the
///        already-streamed prefix.
///
/// One loop serves ReFennel, ReLDG and the remapping extension the paper
/// sketches for the online multi-section (Section 3.2: "it is possible to
/// iteratively improve a process mapping solution through multiple passes
/// ... coupling our algorithm with restreaming algorithms such as
/// ReFennel"): any assigner with unassign(NodeId, NodeWeight) —
/// OnlineMultisection, FennelPartitioner, LdgPartitioner — restreams here.
#pragma once

#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/streamed_node.hpp"
#include "oms/types.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/timer.hpp"
#include "oms/util/work_counters.hpp"

namespace oms {

/// Result of a restreaming run: per-pass objective trace plus the final
/// assignment (taken from the assigner).
struct RestreamResult {
  std::vector<BlockId> assignment;
  /// Edge-cut after each pass (a mapping cost is the caller's to evaluate
  /// against its topology; the cut trace is topology-independent).
  std::vector<Cost> cut_per_pass;
  double elapsed_s = 0.0;
};

/// Run \p passes streaming passes of a freshly constructed \p assigner over
/// \p graph (sequential; restreaming is defined on a fixed stream order) and
/// record the edge-cut after every pass. The result stays balanced because
/// every re-placement goes through the same capacity checks as the first
/// pass.
template <typename Assigner>
[[nodiscard]] RestreamResult restream(const CsrGraph& graph, Assigner& assigner,
                                      int passes) {
  OMS_ASSERT(passes >= 1);
  assigner.prepare(1);

  RestreamResult result;
  Timer timer;
  WorkCounters counters;
  std::vector<BlockId> snapshot(graph.num_nodes());
  for (int pass = 0; pass < passes; ++pass) {
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      if (pass > 0) {
        assigner.unassign(u, graph.node_weight(u));
      }
      const StreamedNode node{u, graph.node_weight(u), graph.neighbors(u),
                              graph.incident_weights(u)};
      assigner.assign(node, 0, counters);
    }
    // Objective trace: read the live assignment without consuming it.
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      snapshot[u] = assigner.block_of(u);
    }
    result.cut_per_pass.push_back(edge_cut(graph, snapshot));
  }
  result.elapsed_s = timer.elapsed_s();
  result.assignment = assigner.take_assignment();
  return result;
}

} // namespace oms
