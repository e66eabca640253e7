#include "oms/partition/restream.hpp"

#include <gtest/gtest.h>

#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/one_pass_driver.hpp"

namespace oms {
namespace {

OnlineMultisection make_oms(const CsrGraph& g, const SystemHierarchy& topo) {
  return OnlineMultisection(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                            OmsConfig{});
}

TEST(Remapping, TracksOneCutPerPass) {
  const CsrGraph g = gen::random_geometric(1500, 3);
  OnlineMultisection oms = make_oms(g, SystemHierarchy::parse("4:4", "1:10"));
  const RestreamResult r = restream(g, oms, 4);
  EXPECT_EQ(r.cut_per_pass.size(), 4u);
  verify_partition(g, r.assignment, 16);
  EXPECT_EQ(edge_cut(g, r.assignment), r.cut_per_pass.back());
}

TEST(Remapping, ImprovesCutOnLocalityFriendlyGraphs) {
  const CsrGraph g = gen::grid_2d(40, 40);
  OnlineMultisection oms = make_oms(g, SystemHierarchy::parse("4:4", "1:10"));
  const RestreamResult r = restream(g, oms, 5);
  EXPECT_LT(r.cut_per_pass.back(), r.cut_per_pass.front());
}

TEST(Remapping, ImprovesMappingObjective) {
  const CsrGraph g = gen::random_geometric(3000, 11);
  const SystemHierarchy topo = SystemHierarchy::parse("4:4:2", "1:10:100");
  OnlineMultisection one_pass = make_oms(g, topo);
  OnlineMultisection restreamed = make_oms(g, topo);
  EXPECT_LT(mapping_cost(g, topo, restream(g, restreamed, 4).assignment),
            mapping_cost(g, topo, restream(g, one_pass, 1).assignment));
}

TEST(Remapping, StaysBalancedAcrossPasses) {
  const CsrGraph g = gen::barabasi_albert(2500, 4, 7);
  const SystemHierarchy topo = SystemHierarchy::parse("4:16:1", "1:10:100");
  OnlineMultisection oms = make_oms(g, topo);
  const RestreamResult r = restream(g, oms, 3);
  EXPECT_TRUE(is_balanced(g, r.assignment, topo.num_pes(), OmsConfig{}.epsilon));
}

TEST(Remapping, OnePassEqualsPlainStreaming) {
  const CsrGraph g = gen::rmat(10, 4, 5);
  const BlockId k = 24;
  OnlineMultisection via_restream(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                                  k, OmsConfig{});
  OnlineMultisection plain(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                           OmsConfig{});
  EXPECT_EQ(restream(g, via_restream, 1).assignment,
            run_one_pass(g, plain, 1).assignment);
}

TEST(Remapping, TreeWeightsStayConsistent) {
  // After any number of unassign/assign cycles, the weight of the top layer
  // must equal the total node weight exactly.
  const CsrGraph g = gen::random_geometric(1200, 17);
  OnlineMultisection oms = make_oms(g, SystemHierarchy::parse("2:2:2", "1:2:4"));
  (void)restream(g, oms, 3);
  NodeWeight top = 0;
  for (std::int32_t c = 0; c < oms.tree().root().num_children; ++c) {
    top += oms.tree_block_weight(
        static_cast<std::size_t>(oms.tree().root().first_child + c));
  }
  EXPECT_EQ(top, g.total_node_weight());
}

} // namespace
} // namespace oms
