/// Integration tests: whole pipelines across modules, mirroring how the
/// paper's experiments actually run (graph -> stream -> algorithm -> metrics).
#include <gtest/gtest.h>

#include <cstdio>

#include "oms/benchlib/algorithms.hpp"
#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/pipeline.hpp"

namespace oms {
namespace {

TEST(EndToEnd, DiskStreamingMatchesInMemoryForOms) {
  const CsrGraph g = gen::random_geometric(2000, 3);
  const std::string path = ::testing::TempDir() + "/oms_e2e.graph";
  write_metis(g, path);

  const SystemHierarchy topo = SystemHierarchy::parse("4:4", "1:10");
  OmsConfig config;

  OnlineMultisection mem(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                         config);
  const StreamResult in_memory = run_one_pass(g, mem, 1);

  MetisNodeStream stream(path);
  OnlineMultisection disk(stream.header().num_nodes, stream.header().num_edges,
                          static_cast<NodeWeight>(stream.header().num_nodes), topo,
                          config);
  PipelineConfig sequential;
  sequential.ring_batches = 0; // no reader thread
  const StreamResult from_disk = run_stream(stream, disk, sequential);

  EXPECT_EQ(in_memory.assignment, from_disk.assignment);
  std::remove(path.c_str());
}

TEST(EndToEnd, OmsMappingBeatsHierarchyObliviousFennel) {
  // The paper's headline mapping result (Fig. 2a): on hierarchy-friendly
  // inputs OMS produces better J than Fennel with identity block->PE mapping.
  const CsrGraph g = gen::random_geometric(8000, 71);
  const SystemHierarchy topo = bench::paper_topology(2); // k = 128

  bench::RunOptions options;
  options.repetitions = 2;
  options.topology = topo;
  const auto oms = bench::run_algorithm(bench::Algo::kOms, g, options);
  const auto fennel = bench::run_algorithm(bench::Algo::kFennel, g, options);
  const auto hashing = bench::run_algorithm(bench::Algo::kHashing, g, options);

  EXPECT_LT(oms.mapping_cost, fennel.mapping_cost);
  EXPECT_LT(fennel.mapping_cost, hashing.mapping_cost);
  EXPECT_TRUE(oms.balanced);
}

TEST(EndToEnd, NhOmsCutCompetitiveWithFennelAndFarBetterThanHashing) {
  // Fig. 2b shape: nh-OMS cuts slightly more than Fennel (paper: ~5% on
  // average) and far less than Hashing.
  const CsrGraph g = gen::grid_2d(80, 80);
  bench::RunOptions options;
  options.repetitions = 2;
  options.k_override = 64;
  const auto nh_oms = bench::run_algorithm(bench::Algo::kNhOms, g, options);
  const auto fennel = bench::run_algorithm(bench::Algo::kFennel, g, options);
  const auto hashing = bench::run_algorithm(bench::Algo::kHashing, g, options);

  EXPECT_LT(nh_oms.edge_cut, hashing.edge_cut / 2);
  EXPECT_LT(nh_oms.edge_cut, fennel.edge_cut * 2.0); // generous envelope
}

TEST(EndToEnd, KaMinParLiteDominatesStreamingQuality) {
  const CsrGraph g = gen::random_geometric(4000, 15);
  bench::RunOptions options;
  options.repetitions = 1;
  options.k_override = 32;
  const auto ml = bench::run_algorithm(bench::Algo::kKaMinParLite, g, options);
  const auto fennel = bench::run_algorithm(bench::Algo::kFennel, g, options);
  EXPECT_LT(ml.edge_cut, fennel.edge_cut);
  EXPECT_TRUE(ml.balanced);
}

TEST(EndToEnd, IntMapLiteBestMappingQuality) {
  const CsrGraph g = gen::random_geometric(3000, 19);
  bench::RunOptions options;
  options.repetitions = 1;
  options.topology = SystemHierarchy::parse("4:4:2", "1:10:100");
  const auto intmap = bench::run_algorithm(bench::Algo::kIntMapLite, g, options);
  const auto oms = bench::run_algorithm(bench::Algo::kOms, g, options);
  EXPECT_LT(intmap.mapping_cost, oms.mapping_cost);
  EXPECT_TRUE(intmap.balanced);
}

TEST(EndToEnd, WorkCounterShapesMatchComplexityClaims) {
  // Theorem 2 vs the flat O(m + nk): as k grows with fixed n and m, Fennel's
  // score evaluations grow linearly in k while OMS's grow ~ logarithmically.
  const CsrGraph g = gen::barabasi_albert(4000, 4, 9);
  bench::RunOptions options;
  options.repetitions = 1;

  std::uint64_t fennel_prev = 0;
  std::uint64_t oms_prev = 0;
  for (const BlockId k : {64, 256, 1024}) {
    options.k_override = k;
    const auto fennel = bench::run_algorithm(bench::Algo::kFennel, g, options);
    const auto nh_oms = bench::run_algorithm(bench::Algo::kNhOms, g, options);
    if (fennel_prev > 0) {
      // Fennel quadruples with k; OMS adds one more tree layer (b=4).
      EXPECT_NEAR(static_cast<double>(fennel.work.score_evaluations) /
                      static_cast<double>(fennel_prev),
                  4.0, 0.2);
      EXPECT_LT(static_cast<double>(nh_oms.work.score_evaluations) /
                    static_cast<double>(oms_prev),
                1.8);
    }
    fennel_prev = fennel.work.score_evaluations;
    oms_prev = nh_oms.work.score_evaluations;
  }
}

TEST(EndToEnd, StreamingStateIsTinyComparedToInMemory) {
  // Section 4.1's memory story: streaming state ~ O(n + k), internal-memory
  // algorithms hold whole graph copies.
  const CsrGraph g = gen::barabasi_albert(20000, 8, 5);
  bench::RunOptions options;
  options.repetitions = 1;
  options.k_override = 64;
  const auto nh_oms = bench::run_algorithm(bench::Algo::kNhOms, g, options);
  const auto ml = bench::run_algorithm(bench::Algo::kKaMinParLite, g, options);
  EXPECT_LT(nh_oms.state_bytes * 4, ml.state_bytes);
}

TEST(EndToEnd, PaperTopologyConvention) {
  const SystemHierarchy topo = bench::paper_topology(3);
  EXPECT_EQ(topo.num_pes(), 192); // 64 * 3
  EXPECT_EQ(topo.distance(0, 1), 1);
  EXPECT_EQ(topo.distance(0, 4), 10);
  EXPECT_EQ(topo.distance(0, 64), 100);
}

} // namespace
} // namespace oms
