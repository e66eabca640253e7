#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "oms/benchlib/algorithms.hpp"
#include "oms/benchlib/instances.hpp"
#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/hashing.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/one_pass_driver.hpp"

namespace oms::bench {
namespace {

TEST(InstanceRegistry, SuiteCoversAllPaperFamilies) {
  const auto suite = benchmark_suite(Scale::kSmall);
  std::set<std::string> families;
  for (const auto& instance : suite) {
    families.insert(instance.family);
  }
  // Table 1's type column: meshes, circuits, citations, web, social, roads,
  // artificial (+ misc).
  for (const char* family :
       {"Meshes", "Circuit", "Citations", "Web", "Social", "Roads", "Artificial"}) {
    EXPECT_TRUE(families.contains(family)) << family;
  }
}

TEST(InstanceRegistry, AllInstancesBuildValidGraphs) {
  for (const auto& instance : benchmark_suite(Scale::kSmall)) {
    const CsrGraph graph = instance.make();
    EXPECT_GT(graph.num_nodes(), 0u) << instance.name;
    EXPECT_GT(graph.num_edges(), 0u) << instance.name;
    graph.validate();
  }
}

TEST(InstanceRegistry, InstancesAreDeterministic) {
  const auto suite = benchmark_suite(Scale::kSmall);
  const CsrGraph a = suite.front().make();
  const CsrGraph b = suite.front().make();
  EXPECT_EQ(a.num_edges(), b.num_edges());
}

TEST(InstanceRegistry, MediumScaleIsLarger) {
  const CsrGraph small = instance_by_name(Scale::kSmall, "social-ba").make();
  const CsrGraph medium = instance_by_name(Scale::kMedium, "social-ba").make();
  EXPECT_GT(medium.num_nodes(), 2 * small.num_nodes());
}

TEST(InstanceRegistry, ScalabilitySuiteIsSubsetOfSuite) {
  const auto scalability = scalability_suite(Scale::kSmall);
  ASSERT_EQ(scalability.size(), 3u); // social / mesh / web, like the paper
  std::set<std::string> names;
  for (const auto& instance : benchmark_suite(Scale::kSmall)) {
    names.insert(instance.name);
  }
  for (const auto& instance : scalability) {
    EXPECT_TRUE(names.contains(instance.name));
  }
}

TEST(AlgorithmRunner, EveryAlgorithmProducesValidBalancedResults) {
  const CsrGraph graph = gen::random_geometric(1500, 3);
  RunOptions options;
  options.repetitions = 1;
  options.topology = paper_topology(1); // k = 64
  for (const Algo algo : {Algo::kHashing, Algo::kLdg, Algo::kFennel, Algo::kOms,
                          Algo::kNhOms, Algo::kKaMinParLite, Algo::kIntMapLite}) {
    const RunMetrics metrics = run_algorithm(algo, graph, options);
    EXPECT_TRUE(metrics.balanced) << algo_name(algo);
    EXPECT_GT(metrics.mapping_cost, 0.0) << algo_name(algo);
    EXPECT_GE(metrics.time_s, 0.0) << algo_name(algo);
  }
}

TEST(AlgorithmRunner, RepetitionsAverageDeterministically) {
  const CsrGraph graph = gen::barabasi_albert(800, 3, 5);
  RunOptions options;
  options.repetitions = 3;
  options.k_override = 16;
  const RunMetrics a = run_algorithm(Algo::kFennel, graph, options);
  const RunMetrics b = run_algorithm(Algo::kFennel, graph, options);
  EXPECT_DOUBLE_EQ(a.edge_cut, b.edge_cut); // objectives are seed-deterministic
}

TEST(AlgorithmRunner, MappingCostOnlyWithTopology) {
  const CsrGraph graph = gen::grid_2d(20, 20);
  RunOptions options;
  options.repetitions = 1;
  options.k_override = 8;
  const RunMetrics metrics = run_algorithm(Algo::kNhOms, graph, options);
  EXPECT_EQ(metrics.mapping_cost, 0.0);
  EXPECT_GT(metrics.edge_cut, 0.0);
}

TEST(AlgorithmRunner, QualityEqualsThePostPassOfTheSamePass) {
  // run_algorithm takes the cut and J that a one-consumer pass counted while
  // assigning and evaluates the rest; either way they must equal
  // edge_cut/mapping_cost over the assignment that a run_one_pass with the
  // same seed produces. Hashing's wide epsilon keeps every hashed block
  // below capacity, so its decisions do not depend on thread timing.
  const CsrGraph graph = gen::barabasi_albert(3000, 5, 11);
  RunOptions options;
  options.repetitions = 1;
  options.seed = 7;
  options.topology = paper_topology(1); // k = 64
  const SystemHierarchy& topo = *options.topology;
  const auto make = [&](Algo algo) -> std::unique_ptr<OnePassAssigner> {
    PartitionConfig pc;
    pc.k = topo.num_pes();
    pc.epsilon = options.epsilon;
    pc.seed = options.seed;
    OmsConfig oc;
    oc.epsilon = options.epsilon;
    oc.seed = options.seed;
    oc.quality_layers = options.quality_layers;
    switch (algo) {
      case Algo::kHashing:
        return std::make_unique<HashingPartitioner>(graph.num_nodes(),
                                                    graph.total_node_weight(), pc);
      case Algo::kLdg:
        return std::make_unique<LdgPartitioner>(graph.num_nodes(),
                                                graph.total_node_weight(), pc);
      case Algo::kFennel:
        return std::make_unique<FennelPartitioner>(graph.num_nodes(), graph.num_edges(),
                                                   graph.total_node_weight(), pc);
      default:
        return std::make_unique<OnlineMultisection>(graph.num_nodes(), graph.num_edges(),
                                                    graph.total_node_weight(), topo, oc);
    }
  };
  for (const Algo algo : {Algo::kHashing, Algo::kLdg, Algo::kFennel, Algo::kOms}) {
    options.epsilon = algo == Algo::kHashing ? 1.0 : 0.03;
    for (const int threads : {1, 2}) {
      SCOPED_TRACE(std::string(algo_name(algo)) + " threads=" + std::to_string(threads));
      options.threads = threads;
      const RunMetrics metrics = run_algorithm(algo, graph, options);
      const std::unique_ptr<OnePassAssigner> assigner = make(algo);
      const StreamResult r = run_one_pass(graph, *assigner, threads);
      if (threads > 1) {
        // Two consumers race, so the counts are not exact and the pass must
        // not report them: run_algorithm evaluates its own assignment, which
        // no second run reproduces.
        EXPECT_FALSE(r.edge_cut.has_value());
        EXPECT_FALSE(r.mapping_j.has_value());
        if (algo != Algo::kHashing) {
          // J over ordered pairs of one assignment lies in [2, 200] x its cut.
          EXPECT_GE(metrics.mapping_cost, 2 * metrics.edge_cut);
          EXPECT_LE(metrics.mapping_cost, 200 * metrics.edge_cut);
          continue;
        }
      }
      EXPECT_EQ(metrics.edge_cut, static_cast<double>(edge_cut(graph, r.assignment)));
      EXPECT_EQ(metrics.mapping_cost,
                static_cast<double>(mapping_cost(graph, topo, r.assignment)));
    }
  }
}

TEST(AlgorithmRunner, AlgoNamesAreUnique) {
  std::set<std::string> names;
  for (const Algo algo : {Algo::kHashing, Algo::kLdg, Algo::kFennel, Algo::kOms,
                          Algo::kNhOms, Algo::kKaMinParLite, Algo::kIntMapLite}) {
    EXPECT_TRUE(names.insert(algo_name(algo)).second);
  }
}

TEST(PaperTopology, MatchesConfiguration) {
  for (const std::int64_t r : {1LL, 2LL, 64LL, 128LL}) {
    const SystemHierarchy topo = paper_topology(r);
    EXPECT_EQ(topo.num_pes(), 64 * r);
    EXPECT_EQ(topo.num_levels(), 3u);
    EXPECT_EQ(topo.distances()[0], 1);
    EXPECT_EQ(topo.distances()[2], 100);
  }
}

} // namespace
} // namespace oms::bench
