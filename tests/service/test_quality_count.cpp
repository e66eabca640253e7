/// \file test_quality_count.cpp
/// \brief Assign-time quality is exact: the edge cut and mapping cost J that
///        Fennel, LDG, nh-OMS and OMS count while placing nodes equal
///        edge_cut / mapping_cost of the final assignment on every route
///        that reports them, and every route that cannot vouch for them
///        reports -1 (concurrent consumers, a resume, a skipped line).
///
/// Seeded over the generator families (OMS_TEST_SEED); weighted edges, and
/// on the assigner level also zero and negative weights, which CsrGraph
/// refuses but a stream may carry.
#include "oms/oms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/graph/io.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

constexpr int kFamilies = 9;

[[nodiscard]] CsrGraph family_instance(int family) {
  const std::uint64_t seed = testing::draw_seed(static_cast<std::uint64_t>(family));
  switch (family) {
    case 0: return gen::grid_2d(17, 23);
    case 1: return gen::grid_3d(6, 7, 8);
    case 2: return gen::random_geometric(900, seed);
    case 3: return gen::delaunay(700, seed);
    case 4: return gen::barabasi_albert(800, 3, seed);
    case 5: return gen::rmat(9, 4, seed);
    case 6: return gen::erdos_renyi(600, 2000, seed);
    case 7: return gen::watts_strogatz(500, 4, 0.15, seed);
    default: return gen::road_network(25, 25, seed);
  }
}

/// The weight of edge {u, v}: a symmetric draw from [lo, hi].
[[nodiscard]] EdgeWeight edge_weight_of(NodeId u, NodeId v, std::uint64_t seed,
                                        EdgeWeight lo, EdgeWeight hi) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
  return lo + static_cast<EdgeWeight>(hash_combine(seed, key) %
                                      static_cast<std::uint64_t>(hi - lo + 1));
}

/// \p graph with its edge weights redrawn from [1, 9] (unit node weights,
/// so the disk routes take it too).
[[nodiscard]] CsrGraph reweighted(const CsrGraph& graph, std::uint64_t seed) {
  GraphBuilder builder(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const NodeId v : graph.neighbors(u)) {
      if (u < v) {
        builder.add_edge(u, v, edge_weight_of(u, v, seed, 1, 9));
      }
    }
  }
  return std::move(builder).build();
}

class TempGraphFile {
public:
  TempGraphFile(const CsrGraph& graph, const std::string& tag)
      : path_(::testing::TempDir() + "/oms_quality_" + tag + ".graph") {
    write_metis(graph, path_);
  }
  TempGraphFile(const std::string& contents, const std::string& tag)
      : path_(::testing::TempDir() + "/oms_quality_" + tag + ".graph") {
    std::ofstream(path_) << contents;
  }
  ~TempGraphFile() { std::remove(path_.c_str()); }
  TempGraphFile(const TempGraphFile&) = delete;
  TempGraphFile& operator=(const TempGraphFile&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

/// One facade configuration of the suite.
struct Case {
  const char* name;
  const char* algo;
  BlockId k;
  const char* hierarchy; ///< nullptr: plain k-way
  bool counts_cost;      ///< the consumer counts J (OMS with a hierarchy)
};

constexpr Case kCases[] = {
    {"fennel", "fennel", 64, nullptr, false},
    {"ldg", "ldg", 64, nullptr, false},
    {"nh-oms", "oms", 37, nullptr, false},
    {"oms-4:16:4", "oms", 0, "4:16:4", true},
    {"oms-4:16:1", "oms", 0, "4:16:1", true},
    {"fennel-4:16:4", "fennel", 0, "4:16:4", false},
};

[[nodiscard]] PartitionRequest request_for(const Case& c) {
  PartitionRequest req;
  req.algo = c.algo;
  req.k = c.k;
  if (c.hierarchy != nullptr) {
    req.hierarchy = c.hierarchy;
    req.distances = "1:10:100";
  }
  return req;
}

/// The post-pass values of \p artifact on \p graph.
struct Exact {
  Cost cut;
  std::optional<Cost> cost;
};
[[nodiscard]] Exact evaluate(const CsrGraph& graph, const PartitionArtifact& artifact) {
  Exact exact{edge_cut(graph, artifact.assignment), std::nullopt};
  if (artifact.hierarchy.has_value()) {
    exact.cost = mapping_cost(graph, *artifact.hierarchy, artifact.assignment);
  }
  return exact;
}

/// \p artifact carries the exact cut, and J exactly when \p with_cost.
void expect_exact(const CsrGraph& graph, const PartitionArtifact& artifact,
                  bool with_cost) {
  const Exact exact = evaluate(graph, artifact);
  EXPECT_EQ(artifact.metrics.edge_cut, static_cast<double>(exact.cut));
  if (exact.cost.has_value()) {
    EXPECT_EQ(artifact.metrics.mapping_j,
              with_cost ? static_cast<double>(*exact.cost) : -1.0);
  }
}

class AssignTimeQuality : public ::testing::TestWithParam<int> {};

/// In memory, on one thread, the count replaces the post-pass; the
/// StreamResult of the same pass holds it. Two threads fall back to the
/// post-pass and still report the exact values.
TEST_P(AssignTimeQuality, InMemoryEqualsThePostPass) {
  SCOPED_TRACE("OMS_TEST_SEED=" + std::to_string(testing::test_seed()));
  const CsrGraph graph = reweighted(family_instance(GetParam()), testing::test_seed());
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    PartitionRequest req = request_for(c);
    for (const int threads : {1, 2}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      req.threads = threads;
      const PartitionArtifact artifact = Partitioner().partition(graph, req);
      expect_exact(graph, artifact, /*with_cost=*/true);
    }
  }
}

/// From disk the loaded graph is never built: sequential and pipelined
/// one-consumer runs report the counts, and they equal the post-pass on the
/// graph the file holds. Flat algorithms count no J there.
TEST_P(AssignTimeQuality, DiskRoutesWithOneConsumerCount) {
  SCOPED_TRACE("OMS_TEST_SEED=" + std::to_string(testing::test_seed()));
  const CsrGraph graph = reweighted(family_instance(GetParam()), testing::test_seed());
  const TempGraphFile file(graph, "disk" + std::to_string(GetParam()));
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    PartitionRequest req = request_for(c);
    req.graph_path = file.path();
    req.from_disk = true;
    for (const bool pipeline : {false, true}) {
      SCOPED_TRACE(pipeline ? "pipelined" : "sequential");
      req.pipeline = pipeline;
      const PartitionArtifact artifact = Partitioner().partition(req);
      expect_exact(graph, artifact, c.counts_cost);
    }
  }
}

/// Several consumers may see each other's nodes unassigned, so a disk run
/// with --io-threads 2 reports neither number.
TEST_P(AssignTimeQuality, ConcurrentDiskRunsReportNone) {
  const CsrGraph graph = reweighted(family_instance(GetParam()), testing::test_seed());
  const TempGraphFile file(graph, "concurrent" + std::to_string(GetParam()));
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    PartitionRequest req = request_for(c);
    req.graph_path = file.path();
    req.pipeline = true;
    req.io_threads = 2;
    const PartitionArtifact artifact = Partitioner().partition(req);
    EXPECT_EQ(artifact.metrics.edge_cut, -1.0);
    EXPECT_EQ(artifact.metrics.mapping_j, -1.0);
  }
}

/// quality_layers = 1 (hybrid: every layer below the root hashes) is not a
/// request field, so run the assigner through run_stream directly, in
/// memory and from disk.
TEST_P(AssignTimeQuality, HybridOmsChargesTheSurvivors) {
  SCOPED_TRACE("OMS_TEST_SEED=" + std::to_string(testing::test_seed()));
  const CsrGraph graph = reweighted(family_instance(GetParam()), testing::test_seed());
  const TempGraphFile file(graph, "hybrid" + std::to_string(GetParam()));
  const SystemHierarchy topo = SystemHierarchy::parse("4:16:4", "1:10:100");
  for (const int layers : {1, 2}) {
    SCOPED_TRACE("quality_layers " + std::to_string(layers));
    OmsConfig config;
    config.quality_layers = layers;
    for (const bool disk : {false, true}) {
      OnlineMultisection oms(graph.num_nodes(), graph.num_edges(),
                             graph.total_node_weight(), topo, config);
      StreamResult result;
      if (disk) {
        MetisNodeStream source(file.path());
        PipelineConfig policy;
        policy.ring_batches = 0;
        result = run_stream(source, oms, policy);
      } else {
        result = run_stream(graph, oms, in_memory_policy(graph, 1));
      }
      ASSERT_TRUE(result.edge_cut.has_value());
      ASSERT_TRUE(result.mapping_j.has_value());
      EXPECT_EQ(*result.edge_cut, edge_cut(graph, result.assignment));
      EXPECT_EQ(*result.mapping_j, mapping_cost(graph, topo, result.assignment));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, AssignTimeQuality, ::testing::Range(0, kFamilies));

/// The cut and the ordered-pair J of \p assignment under per-arc weights
/// \p weights (parallel to graph's adjacency), whatever their sign.
[[nodiscard]] std::pair<Cost, Cost> reference_quality(
    const CsrGraph& graph, const std::vector<EdgeWeight>& weights,
    const std::vector<BlockId>& assignment, const SystemHierarchy* topo) {
  Cost doubled_cut = 0;
  Cost cost = 0;
  EdgeIndex arc = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const NodeId v : graph.neighbors(u)) {
      const EdgeWeight w = weights[arc++];
      if (assignment[u] != assignment[v]) {
        doubled_cut += w;
      }
      if (topo != nullptr) {
        cost += w * topo->distance(assignment[u], assignment[v]);
      }
    }
  }
  return {doubled_cut / 2, cost};
}

/// Zero and negative edge weights: feed the assigners node by node with
/// weights from [-2, 5]. Each edge must be counted exactly once, so the
/// counters equal the reference sums over the final assignment.
TEST(AssignTimeQualityWeights, ZeroAndNegativeWeightsCountExactly) {
  SCOPED_TRACE("OMS_TEST_SEED=" + std::to_string(testing::test_seed()));
  const SystemHierarchy topo = SystemHierarchy::parse("4:16:4", "1:10:100");
  const SystemHierarchy trailing = SystemHierarchy::parse("4:16:1", "1:10:100");
  for (int family = 0; family < kFamilies; ++family) {
    SCOPED_TRACE("family " + std::to_string(family));
    const CsrGraph graph = family_instance(family);
    std::vector<EdgeWeight> weights;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      for (const NodeId v : graph.neighbors(u)) {
        weights.push_back(edge_weight_of(u, v, testing::draw_seed(family), -2, 5));
      }
    }
    PartitionConfig pc;
    pc.k = 64;
    OmsConfig hybrid;
    hybrid.quality_layers = 1;
    struct Assigner {
      const char* name;
      std::unique_ptr<OnePassAssigner> assigner;
      const SystemHierarchy* topo;
    };
    const NodeId n = graph.num_nodes();
    const EdgeIndex m = graph.num_edges();
    const NodeWeight total = graph.total_node_weight();
    Assigner assigners[] = {
        {"fennel", std::make_unique<FennelPartitioner>(n, m, total, pc), nullptr},
        {"ldg", std::make_unique<LdgPartitioner>(n, total, pc), nullptr},
        {"nh-oms", std::make_unique<OnlineMultisection>(n, m, total, 37, OmsConfig{}),
         nullptr},
        {"oms-4:16:4", std::make_unique<OnlineMultisection>(n, m, total, topo, OmsConfig{}),
         &topo},
        {"oms-4:16:1",
         std::make_unique<OnlineMultisection>(n, m, total, trailing, OmsConfig{}),
         &trailing},
        {"oms-hybrid", std::make_unique<OnlineMultisection>(n, m, total, topo, hybrid),
         &topo},
    };
    for (Assigner& a : assigners) {
      SCOPED_TRACE(a.name);
      a.assigner->prepare(1);
      WorkCounters counters;
      EdgeIndex arc = 0;
      for (NodeId u = 0; u < n; ++u) {
        const auto degree = static_cast<EdgeIndex>(graph.degree(u));
        const StreamedNode node{u, graph.node_weight(u), graph.neighbors(u),
                                std::span<const EdgeWeight>(weights.data() + arc, degree)};
        (void)a.assigner->assign(node, 0, counters);
        arc += degree;
      }
      const std::vector<BlockId> assignment = a.assigner->take_assignment();
      const auto [cut, cost] = reference_quality(graph, weights, assignment, a.topo);
      EXPECT_EQ(counters.cut, cut);
      if (a.topo != nullptr) {
        EXPECT_EQ(2 * counters.mapping_j, cost);
      }
    }
  }
}

/// A resumed run never saw the edges behind its checkpoint, and a skipped
/// line drops its node's adjacency: both report -1.
TEST(AssignTimeQualityRoutes, ResumedAndSkippingRunsReportNone) {
  const CsrGraph graph = reweighted(family_instance(0), testing::test_seed());
  const TempGraphFile file(graph, "resume");
  const std::string checkpoint = ::testing::TempDir() + "/oms_quality_resume.ckpt";
  PartitionRequest req;
  req.graph_path = file.path();
  req.algo = "fennel";
  req.k = 8;
  req.checkpoint = checkpoint;
  req.checkpoint_every = 100; // n = 391: the last snapshot is at node 300
  const PartitionArtifact full = Partitioner().partition(req);
  expect_exact(graph, full, false);

  req.checkpoint.clear();
  req.resume = checkpoint;
  const PartitionArtifact resumed = Partitioner().partition(req);
  EXPECT_EQ(resumed.assignment, full.assignment);
  EXPECT_EQ(resumed.metrics.edge_cut, -1.0);
  std::remove(checkpoint.c_str());

  // Path 1-2-3-4 (METIS ids); the third line is malformed.
  const TempGraphFile clean("4 3\n2\n1 3\n2 4\n3\n", "clean");
  const TempGraphFile broken("4 3\n2\n1 3\n2 x\n3\n", "skip");
  PartitionRequest skip;
  skip.algo = "fennel";
  skip.k = 2;
  skip.from_disk = true;
  skip.on_error = "skip";
  skip.graph_path = clean.path();
  EXPECT_GE(Partitioner().partition(skip).metrics.edge_cut, 0.0);
  skip.graph_path = broken.path();
  const PartitionArtifact skipped = Partitioner().partition(skip);
  EXPECT_EQ(skipped.skip_stats.lines_skipped, 1u);
  EXPECT_EQ(skipped.metrics.edge_cut, -1.0);
}

/// The facade publishes whichever value it reports as quality.* gauges.
TEST(AssignTimeQualityRoutes, GaugesCarryTheReportedQuality) {
  const CsrGraph graph = reweighted(family_instance(3), testing::test_seed());
  const TempGraphFile file(graph, "gauges");
  PartitionRequest req = request_for(kCases[3]); // oms 4:16:4
  req.graph_path = file.path();
  req.from_disk = true;
  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry::arm(registry);
  const PartitionArtifact artifact = Partitioner().partition(req);
  const telemetry::MetricsSnapshot snap = registry.scrape();
  telemetry::MetricsRegistry::disarm();
  const Exact exact = evaluate(graph, artifact);
  EXPECT_GT(exact.cut, 0);
  EXPECT_EQ(snap.gauge(telemetry::Gauge::kQualityEdgeCut),
            static_cast<std::uint64_t>(exact.cut));
  EXPECT_EQ(snap.gauge(telemetry::Gauge::kQualityMappingJ),
            static_cast<std::uint64_t>(*exact.cost));
}

} // namespace
} // namespace oms
