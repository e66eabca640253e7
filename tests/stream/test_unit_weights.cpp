/// \file test_unit_weights.cpp
/// \brief Unit edge weights are implicit: an unweighted METIS file stores no
///        per-arc weights, in the batches of a disk stream or in the CSR
///        read_metis builds, and yet reads exactly like its twin that spells
///        every weight out as 1.
///
/// Every algorithm of the node-stream facade, on the in-memory, --from-disk
/// and pipelined routes, must give the twin files identical assignments,
/// cuts and J (the twin's batches carry weights, so they run the weighted
/// kernels). The storage side: a unit CsrGraph keeps at most max_degree
/// weights, a parsed unweighted batch none, and the run of 1s a batch reads
/// grows when a longer row arrives mid-batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "oms/api/partitioner.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/node_batch.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/oms_unit_weights_" + name;
}

/// \p graph (unit edge weights) as METIS with fmt 1 and every weight a 1.
void write_explicit_ones(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  out << graph.num_nodes() << ' ' << graph.num_edges() << " 1\n";
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const char* sep = "";
    for (const NodeId v : graph.neighbors(u)) {
      out << sep << (v + 1) << " 1";
      sep = " ";
    }
    out << '\n';
  }
  ASSERT_TRUE(out.good());
}

/// Both files of a twin pair, removed on destruction.
struct TwinFiles {
  TwinFiles(const CsrGraph& graph, const std::string& tag)
      : unit(temp_path(tag + "_unit.graph")), ones(temp_path(tag + "_ones.graph")) {
    write_metis(graph, unit);
    write_explicit_ones(graph, ones);
  }
  ~TwinFiles() {
    std::remove(unit.c_str());
    std::remove(ones.c_str());
  }
  TwinFiles(const TwinFiles&) = delete;
  TwinFiles& operator=(const TwinFiles&) = delete;

  std::string unit;
  std::string ones;
};

struct Case {
  const char* name;
  const char* algo;
  BlockId k;
  const char* hierarchy; ///< nullptr: plain k-way
  const char* distances; ///< one per hierarchy level
  const char* engine;    ///< buffered engine, or nullptr
};

constexpr Case kCases[] = {
    {"hashing", "hashing", 64, nullptr, nullptr, nullptr},
    {"ldg", "ldg", 64, nullptr, nullptr, nullptr},
    {"fennel", "fennel", 64, nullptr, nullptr, nullptr},
    {"nh-oms", "oms", 37, nullptr, nullptr, nullptr},
    {"oms-4:16:4", "oms", 0, "4:16:4", "1:10:100", nullptr},
    {"window", "window", 16, nullptr, nullptr, nullptr},
    {"buffered-lp", "buffered", 16, nullptr, nullptr, "lp"},
    {"buffered-ml", "buffered", 16, nullptr, nullptr, "multilevel"},
    {"buffered-ml-4:4", "buffered", 0, "4:4", "1:10", "multilevel"},
};

enum class Route { kInMemory, kFromDisk, kPipeline };

[[nodiscard]] PartitionRequest request_for(const Case& c, Route route,
                                           const std::string& path) {
  PartitionRequest req;
  req.graph_path = path;
  req.algo = c.algo;
  req.k = c.k;
  if (c.hierarchy != nullptr) {
    req.hierarchy = c.hierarchy;
    req.distances = c.distances;
  }
  if (c.engine != nullptr) {
    req.buffered_engine = c.engine;
  }
  req.buffer_size = 128;
  req.window_size = 64;
  req.from_disk = route != Route::kInMemory;
  req.pipeline = route == Route::kPipeline;
  return req;
}

TEST(UnitWeights, UnweightedFileAndExplicitOnesTwinAgree) {
  SCOPED_TRACE("OMS_TEST_SEED=" + std::to_string(testing::test_seed()));
  const CsrGraph graphs[] = {gen::barabasi_albert(800, 3, testing::draw_seed(0)),
                             gen::delaunay(700, testing::draw_seed(1))};
  for (std::size_t g = 0; g < std::size(graphs); ++g) {
    const TwinFiles files(graphs[g], std::to_string(g));
    for (const Case& c : kCases) {
      for (const Route route : {Route::kInMemory, Route::kFromDisk, Route::kPipeline}) {
        SCOPED_TRACE(std::string(c.name) + " graph " + std::to_string(g) + " route " +
                     std::to_string(static_cast<int>(route)));
        const PartitionArtifact unit =
            Partitioner().partition(request_for(c, route, files.unit));
        const PartitionArtifact ones =
            Partitioner().partition(request_for(c, route, files.ones));
        ASSERT_EQ(unit.assignment.size(), graphs[g].num_nodes());
        EXPECT_EQ(unit.assignment, ones.assignment);
        EXPECT_EQ(unit.metrics.edge_cut, ones.metrics.edge_cut);
        EXPECT_EQ(unit.metrics.mapping_j, ones.metrics.mapping_j);
      }
    }
  }
}

TEST(UnitWeights, SkippedLinesAgreeAcrossTheTwins) {
  // Under --on-error skip a malformed line becomes an isolated node; the
  // unit file appends no weights to roll back, the twin rolls its back.
  const std::string unit = temp_path("skip_unit.graph");
  const std::string ones = temp_path("skip_ones.graph");
  std::ofstream(unit) << "5 4\n2 3\n1 3\n1 2 x\n5\n4\n";
  std::ofstream(ones) << "5 4 1\n2 1 3 1\n1 1 3 1\n1 1 2 x\n5 1\n4 1\n";
  for (const std::string* path : {&unit, &ones}) {
    MetisNodeStream stream(*path);
    stream.set_error_policy({StreamErrorPolicy::Action::kSkip, 10});
    NodeBatch batch;
    ASSERT_EQ(stream.fill_batch(batch, 5), 5u);
    EXPECT_EQ(stream.error_stats().lines_skipped, 1u);
    EXPECT_EQ(batch.has_unit_edge_weights(), path == &unit);
    const std::vector<std::size_t> degrees = {2, 2, 0, 1, 1};
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const StreamedNode node = batch.node(i);
      EXPECT_EQ(node.neighbors.size(), degrees[i]) << *path << " node " << i;
      EXPECT_EQ(node.edge_weights.size(), degrees[i]);
      EXPECT_TRUE(std::ranges::all_of(node.edge_weights,
                                      [](EdgeWeight w) { return w == 1; }));
    }
  }
  for (const char* algo : {"fennel", "oms", "buffered"}) {
    PartitionRequest req;
    req.algo = algo;
    req.k = 2;
    req.from_disk = true;
    req.on_error = "skip";
    req.graph_path = unit;
    const PartitionArtifact a = Partitioner().partition(req);
    req.graph_path = ones;
    const PartitionArtifact b = Partitioner().partition(req);
    EXPECT_EQ(a.assignment, b.assignment) << algo;
  }
  std::remove(unit.c_str());
  std::remove(ones.c_str());
}

TEST(UnitWeights, UnitGraphStoresAtMostMaxDegreeWeights) {
  const CsrGraph built = gen::barabasi_albert(2000, 4, testing::draw_seed(2));
  const std::string path = temp_path("footprint.graph");
  write_metis(built, path);
  const CsrGraph read = read_metis(path);
  std::remove(path.c_str());
  for (const CsrGraph* g : {&built, &read}) {
    ASSERT_TRUE(g->has_unit_edge_weights());
    EXPECT_TRUE(g->is_unit_weighted());
    const std::uint64_t without_weights =
        g->raw_xadj().size() * sizeof(EdgeIndex) +
        g->raw_adjncy().size() * sizeof(NodeId) + g->raw_vwgt().size() * sizeof(NodeWeight);
    EXPECT_LE(g->memory_footprint_bytes(),
              without_weights + g->max_degree() * sizeof(EdgeWeight));
    EXPECT_LT(g->max_degree(), g->num_arcs() / 8); // the bound is far below 2m
    EXPECT_EQ(g->total_edge_weight(), static_cast<EdgeWeight>(g->num_edges()));
    for (NodeId u = 0; u < g->num_nodes(); ++u) {
      const auto w = g->incident_weights(u);
      ASSERT_EQ(w.size(), g->neighbors(u).size());
      ASSERT_TRUE(std::ranges::all_of(w, [](EdgeWeight x) { return x == 1; }));
    }
  }
  // Both ways to the same graph give one representation, footprint included.
  EXPECT_EQ(built.memory_footprint_bytes(), read.memory_footprint_bytes());
  // An explicit all-ones array collapses too; a single 2 keeps every weight.
  const CsrGraph ones({0, 1, 2}, {1, 0}, {1, 1}, {1, 1});
  EXPECT_TRUE(ones.has_unit_edge_weights());
  const CsrGraph twos({0, 1, 2}, {1, 0}, {2, 2}, {1, 1});
  EXPECT_FALSE(twos.has_unit_edge_weights());
  EXPECT_EQ(testing::arc_weights(twos), (std::vector<EdgeWeight>{2, 2}));
  EXPECT_EQ(twos.total_edge_weight(), 2);
}

TEST(UnitWeights, ParsedUnweightedBatchKeepsItsWeightVectorEmpty) {
  const CsrGraph graph = gen::random_geometric(500, testing::draw_seed(3));
  const TwinFiles files(graph, "batch");
  for (const std::string* path : {&files.unit, &files.ones}) {
    const bool unit = path == &files.unit;
    MetisNodeStream stream(*path);
    NodeBatch batch;
    ASSERT_EQ(stream.fill_batch(batch, graph.num_nodes()), graph.num_nodes());
    EXPECT_EQ(batch.has_unit_edge_weights(), unit);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const StreamedNode node = batch.node(i);
      ASSERT_EQ(node.edge_weights.size(), node.neighbors.size());
      ASSERT_TRUE(std::ranges::all_of(node.edge_weights,
                                      [](EdgeWeight w) { return w == 1; }));
    }
    const NodeBatch::Storage rows = std::move(batch).release();
    EXPECT_EQ(rows.edge_weights.size(), unit ? 0 : rows.neighbors.size());
  }
}

TEST(UnitWeights, HubRowLongerThanEveryEarlierRowGrowsTheRunMidBatch) {
  // Rows of degree 2, 2, 1, then a hub adjacent to every other node, then
  // 1, 1; the second file, streamed into the same batch object after the
  // first, puts an even longer hub second. With 8 nodes per batch both hubs
  // arrive mid-batch, after shorter rows sized the run; with 2 and 3 they
  // arrive first or second in a later batch.
  const std::string path = temp_path("hub.graph");
  const std::string bigger = temp_path("hub_bigger.graph");
  std::ofstream(path) << "6 6\n2 4\n1 4\n4\n1 2 3 5 6\n4\n4\n";
  std::ofstream(bigger) << "8 7\n2\n1 3 4 5 6 7 8\n2\n2\n2\n2\n2\n2\n";
  for (const std::size_t batch_nodes : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    NodeBatch batch;
    for (const std::string* file : {&path, &bigger}) {
      MetisNodeStream stream(*file);
      while (stream.fill_batch(batch, batch_nodes) > 0) {
        EXPECT_TRUE(batch.has_unit_edge_weights());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const StreamedNode node = batch.node(i);
          ASSERT_EQ(node.edge_weights.size(), node.neighbors.size())
              << *file << " node " << node.id << " batch " << batch_nodes;
          ASSERT_TRUE(std::ranges::all_of(node.edge_weights,
                                          [](EdgeWeight w) { return w == 1; }));
        }
      }
    }
  }
  std::remove(path.c_str());
  std::remove(bigger.c_str());
}

} // namespace
} // namespace oms
