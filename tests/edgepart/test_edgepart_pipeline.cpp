/// \file test_edgepart_pipeline.cpp
/// \brief Edge lists through run_stream's reader thread: bit-identical
///        output to the sequential route across batch/ring geometries,
///        parity with the in-memory driver, and IoError surfacing from the
///        producer thread without deadlocking the pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "oms/edgepart/dbh.hpp"
#include "oms/edgepart/driver.hpp"
#include "oms/edgepart/hdrf.hpp"
#include "oms/edgepart/hierarchical_hdrf.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// The sequential route: no reader thread.
PipelineConfig sequential_policy() {
  PipelineConfig policy;
  policy.ring_batches = 0;
  return policy;
}

/// Open the edge list \p path and stream it through \p partitioner.
EdgePartitionResult stream_edges(const std::string& path,
                                 StreamingEdgePartitioner& partitioner,
                                 const PipelineConfig& policy) {
  EdgeListStream source(path, policy.reader_buffer_bytes);
  return run_stream(source, partitioner, policy);
}

TEST(EdgePartPipeline, BitIdenticalToSequentialAcrossGeometries) {
  const CsrGraph graph = gen::barabasi_albert(3000, 5, 17);
  const std::string path = temp_path("oms_ep_pipe.edgelist");
  write_edge_list(graph, path);

  EdgePartConfig config;
  config.k = 16;
  HdrfPartitioner sequential(config);
  const auto expected = stream_edges(path, sequential, sequential_policy());
  ASSERT_EQ(expected.stats.num_edges, graph.num_edges());
  ASSERT_EQ(expected.stats.num_vertices, graph.num_nodes());

  struct Geometry {
    std::size_t batch_edges;
    std::size_t ring;
  };
  for (const Geometry geo : {Geometry{1, 1}, Geometry{7, 2}, Geometry{1024, 4},
                             Geometry{1u << 20, 3}}) {
    PipelineConfig pipeline;
    pipeline.batch_nodes = geo.batch_edges;
    pipeline.ring_batches = geo.ring;
    HdrfPartitioner partitioner(config);
    const auto result = stream_edges(path, partitioner, pipeline);
    EXPECT_EQ(result.edge_assignment, expected.edge_assignment)
        << "batch=" << geo.batch_edges << " ring=" << geo.ring;
    EXPECT_EQ(result.stats.num_edges, expected.stats.num_edges);
    EXPECT_EQ(result.stats.num_vertices, expected.stats.num_vertices);
  }
  std::remove(path.c_str());
}

TEST(EdgePartPipeline, HierarchicalPartitionerPipelinesIdentically) {
  const CsrGraph graph = gen::barabasi_albert(2000, 4, 23);
  const std::string path = temp_path("oms_ep_pipe_hier.edgelist");
  write_edge_list(graph, path);

  const SystemHierarchy topo({4, 4}, {1, 10});
  EdgePartConfig config;
  HierarchicalHdrfPartitioner sequential(topo, config);
  const auto expected = stream_edges(path, sequential, sequential_policy());

  PipelineConfig pipeline;
  pipeline.batch_nodes = 256;
  HierarchicalHdrfPartitioner pipelined(topo, config);
  const auto result = stream_edges(path, pipelined, pipeline);
  EXPECT_EQ(result.edge_assignment, expected.edge_assignment);
  std::remove(path.c_str());
}

TEST(EdgePartPipeline, FileDriverMatchesInMemoryDriver) {
  const CsrGraph graph = gen::barabasi_albert(1500, 4, 29);
  const std::string path = temp_path("oms_ep_mem.edgelist");
  write_edge_list(graph, path);

  std::vector<StreamedEdge> edges;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const NodeId v : graph.neighbors(u)) {
      if (v > u) {
        edges.push_back(StreamedEdge{u, v, 1});
      }
    }
  }

  EdgePartConfig config;
  config.k = 8;
  config.seed = 5;
  DbhPartitioner from_memory(config);
  DbhPartitioner from_file(config);
  const auto mem = run_edge_partition(edges, from_memory);
  const auto file = stream_edges(path, from_file, sequential_policy());
  EXPECT_EQ(mem.edge_assignment, file.edge_assignment);
  EXPECT_EQ(mem.stats.num_edges, file.stats.num_edges);
  EXPECT_EQ(mem.stats.num_vertices, file.stats.num_vertices);
  std::remove(path.c_str());
}

TEST(EdgePartPipeline, IoErrorFromProducerSurfacesWithoutDeadlock) {
  const std::string path = temp_path("oms_ep_pipe_err.edgelist");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // Enough valid edges to fill several batches, then garbage.
  for (int i = 0; i < 5000; ++i) {
    std::fprintf(f, "%d %d\n", i % 97, i % 89 + 97);
  }
  std::fprintf(f, "broken line\n");
  std::fclose(f);

  EdgePartConfig config;
  config.k = 4;
  for (const std::size_t batch : {std::size_t{16}, std::size_t{4096}}) {
    PipelineConfig pipeline;
    pipeline.batch_nodes = batch;
    HdrfPartitioner partitioner(config);
    EXPECT_THROW(
        { (void)stream_edges(path, partitioner, pipeline); },
        IoError);
  }
  std::remove(path.c_str());
}

TEST(EdgePartPipeline, EmptyStreamRaisesThroughThePipeline) {
  const std::string path = temp_path("oms_ep_pipe_empty.edgelist");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("# comments only\n", f);
  std::fclose(f);

  EdgePartConfig config;
  config.k = 4;
  PipelineConfig pipeline;
  HdrfPartitioner partitioner(config);
  EXPECT_THROW(
      { (void)stream_edges(path, partitioner, pipeline); },
      IoError);
  std::remove(path.c_str());
}

} // namespace
} // namespace oms
