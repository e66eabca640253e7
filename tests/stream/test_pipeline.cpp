/// \file test_pipeline.cpp
/// \brief run_stream's reader thread must change *when* work happens, never
///        *what* is decided: single-consumer runs are bit-identical to the
///        sequential route across batch/ring geometries; multi-consumer
///        runs keep the Section 3.4 coverage and overshoot invariants;
///        an IoError raised mid-stream surfaces on the caller instead of
///        deadlocking; fill_batch survives rewind() and batch seams.
#include "oms/stream/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/core/online_multisection.hpp"
#include "oms/edgepart/driver.hpp"
#include "oms/edgepart/hdrf.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/graph/io.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void write_text(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  ASSERT_TRUE(out.good());
}

CsrGraph weighted_fixture(NodeId n) {
  Rng rng(2026);
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    builder.set_node_weight(u, 1 + static_cast<NodeWeight>(rng.next_below(5)));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (int d = 0; d < 3; ++d) {
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (v != u) {
        builder.add_edge(u, v, 1 + static_cast<EdgeWeight>(rng.next_below(7)));
      }
    }
  }
  return std::move(builder).build();
}

/// The sequential route: no reader thread.
PipelineConfig sequential_policy() {
  PipelineConfig policy;
  policy.ring_batches = 0;
  return policy;
}

/// Open \p path as a source with \p buffer_bytes raw read chunks and stream
/// it through \p assigner.
StreamResult stream_file(const std::string& path, OnePassAssigner& assigner,
                         const PipelineConfig& policy,
                         std::size_t buffer_bytes = MetisNodeStream::kDefaultBufferBytes) {
  MetisNodeStream source(path, buffer_bytes);
  return run_stream(source, assigner, policy);
}

std::unique_ptr<FennelPartitioner> fennel_for(const CsrGraph& g, BlockId k) {
  PartitionConfig pc;
  pc.k = k;
  return std::make_unique<FennelPartitioner>(g.num_nodes(), g.num_edges(),
                                             g.total_node_weight(), pc);
}

// ---------------------------------------------------------------------------
// Decision parity: one consumer == the sequential route, bit for bit.
// ---------------------------------------------------------------------------

TEST(Pipeline, SingleConsumerMatchesSequentialAcrossGeometries) {
  const CsrGraph g = gen::barabasi_albert(800, 4, 13);
  const std::string path = temp_path("oms_pipeline_parity.graph");
  write_metis(g, path);

  auto sequential = fennel_for(g, 7);
  const StreamResult expected = stream_file(path, *sequential, sequential_policy());

  // Degenerate geometries force every seam: single-node batches, a one-slot
  // ring (strict ping-pong), an arc cap that closes batches early, a reader
  // buffer far smaller than a line. The in-memory graph, whose batches
  // borrow its arrays, must decide the same on every geometry.
  struct Geometry {
    std::size_t batch_nodes, batch_arcs, ring, buffer;
  };
  for (const Geometry geo : {Geometry{1, 0, 0, 64}, Geometry{64, 0, 0, 1 << 16},
                             Geometry{1, 0, 1, 64}, Geometry{3, 0, 2, 64},
                             Geometry{64, 16, 2, 256}, Geometry{4096, 0, 4, 1 << 16},
                             Geometry{1024, 1 << 18, 8, 1 << 18}}) {
    SCOPED_TRACE("batch=" + std::to_string(geo.batch_nodes) +
                 " arcs=" + std::to_string(geo.batch_arcs) +
                 " ring=" + std::to_string(geo.ring) +
                 " buffer=" + std::to_string(geo.buffer));
    PipelineConfig config;
    config.assign_threads = 1;
    config.batch_nodes = geo.batch_nodes;
    config.batch_arcs = geo.batch_arcs;
    config.ring_batches = geo.ring;
    auto pipelined = fennel_for(g, 7);
    const StreamResult got = stream_file(path, *pipelined, config, geo.buffer);
    EXPECT_EQ(got.assignment, expected.assignment);
    EXPECT_EQ(got.work.score_evaluations, expected.work.score_evaluations);
    auto from_memory = fennel_for(g, 7);
    const StreamResult in_memory = run_stream(g, *from_memory, config);
    EXPECT_EQ(in_memory.assignment, expected.assignment);
    EXPECT_EQ(in_memory.work.score_evaluations, expected.work.score_evaluations);
  }
  std::remove(path.c_str());
}

TEST(Pipeline, SingleConsumerMatchesSequentialOnWeightedOms) {
  const CsrGraph g = weighted_fixture(600);
  const std::string path = temp_path("oms_pipeline_weighted.graph");
  write_metis(g, path);

  OmsConfig oc;
  OnlineMultisection sequential(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                                BlockId{24}, oc);
  const StreamResult expected = stream_file(path, sequential, sequential_policy());

  PipelineConfig config;
  config.batch_nodes = 37; // misaligned with n on purpose
  OnlineMultisection pipelined(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                               BlockId{24}, oc);
  const StreamResult got = stream_file(path, pipelined, config);
  EXPECT_EQ(got.assignment, expected.assignment);
  std::remove(path.c_str());
}

TEST(Pipeline, InMemorySourcesRejectCheckpointAndResume) {
  const CsrGraph g = gen::barabasi_albert(200, 3, 7);
  const std::vector<StreamedEdge> edges = {{0, 1, 1}, {1, 2, 1}};
  const std::string path = temp_path("oms_pipeline_memory.ckpt");
  PipelineConfig policy = sequential_policy();
  policy.checkpoint.path = path;

  auto fennel = fennel_for(g, 4);
  EXPECT_THROW((void)run_stream(g, *fennel, policy), IoError);
  BufferedPartitioner buffered(g.num_nodes(), g.total_node_weight(), 4, BufferedConfig{});
  EXPECT_THROW((void)run_stream(g, buffered, policy), IoError);
  EdgePartConfig config;
  config.k = 4;
  HdrfPartitioner hdrf(config);
  EXPECT_THROW((void)run_stream(edges, hdrf, policy), IoError);
  EXPECT_FALSE(std::ifstream(path).good()) << "no snapshot may be written";
}

TEST(Pipeline, InMemoryPolicyClampsConsumersToNodes) {
  // Only the returned policy is inspected: no thread is started.
  GraphBuilder six(6);
  for (NodeId u = 0; u + 1 < 6; ++u) {
    six.add_edge(u, u + 1);
  }
  const CsrGraph g = std::move(six).build();
  const PipelineConfig clamped = in_memory_policy(g, 64);
  EXPECT_EQ(clamped.assign_threads, 6);
  EXPECT_EQ(clamped.ring_batches, 6u);
  EXPECT_EQ(clamped.batch_nodes, 1u);

  const PipelineConfig exact = in_memory_policy(g, 6);
  EXPECT_EQ(exact.assign_threads, 6);
  EXPECT_EQ(exact.ring_batches, 6u);
  EXPECT_EQ(exact.batch_nodes, 1u);

  const PipelineConfig fewer = in_memory_policy(g, 4); // n >= threads: as before
  EXPECT_EQ(fewer.assign_threads, 4);
  EXPECT_EQ(fewer.ring_batches, 4u);
  EXPECT_EQ(fewer.batch_nodes, 2u);

  const CsrGraph empty = GraphBuilder(0).build();
  const PipelineConfig none = in_memory_policy(empty, 64);
  EXPECT_EQ(none.assign_threads, 1);
  EXPECT_EQ(none.ring_batches, 0u);
  EXPECT_EQ(none.batch_nodes, 1u);
}

TEST(Pipeline, CommentsIsolatedNodesAndMissingTrailingLines) {
  // The batch boundary must not disturb the line-level quirks of the format.
  const std::string path = temp_path("oms_pipeline_quirks.graph");
  write_text(path,
             "% leading comment\n"
             "5 2\n"
             "2\n"
             "1 3\n"
             "\n"
             "% comment\n"
             "2\n");
  auto assigner = [] {
    PartitionConfig pc;
    pc.k = 2;
    return std::make_unique<FennelPartitioner>(5, 2, 5, pc);
  };
  auto sequential = assigner();
  const StreamResult expected = stream_file(path, *sequential, sequential_policy());
  for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    PipelineConfig config;
    config.batch_nodes = batch;
    config.ring_batches = 1;
    auto pipelined = assigner();
    const StreamResult got = stream_file(path, *pipelined, config);
    EXPECT_EQ(got.assignment, expected.assignment) << "batch=" << batch;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Multi-consumer: the Section 3.4 coverage and overshoot invariants.
// ---------------------------------------------------------------------------

TEST(Pipeline, MultiConsumerIsCoveredAndBalanced) {
  const CsrGraph g = gen::barabasi_albert(20000, 5, 17);
  const std::string path = temp_path("oms_pipeline_parallel.graph");
  write_metis(g, path);
  const BlockId k = 32;

  for (const int threads : {2, 4}) {
    OmsConfig config;
    OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                           config);
    PipelineConfig pipeline;
    pipeline.assign_threads = threads;
    pipeline.batch_nodes = 1024;
    const StreamResult r = stream_file(path, oms, pipeline);
    verify_partition(g, r.assignment, k);

    const NodeWeight lmax =
        max_block_weight(g.total_node_weight(), k, config.epsilon);
    const auto cap = block_weights_of(g, r.assignment, k);
    for (BlockId b = 0; b < k; ++b) {
      EXPECT_LE(cap[static_cast<std::size_t>(b)], lmax + threads)
          << "block " << b << " overshot the parallel bound (threads=" << threads
          << ")";
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Failure paths: IoError mid-stream must surface, not deadlock or abort.
// ---------------------------------------------------------------------------

TEST(Pipeline, IoErrorMidStreamSurfacesOnCaller) {
  // 200 well-formed nodes, then garbage, with tiny batches and a one-slot
  // ring so the error strikes while consumers are busy and the producer is
  // backpressured.
  const NodeId n = 201;
  std::string content = std::to_string(n) + " 0\n";
  for (NodeId u = 0; u < n - 1; ++u) {
    content += "\n";
  }
  content += "garbage\n";
  const std::string path = temp_path("oms_pipeline_ioerror.graph");
  write_text(path, content);

  PartitionConfig pc;
  pc.k = 2;
  FennelPartitioner fennel(n, 0, n, pc);
  PipelineConfig config;
  config.batch_nodes = 8;
  config.ring_batches = 1;
  EXPECT_THROW((void)stream_file(path, fennel, config), IoError);
  std::remove(path.c_str());
}

TEST(Pipeline, IoErrorInHeaderSurfacesBeforeThreadsSpawn) {
  const std::string path = temp_path("oms_pipeline_badheader.graph");
  write_text(path, "not a header\n");
  PartitionConfig pc;
  pc.k = 2;
  FennelPartitioner fennel(4, 0, 4, pc);
  EXPECT_THROW((void)stream_file(path, fennel, PipelineConfig{}), IoError);
  std::remove(path.c_str());
}

/// An assigner that fails mid-pass: the consumer-side exception must
/// propagate to the caller and unblock the producer (no deadlock).
class ThrowingAssigner final : public OnePassAssigner {
public:
  explicit ThrowingAssigner(NodeId fail_at) : fail_at_(fail_at) {}
  void prepare(int) override {}
  BlockId assign(const StreamedNode& node, int, WorkCounters&) override {
    if (node.id >= fail_at_) {
      throw std::runtime_error("assigner failure injection");
    }
    return 0;
  }
  [[nodiscard]] BlockId block_of(NodeId) const override { return 0; }
  [[nodiscard]] BlockId num_blocks() const override { return 1; }
  [[nodiscard]] std::vector<BlockId> take_assignment() override { return {}; }

private:
  NodeId fail_at_;
};

TEST(Pipeline, ConsumerExceptionUnblocksProducer) {
  const CsrGraph g = gen::grid_2d(40, 40);
  const std::string path = temp_path("oms_pipeline_consumerfail.graph");
  write_metis(g, path);
  ThrowingAssigner assigner(64);
  PipelineConfig config;
  config.batch_nodes = 16;
  config.ring_batches = 1; // maximal backpressure on the producer
  EXPECT_THROW((void)stream_file(path, assigner, config),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// fill_batch (the chunk-handoff API) and rewind-after-pipeline parity.
// ---------------------------------------------------------------------------

TEST(Pipeline, FillBatchRewindReplaysIdentically) {
  const CsrGraph g = weighted_fixture(300);
  const std::string path = temp_path("oms_pipeline_rewind.graph");
  write_metis(g, path);

  const auto drain = [](MetisNodeStream& stream) {
    std::vector<std::vector<NodeId>> adjacency;
    std::vector<NodeWeight> weights;
    NodeBatch batch;
    while (stream.fill_batch(batch, 17, 64) > 0) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const StreamedNode node = batch.node(i);
        EXPECT_EQ(node.id, adjacency.size());
        adjacency.emplace_back(node.neighbors.begin(), node.neighbors.end());
        weights.push_back(node.weight);
      }
    }
    return std::make_pair(adjacency, weights);
  };

  MetisNodeStream stream(path, 128);
  const auto first = drain(stream);
  EXPECT_EQ(first.first.size(), g.num_nodes());
  stream.rewind();
  const auto second = drain(stream);
  EXPECT_EQ(first, second);

  // Restream in one-node batches after another rewind.
  stream.rewind();
  NodeId count = 0;
  testing::for_each_node(
      stream,
      [&](const StreamedNode& node) {
        ASSERT_LT(count, g.num_nodes());
        EXPECT_EQ(std::vector<NodeId>(node.neighbors.begin(), node.neighbors.end()),
                  first.first[count]);
        EXPECT_EQ(node.weight, first.second[count]);
        ++count;
      },
      1);
  EXPECT_EQ(count, g.num_nodes());
  std::remove(path.c_str());
}

TEST(Pipeline, FillBatchHonorsArcCap) {
  const CsrGraph g = testing::star_graph(50); // node 0 has degree 49
  const std::string path = temp_path("oms_pipeline_arccap.graph");
  write_metis(g, path);
  MetisNodeStream stream(path);
  NodeBatch batch;
  // The hub exceeds the cap by itself: the batch must still make progress
  // (one node), never loop or split a node.
  ASSERT_EQ(stream.fill_batch(batch, 100, 8), 1u);
  EXPECT_EQ(batch.node(0).neighbors.size(), 49u);
  // Leaves close the batch once 8 arcs accumulate.
  ASSERT_EQ(stream.fill_batch(batch, 100, 8), 8u);
  EXPECT_EQ(batch.first_id(), 1u);
  std::remove(path.c_str());
}

TEST(Pipeline, EmptyGraphRunsClean) {
  const std::string path = temp_path("oms_pipeline_empty.graph");
  write_text(path, "0 0\n");
  ThrowingAssigner never_assigns(0); // would throw on any node: none arrive
  const StreamResult r =
      stream_file(path, never_assigns, PipelineConfig{});
  EXPECT_TRUE(r.assignment.empty());
  std::remove(path.c_str());
}

} // namespace
} // namespace oms
