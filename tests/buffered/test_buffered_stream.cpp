/// \file test_buffered_stream.cpp
/// \brief The disk-native buffered driver: parity against the in-memory
///        entry point (sequential and pipelined), IoError propagation from
///        mid-buffer parse failures (no deadlock), and golden hashes pinning
///        the buffered algorithm's output bit-for-bit.
#include "oms/stream/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/graph/io.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

using testing::fnv1a;

/// The sequential route: no reader thread.
PipelineConfig sequential_policy() {
  PipelineConfig policy;
  policy.ring_batches = 0;
  return policy;
}

/// Stream \p path through a fresh buffered partitioner under \p policy.
BufferedResult stream_buffered(const std::string& path, BlockId k,
                               const BufferedConfig& config,
                               const PipelineConfig& policy) {
  MetisNodeStream source(path);
  BufferedPartitioner core(source.header().num_nodes,
                           static_cast<NodeWeight>(source.header().num_nodes), k,
                           config);
  return run_stream(source, core, policy);
}

class TempMetisFile {
public:
  explicit TempMetisFile(const CsrGraph& graph, const std::string& tag) {
    path_ = ::testing::TempDir() + "/oms_buffered_stream_" + tag + ".graph";
    write_metis(graph, path_);
  }
  explicit TempMetisFile(const std::string& contents, const std::string& tag) {
    path_ = ::testing::TempDir() + "/oms_buffered_stream_" + tag + ".graph";
    std::ofstream out(path_);
    out << contents;
  }
  ~TempMetisFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

TEST(BufferedStream, DiskMatchesInMemorySequentialAndPipelined) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  const CsrGraph grid = gen::grid_2d(60, 60);
  const struct {
    const CsrGraph* graph;
    const char* tag;
  } cases[] = {{&ba, "ba"}, {&grid, "grid"}};
  for (const auto& c : cases) {
    const TempMetisFile file(*c.graph, c.tag);
    for (const NodeId buffer : {64u, 1000u, 8192u}) {
      BufferedConfig config;
      config.buffer_size = buffer;
      const BufferedResult memory = buffered_partition(*c.graph, 24, config);
      const BufferedResult disk =
          stream_buffered(file.path(), 24, config, sequential_policy());
      const BufferedResult pipelined =
          stream_buffered(file.path(), 24, config, PipelineConfig{});
      EXPECT_EQ(memory.assignment, disk.assignment)
          << c.tag << " buffer=" << buffer;
      EXPECT_EQ(memory.assignment, pipelined.assignment)
          << c.tag << " buffer=" << buffer << " (pipelined)";
      EXPECT_EQ(memory.buffers_processed, disk.buffers_processed);
      EXPECT_EQ(memory.buffers_processed, pipelined.buffers_processed);
    }
  }
}

TEST(BufferedStream, PipelinedParityAcrossRingDepths) {
  const CsrGraph g = gen::random_geometric(3000, 5);
  const TempMetisFile file(g, "ring");
  BufferedConfig config;
  config.buffer_size = 256;
  const BufferedResult memory = buffered_partition(g, 16, config);
  for (const std::size_t ring : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    PipelineConfig pipeline;
    pipeline.ring_batches = ring;
    const BufferedResult r =
        stream_buffered(file.path(), 16, config, pipeline);
    EXPECT_EQ(memory.assignment, r.assignment) << "ring=" << ring;
  }
}

TEST(BufferedStream, PartitionIsValidAndBalanced) {
  const CsrGraph g = gen::random_geometric(2500, 5);
  const TempMetisFile file(g, "balance");
  BufferedConfig config;
  config.buffer_size = 300;
  const BufferedResult r =
      stream_buffered(file.path(), 12, config, sequential_policy());
  verify_partition(g, r.assignment, 12);
  EXPECT_TRUE(is_balanced(g, r.assignment, 12, config.epsilon));
}

TEST(BufferedStream, BufferCountMatchesCeilDivision) {
  const CsrGraph g = testing::path_graph(1000);
  const TempMetisFile file(g, "ceil");
  BufferedConfig config;
  config.buffer_size = 300;
  const BufferedResult r =
      stream_buffered(file.path(), 4, config, sequential_policy());
  EXPECT_EQ(r.buffers_processed, 4u); // ceil(1000 / 300)
}

/// A malformed token in the middle of the stream — after several buffers
/// already committed — must surface as IoError from both drivers, with every
/// pipeline thread joined first (the test finishing at all proves no
/// deadlock; the pipelined driver's reader thread hits the error while the
/// consumer is mid-buffer).
TEST(BufferedStream, IoErrorMidBufferPropagates) {
  std::string contents = "1000 999\n";
  for (int u = 1; u <= 1000; ++u) {
    if (u == 600) {
      contents += "not_a_number\n";
      continue;
    }
    // Path graph, 1-based ids.
    if (u > 1) {
      contents += std::to_string(u - 1) + " ";
    }
    if (u < 1000) {
      contents += std::to_string(u + 1);
    }
    contents += "\n";
  }
  const TempMetisFile file(contents, "midbuffer");
  BufferedConfig config;
  config.buffer_size = 128; // the error lands in the 5th buffer
  EXPECT_THROW((void)stream_buffered(file.path(), 4, config, sequential_policy()),
               IoError);
  EXPECT_THROW(
      (void)stream_buffered(file.path(), 4, config, PipelineConfig{}),
      IoError);
}

TEST(BufferedStream, IoErrorOutOfRangeNeighbor) {
  const TempMetisFile file("3 2\n2\n1 9\n2\n", "range");
  BufferedConfig config;
  EXPECT_THROW((void)stream_buffered(file.path(), 2, config, sequential_policy()),
               IoError);
  EXPECT_THROW(
      (void)stream_buffered(file.path(), 2, config, PipelineConfig{}),
      IoError);
}

TEST(BufferedStream, RejectsNodeWeightedFiles) {
  // fmt = 10: node weights present. The balance bound needs the total node
  // weight before the pass, which the header cannot provide.
  const TempMetisFile file("2 1 10\n5 2\n7 1\n", "weighted");
  BufferedConfig config;
  EXPECT_THROW((void)stream_buffered(file.path(), 2, config, sequential_policy()),
               IoError);
  EXPECT_THROW(
      (void)stream_buffered(file.path(), 2, config, PipelineConfig{}),
      IoError);
}

TEST(BufferedStream, InMemoryAcceptsNodeWeightedGraphs) {
  // The rejection above belongs to the METIS header, which reveals no total
  // node weight before the pass; an in-memory graph knows it up front.
  const CsrGraph shape = gen::barabasi_albert(3000, 4, 11);
  GraphBuilder builder(shape.num_nodes());
  Rng rng(3);
  for (NodeId u = 0; u < shape.num_nodes(); ++u) {
    builder.set_node_weight(u, 1 + static_cast<NodeWeight>(rng.next_below(5)));
    for (const NodeId v : shape.neighbors(u)) {
      if (v > u) {
        builder.add_edge(u, v);
      }
    }
  }
  const CsrGraph g = std::move(builder).build();
  for (const BlockId k : {4, 32}) {
    BufferedConfig config;
    config.buffer_size = 256;
    const BufferedResult r = buffered_partition(g, k, config);
    verify_partition(g, r.assignment, k);
    const NodeWeight lmax = max_block_weight(g.total_node_weight(), k, config.epsilon);
    for (const NodeWeight w : block_weights_of(g, r.assignment, k)) {
      EXPECT_LE(w, lmax) << "k=" << k;
    }
  }
}

TEST(BufferedStream, EmptyGraphYieldsEmptyAssignment) {
  const TempMetisFile file("0 0\n", "empty");
  BufferedConfig config;
  const BufferedResult r =
      stream_buffered(file.path(), 4, config, sequential_policy());
  EXPECT_TRUE(r.assignment.empty());
  EXPECT_EQ(r.buffers_processed, 0u);
}

// ---------------------------------------------------------------------------
// Golden hashes: FNV-1a fingerprints of the buffered algorithm's output
// (recorded from this implementation — fused model build + active-set
// refinement). The disk driver must reproduce them through the full
// write_metis -> fill_batch round trip. Regenerate only for *intentional*
// algorithm changes.
// ---------------------------------------------------------------------------

TEST(BufferedGolden, DefaultsOnBarabasiAlbert) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  BufferedConfig config;
  const std::uint64_t memory_hash = fnv1a(buffered_partition(ba, 24, config).assignment);
  EXPECT_EQ(memory_hash, 0xcc49cbb6a1fc4da2ULL);
  const TempMetisFile file(ba, "golden_ba");
  EXPECT_EQ(
      fnv1a(stream_buffered(file.path(), 24, config, sequential_policy()).assignment),
      memory_hash);
}

TEST(BufferedGolden, SmallBuffersManyBlocksOnGrid) {
  const CsrGraph grid = gen::grid_2d(60, 60);
  BufferedConfig config;
  config.buffer_size = 500;
  config.refinement_iterations = 8;
  const std::uint64_t memory_hash =
      fnv1a(buffered_partition(grid, 100, config).assignment);
  EXPECT_EQ(memory_hash, 0x62efabc147806dc0ULL);
  const TempMetisFile file(grid, "golden_grid");
  EXPECT_EQ(
      fnv1a(
          stream_buffered(file.path(), 100, config, sequential_policy()).assignment),
      memory_hash);
}

} // namespace
} // namespace oms
