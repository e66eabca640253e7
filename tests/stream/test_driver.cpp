#include "oms/stream/one_pass_driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/stream/block_weights.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/pipeline.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

/// Records the order in which nodes arrive; assigns round-robin.
/// Recording is mutex-guarded so concurrent consumers can exercise it too.
class RecordingAssigner final : public OnePassAssigner {
public:
  explicit RecordingAssigner(NodeId n, BlockId k)
      : k_(k), assignment_(n, kInvalidBlock) {}

  void prepare(int) override {}
  BlockId assign(const StreamedNode& node, int, WorkCounters& counters) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      order.push_back(node.id);
      degrees.push_back(node.neighbors.size());
      weights.push_back(node.weight);
    }
    counters.layers_traversed += 1;
    const BlockId b = static_cast<BlockId>(node.id % static_cast<NodeId>(k_));
    assignment_[node.id] = b;
    return b;
  }
  [[nodiscard]] BlockId block_of(NodeId u) const override { return assignment_[u]; }
  [[nodiscard]] BlockId num_blocks() const override { return k_; }
  [[nodiscard]] std::vector<BlockId> take_assignment() override {
    return std::move(assignment_);
  }

  std::vector<NodeId> order;
  std::vector<std::size_t> degrees;
  std::vector<NodeWeight> weights;

private:
  BlockId k_;
  std::vector<BlockId> assignment_;
  std::mutex mutex_;
};

TEST(OnePassDriver, SequentialVisitsNodesInIdOrder) {
  const CsrGraph g = testing::path_graph(20);
  RecordingAssigner assigner(20, 4);
  const StreamResult result = run_one_pass(g, assigner, 1);
  ASSERT_EQ(assigner.order.size(), 20u);
  for (NodeId i = 0; i < 20; ++i) {
    EXPECT_EQ(assigner.order[i], i);
  }
  EXPECT_EQ(result.assignment.size(), 20u);
  EXPECT_EQ(result.work.layers_traversed, 20u);
}

TEST(OnePassDriver, DeliversFullNeighborhoods) {
  const CsrGraph g = testing::star_graph(8);
  RecordingAssigner assigner(8, 2);
  (void)run_one_pass(g, assigner, 1);
  EXPECT_EQ(assigner.degrees[0], 7u); // center sees all leaves
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_EQ(assigner.degrees[i], 1u);
  }
}

TEST(OnePassDriver, ParallelVisitsEveryNodeExactlyOnce) {
  const CsrGraph g = gen::grid_2d(40, 40);
  for (const int threads : {2, 4, 8}) {
    RecordingAssigner assigner(g.num_nodes(), 4);
    const StreamResult result = run_one_pass(g, assigner, threads);
    // Order across threads is interleaved, but coverage must be exact.
    // (RecordingAssigner::order is racy under threads; use the returned
    // assignment as the source of truth.)
    std::set<BlockId> blocks;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_NE(result.assignment[u], kInvalidBlock);
      blocks.insert(result.assignment[u]);
    }
    EXPECT_EQ(blocks.size(), 4u);
    EXPECT_EQ(result.work.layers_traversed, g.num_nodes());
  }
  // Fewer nodes than threads, and no nodes at all.
  for (const NodeId n : {NodeId{3}, NodeId{0}}) {
    const CsrGraph small = testing::path_graph(n);
    RecordingAssigner assigner(n, 2);
    const StreamResult result = run_one_pass(small, assigner, 8);
    ASSERT_EQ(result.assignment.size(), n);
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_EQ(result.assignment[u], static_cast<BlockId>(u % 2)) << "n=" << n;
    }
    EXPECT_EQ(result.work.layers_traversed, n) << "n=" << n;
    EXPECT_EQ(assigner.order.size(), n);
    EXPECT_EQ(std::set<NodeId>(assigner.order.begin(), assigner.order.end()).size(), n);
  }
}

TEST(OnePassDriver, ThreadCountZeroMeansAllHardwareThreads) {
  const CsrGraph g = testing::path_graph(100);
  RecordingAssigner assigner(100, 2);
  const StreamResult result = run_one_pass(g, assigner, 0);
  EXPECT_EQ(result.work.layers_traversed, 100u);
}

TEST(BlockWeights, AtomicAddAndTotal) {
  BlockWeights w(4);
  w.add(0, 5);
  w.add(3, 2);
  w.add(0, 1);
  EXPECT_EQ(w.load(0), 6);
  EXPECT_EQ(w.load(1), 0);
  EXPECT_EQ(w.load(3), 2);
  EXPECT_EQ(w.total(), 8);
  w.reset();
  EXPECT_EQ(w.total(), 0);
}

// The concurrent BlockWeights stress tests spawn std::threads, as the stream
// ring does, so the TSan CI leg checks the atomics directly.
TEST(BlockWeights, ConcurrentIncrementsAreLossless) {
  BlockWeights w(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&w] {
      for (int i = 0; i < 12500; ++i) {
        w.add(static_cast<std::size_t>(i % 2), 1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(w.load(0), 50000);
  EXPECT_EQ(w.load(1), 50000);
}

TEST(BlockWeights, SetLayoutPreservesValues) {
  BlockWeights w(5);
  for (std::size_t i = 0; i < 5; ++i) {
    w.add(i, static_cast<NodeWeight>(10 * i + 1));
  }
  const std::uint64_t dense_bytes = w.footprint_bytes();
  w.set_layout(BlockWeights::Layout::kPadded);
  EXPECT_EQ(w.footprint_bytes(), dense_bytes * 8); // one cache line per slot
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(w.load(i), static_cast<NodeWeight>(10 * i + 1));
  }
  EXPECT_EQ(w.total(), 1 + 11 + 21 + 31 + 41);
  w.set_layout(BlockWeights::Layout::kDense);
  EXPECT_EQ(w.footprint_bytes(), dense_bytes);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(w.load(i), static_cast<NodeWeight>(10 * i + 1));
  }
}

TEST(BlockWeights, ViewsMatchGenericAccessors) {
  BlockWeights w(4, BlockWeights::Layout::kPadded);
  const auto padded = w.view<BlockWeights::Layout::kPadded>();
  padded.add(2, 7);
  padded.add(3, 9);
  EXPECT_EQ(w.load(2), 7);
  EXPECT_EQ(padded.load(3), 9);
  w.set_layout(BlockWeights::Layout::kDense);
  const auto dense = w.view<BlockWeights::Layout::kDense>();
  EXPECT_EQ(dense.load(2), 7);
  dense.add(2, -7);
  EXPECT_EQ(w.load(2), 0);
}

TEST(BlockWeights, ConcurrentIncrementsAreLosslessWhenPadded) {
  BlockWeights w(3, BlockWeights::Layout::kPadded);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&w] {
      for (int i = 0; i < 11250; ++i) {
        w.add(static_cast<std::size_t>(i % 3), 1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(w.load(0), 30000);
  EXPECT_EQ(w.load(1), 30000);
  EXPECT_EQ(w.load(2), 30000);
}

TEST(MetisStream, HeaderAndNodeCount) {
  const CsrGraph g = gen::grid_2d(10, 10);
  const std::string path = ::testing::TempDir() + "/oms_stream_test.graph";
  write_metis(g, path);

  MetisNodeStream stream(path);
  EXPECT_EQ(stream.header().num_nodes, 100u);
  EXPECT_EQ(stream.header().num_edges, g.num_edges());

  NodeId count = 0;
  EdgeIndex arcs = 0;
  testing::for_each_node(stream, [&](const StreamedNode& node) {
    EXPECT_EQ(node.id, count);
    arcs += node.neighbors.size();
    ++count;
  });
  EXPECT_EQ(count, 100u);
  EXPECT_EQ(arcs, g.num_arcs());
  std::remove(path.c_str());
}

TEST(MetisStream, RewindReplaysTheStream) {
  const CsrGraph g = testing::cycle_graph(12);
  const std::string path = ::testing::TempDir() + "/oms_stream_rewind.graph";
  write_metis(g, path);

  MetisNodeStream stream(path);
  int first_count = 0;
  testing::for_each_node(stream, [&](const StreamedNode&) { ++first_count; });
  stream.rewind();
  int second_count = 0;
  testing::for_each_node(stream, [&](const StreamedNode&) { ++second_count; });
  EXPECT_EQ(first_count, 12);
  EXPECT_EQ(second_count, 12);
  std::remove(path.c_str());
}

TEST(MetisStream, FileDriverMatchesInMemoryDriver) {
  const CsrGraph g = gen::barabasi_albert(300, 3, 6);
  const std::string path = ::testing::TempDir() + "/oms_stream_match.graph";
  write_metis(g, path);

  RecordingAssigner mem_assigner(g.num_nodes(), 5);
  const StreamResult mem = run_one_pass(g, mem_assigner, 1);
  RecordingAssigner file_assigner(g.num_nodes(), 5);
  MetisNodeStream stream(path);
  PipelineConfig sequential;
  sequential.ring_batches = 0; // no reader thread
  const StreamResult file = run_stream(stream, file_assigner, sequential);

  EXPECT_EQ(mem.assignment, file.assignment);
  EXPECT_EQ(mem_assigner.degrees, file_assigner.degrees);
  std::remove(path.c_str());
}

TEST(MetisStream, StreamsNodeWeights) {
  GraphBuilder builder(3);
  builder.set_node_weight(1, 7);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  const CsrGraph g = std::move(builder).build();
  const std::string path = ::testing::TempDir() + "/oms_stream_weights.graph";
  write_metis(g, path);

  MetisNodeStream stream(path);
  EXPECT_TRUE(stream.header().has_node_weights);
  std::vector<NodeWeight> weights;
  testing::for_each_node(stream,
                         [&](const StreamedNode& node) { weights.push_back(node.weight); });
  EXPECT_EQ(weights, (std::vector<NodeWeight>{1, 7, 1}));
  std::remove(path.c_str());
}

} // namespace
} // namespace oms
