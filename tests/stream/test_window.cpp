#include "oms/stream/window_partitioner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/pipeline.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

using testing::fnv1a;

TEST(Window, AssignsEveryNodeBalanced) {
  const CsrGraph g = gen::random_geometric(2000, 3);
  for (const BlockId k : {2, 8, 32}) {
    WindowConfig config;
    WindowPartitioner p(g.num_nodes(), g.total_node_weight(), config, k);
    const StreamResult r = run_one_pass(g, p, 1);
    verify_partition(g, r.assignment, k);
    EXPECT_TRUE(is_balanced(g, r.assignment, k, config.epsilon)) << "k=" << k;
  }
}

TEST(Window, WindowOfOneEqualsLdg) {
  // A 1-node window commits each node right as the next arrives — exactly
  // LDG's information set, so the partitions must coincide.
  const CsrGraph g = gen::barabasi_albert(1200, 3, 5);
  const BlockId k = 8;
  WindowConfig wc;
  wc.window_size = 1;
  WindowPartitioner window(g.num_nodes(), g.total_node_weight(), wc, k);
  const StreamResult wr = run_one_pass(g, window, 1);

  PartitionConfig pc;
  pc.k = k;
  pc.epsilon = wc.epsilon;
  LdgPartitioner ldg(g.num_nodes(), g.total_node_weight(), pc);
  const StreamResult lr = run_one_pass(g, ldg, 1);
  EXPECT_EQ(wr.assignment, lr.assignment);
}

TEST(Window, DelayHelpsOnForwardEdges) {
  // Path graph streamed forward: with no window, node u only ever sees u-1
  // assigned; a window lets u's decision happen after u+1..u+w arrived, so
  // consecutive runs land in the same block more often near block borders.
  const CsrGraph g = testing::path_graph(600);
  const BlockId k = 6;
  WindowConfig small;
  small.window_size = 1;
  WindowConfig large;
  large.window_size = 128;
  WindowPartitioner p_small(g.num_nodes(), g.total_node_weight(), small, k);
  WindowPartitioner p_large(g.num_nodes(), g.total_node_weight(), large, k);
  const Cost cut_small = edge_cut(g, run_one_pass(g, p_small, 1).assignment);
  const Cost cut_large = edge_cut(g, run_one_pass(g, p_large, 1).assignment);
  EXPECT_LE(cut_large, cut_small + 1); // never meaningfully worse on a path
}

TEST(Window, DrainsRemainderAtTakeAssignment) {
  const CsrGraph g = testing::path_graph(100);
  WindowConfig config;
  config.window_size = 64; // larger than the remainder after the last flush
  WindowPartitioner p(g.num_nodes(), g.total_node_weight(), config, 4);
  const StreamResult r = run_one_pass(g, p, 1);
  for (NodeId u = 0; u < 100; ++u) {
    EXPECT_NE(r.assignment[u], kInvalidBlock) << u;
  }
}

/// The window stores each delayed node's adjacency in its ring, so it runs
/// one-pass from disk like the undelayed algorithms — and must make the
/// exact same decisions it makes in memory.
TEST(Window, DiskMatchesInMemory) {
  const CsrGraph g = gen::barabasi_albert(3000, 4, 9);
  const std::string path = ::testing::TempDir() + "/oms_window_disk.graph";
  write_metis(g, path);
  const BlockId k = 12;
  for (const NodeId window_size : {1u, 64u, 1024u, 4096u}) {
    WindowConfig config;
    config.window_size = window_size;
    WindowPartitioner in_memory(g.num_nodes(), g.total_node_weight(), config, k);
    const StreamResult memory = run_one_pass(g, in_memory, 1);

    WindowPartitioner from_disk(g.num_nodes(), g.total_node_weight(), config, k);
    PipelineConfig sequential;
    sequential.ring_batches = 0; // no reader thread
    MetisNodeStream disk_stream(path);
    const StreamResult disk = run_stream(disk_stream, from_disk, sequential);
    EXPECT_EQ(memory.assignment, disk.assignment) << "w=" << window_size;

    WindowPartitioner pipelined(g.num_nodes(), g.total_node_weight(), config, k);
    PipelineConfig pipeline; // 1 consumer: stream order preserved exactly
    pipeline.batch_nodes = 256;
    MetisNodeStream piped_stream(path);
    const StreamResult piped = run_stream(piped_stream, pipelined, pipeline);
    EXPECT_EQ(memory.assignment, piped.assignment)
        << "w=" << window_size << " (pipelined)";
  }
  std::remove(path.c_str());
}

// Golden hash pinning the window algorithm's output bit-for-bit (the ring
// rewrite must keep reproducing the original deque implementation's
// decisions). Regenerate only for *intentional* algorithm changes.
TEST(WindowGolden, DefaultsOnBarabasiAlbert) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  WindowConfig config;
  WindowPartitioner p(ba.num_nodes(), ba.total_node_weight(), config, 24);
  EXPECT_EQ(fnv1a(run_one_pass(ba, p, 1).assignment), 0x0603467191294bfcULL);
}

TEST(WindowDeath, RejectsParallelDrivers) {
  const CsrGraph g = testing::path_graph(64);
  WindowConfig config;
  WindowPartitioner p(g.num_nodes(), g.total_node_weight(), config, 2);
  EXPECT_DEATH((void)run_one_pass(g, p, 4), "sequential");
}

} // namespace
} // namespace oms
