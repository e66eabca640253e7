/// \file test_buffered_multilevel.cpp
/// \brief The multilevel inner engine of the buffered core: parity across all
///        three entry points (in-memory, disk-sequential, disk-pipelined),
///        validity/balance, degenerate inputs, per-buffer never-worse
///        behavior against the greedy placement, and a golden re-pin proving
///        the default lp engine is untouched by the engine plumbing.
#include <gtest/gtest.h>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/mapping/hierarchy.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/pipeline.hpp"
#include "tests/test_support.hpp"

#include <cstdio>
#include <fstream>
#include <string>

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
  MetisNodeStream source(path, policy.reader_buffer_bytes);
  BufferedPartitioner core(source.header().num_nodes,
                           static_cast<NodeWeight>(source.header().num_nodes), k,
                           config);
  return run_stream(source, core, policy);
}

class TempMetisFile {
public:
  explicit TempMetisFile(const CsrGraph& graph, const std::string& tag) {
    path_ = ::testing::TempDir() + "/oms_buffered_ml_" + tag + ".graph";
    write_metis(graph, path_);
  }
  ~TempMetisFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

[[nodiscard]] BufferedConfig multilevel_config(NodeId buffer_size = 4096) {
  BufferedConfig config;
  config.engine = BufferedEngine::kMultilevel;
  config.buffer_size = buffer_size;
  return config;
}

TEST(BufferedMultilevel, DiskMatchesInMemorySequentialAndPipelined) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  const CsrGraph grid = gen::grid_2d(60, 60);
  const struct {
    const CsrGraph* graph;
    const char* tag;
  } cases[] = {{&ba, "ba"}, {&grid, "grid"}};
  for (const auto& c : cases) {
    const TempMetisFile file(*c.graph, c.tag);
    for (const NodeId buffer : {64u, 1000u, 8192u}) {
      const BufferedConfig config = multilevel_config(buffer);
      const BufferedResult memory = buffered_partition(*c.graph, 24, config);
      const BufferedResult disk =
          stream_buffered(file.path(), 24, config, sequential_policy());
      const BufferedResult pipelined =
          stream_buffered(file.path(), 24, config, PipelineConfig{});
      EXPECT_EQ(memory.assignment, disk.assignment)
          << c.tag << " buffer=" << buffer;
      EXPECT_EQ(memory.assignment, pipelined.assignment)
          << c.tag << " buffer=" << buffer << " (pipelined)";
    }
  }
}

TEST(BufferedMultilevel, PartitionIsValidAndBalanced) {
  const CsrGraph g = gen::random_geometric(2500, 5);
  for (const NodeId buffer : {300u, 4096u}) {
    const BufferedResult r =
        buffered_partition(g, 12, multilevel_config(buffer));
    verify_partition(g, r.assignment, 12);
    EXPECT_TRUE(is_balanced(g, r.assignment, 12, 0.03)) << "buffer=" << buffer;
  }
}

TEST(BufferedMultilevel, NeverWorseThanLpOnCoherentStream) {
  // A mesh streamed in row-major order: the regime the multilevel engine is
  // for. The per-buffer never-worse guarantee (the engine falls back to the
  // greedy placement when its own result loses under the model objective)
  // plus coarsening's global view must show up as a cut no worse than lp's.
  const CsrGraph g = gen::grid_2d(80, 80);
  BufferedConfig lp_config;
  lp_config.buffer_size = 1600;
  const BufferedResult lp = buffered_partition(g, 16, lp_config);
  const BufferedResult ml = buffered_partition(g, 16, multilevel_config(1600));
  EXPECT_LE(edge_cut(g, ml.assignment), edge_cut(g, lp.assignment));
}

TEST(BufferedMultilevel, DeterministicAcrossRuns) {
  const CsrGraph g = gen::random_geometric(3000, 9);
  const BufferedResult a = buffered_partition(g, 16, multilevel_config(512));
  const BufferedResult b = buffered_partition(g, 16, multilevel_config(512));
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(BufferedMultilevel, DegenerateInputs) {
  // k == 1: everything lands in block 0; the engine must not roll its RNG on
  // empty or trivial buffers.
  const CsrGraph path = testing::path_graph(100);
  const BufferedResult k1 = buffered_partition(path, 1, multilevel_config(16));
  for (const BlockId b : k1.assignment) {
    EXPECT_EQ(b, 0);
  }
  // Singleton buffers: every buffer model is a single node with no intra
  // edges (coarsening and refinement are both vacuous).
  const BufferedResult single = buffered_partition(path, 4, multilevel_config(1));
  verify_partition(path, single.assignment, 4);
  // More blocks than nodes in a buffer.
  const CsrGraph tiny = testing::cycle_graph(30);
  const BufferedResult wide = buffered_partition(tiny, 10, multilevel_config(3));
  verify_partition(tiny, wide.assignment, 10);
}

TEST(BufferedMultilevel, HierarchyParityAcrossEntryPoints) {
  // J-aware commits must stay bit-identical across entry points too (the
  // distance matrix only changes the gain arithmetic, not the data flow).
  const SystemHierarchy topo = SystemHierarchy::parse("4:3:2", "1:10:100");
  const CsrGraph g = gen::barabasi_albert(4000, 4, 3);
  const TempMetisFile file(g, "topo");
  BufferedConfig config = multilevel_config(1000);
  config.hierarchy = &topo;
  const BufferedResult memory = buffered_partition(g, topo.num_pes(), config);
  const BufferedResult disk =
      stream_buffered(file.path(), topo.num_pes(), config, sequential_policy());
  const BufferedResult pipelined =
      stream_buffered(file.path(), topo.num_pes(), config, PipelineConfig{});
  EXPECT_EQ(memory.assignment, disk.assignment);
  EXPECT_EQ(memory.assignment, pipelined.assignment);
  verify_partition(g, memory.assignment, topo.num_pes());
}

// ---------------------------------------------------------------------------
// The lp engine must be bit-for-bit unaffected by the engine plumbing: an
// explicit engine=kLp config reproduces the golden hash pinned (pre-engine-
// flag) in test_buffered_stream.cpp. If this fails while BufferedGolden
// passes, the BufferedConfig defaults and the explicit lp path diverged.
// ---------------------------------------------------------------------------

TEST(BufferedMultilevel, ExplicitLpEngineReproducesPinnedGolden) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  BufferedConfig config;
  config.engine = BufferedEngine::kLp;
  EXPECT_EQ(fnv1a(buffered_partition(ba, 24, config).assignment),
            0xcc49cbb6a1fc4da2ULL);
}

} // namespace
} // namespace oms
