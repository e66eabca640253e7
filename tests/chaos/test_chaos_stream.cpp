/// \file test_chaos_stream.cpp
/// \brief Chaos sweep over every disk-streaming route: under any seeded fault
///        schedule a run must either raise a clean oms::IoError or produce a
///        result bit-identical to the fault-free golden run — never hang,
///        crash, or return silently different assignments.
///
/// The sweep arms FaultPlan::seeded(s) for a range of seeds; the targeted
/// cases below pin each injection site's exact contract (transient reads
/// heal, hard read errors surface, corruption aborts or skips, a dead
/// producer thread degrades to the sequential path bit-identically).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/edgepart/driver.hpp"
#include "oms/edgepart/hdrf.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/stream/window_partitioner.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

constexpr BlockId kK = 4;
constexpr std::uint64_t kSeed = 1;

/// Shared on-disk inputs plus the fault-free header facts, created once.
/// Every test disarms on entry and exit, so a failing case cannot poison its
/// neighbors through the process-global plan.
class ChaosStreamTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    const CsrGraph graph = gen::barabasi_albert(1200, 3, 7);
    metis_path_ = new std::string(::testing::TempDir() + "/oms_chaos.graph");
    edge_path_ = new std::string(::testing::TempDir() + "/oms_chaos.edgelist");
    write_metis(graph, *metis_path_);
    write_edge_list(graph, *edge_path_);
    num_nodes_ = graph.num_nodes();
    num_edges_ = graph.num_edges();
  }

  static void TearDownTestSuite() {
    std::remove(metis_path_->c_str());
    std::remove(edge_path_->c_str());
    delete metis_path_;
    delete edge_path_;
  }

  void SetUp() override { FaultPlan::disarm(); }
  void TearDown() override { FaultPlan::disarm(); }

  // --- drivers under test (fresh state per call; safe to rerun armed) ------

  static std::vector<BlockId> one_pass_sequential() {
    FennelPartitioner fennel(num_nodes_, num_edges_,
                             static_cast<NodeWeight>(num_nodes_), config());
    MetisNodeStream stream(*metis_path_);
    return run_stream(stream, fennel, sequential()).assignment;
  }

  static std::vector<BlockId> one_pass_pipelined() {
    FennelPartitioner fennel(num_nodes_, num_edges_,
                             static_cast<NodeWeight>(num_nodes_), config());
    MetisNodeStream stream(*metis_path_);
    return run_stream(stream, fennel, pipelined()).assignment;
  }

  static std::vector<BlockId> window_sequential() {
    WindowConfig wc;
    wc.window_size = 64;
    wc.seed = kSeed;
    WindowPartitioner window(num_nodes_, static_cast<NodeWeight>(num_nodes_),
                             wc, kK);
    MetisNodeStream stream(*metis_path_);
    return run_stream(stream, window, sequential()).assignment;
  }

  static std::vector<BlockId> buffered_sequential() {
    return buffered(sequential());
  }

  static std::vector<BlockId> buffered_pipelined() { return buffered(pipelined()); }

  static std::vector<BlockId> edge_sequential() {
    HdrfPartitioner hdrf(edge_config());
    EdgeListStream stream(*edge_path_);
    return run_stream(stream, hdrf, sequential()).edge_assignment;
  }

  static std::vector<BlockId> edge_pipelined() {
    HdrfPartitioner hdrf(edge_config());
    EdgeListStream stream(*edge_path_);
    return run_stream(stream, hdrf, pipelined()).edge_assignment;
  }

  static std::vector<BlockId> buffered(const PipelineConfig& policy) {
    MetisNodeStream stream(*metis_path_);
    BufferedPartitioner core(num_nodes_, static_cast<NodeWeight>(num_nodes_), kK,
                             buffered_config());
    return run_stream(stream, core, policy).assignment;
  }

  /// No reader thread: fill and consume alternate on the calling thread.
  static PipelineConfig sequential() {
    PipelineConfig policy;
    policy.ring_batches = 0;
    return policy;
  }

  static PipelineConfig pipelined() {
    PipelineConfig policy;
    policy.watchdog_ms = 20000; // backstop: a hang must fail, not wedge CI
    return policy;
  }

  /// The chaos contract, applied to one driver under one armed plan: clean
  /// IoError or golden-identical output. Anything else fails the test.
  template <typename Driver>
  static void expect_clean_or_identical(Driver&& driver,
                                        const std::vector<BlockId>& golden,
                                        const std::string& label) {
    try {
      const std::vector<BlockId> got = driver();
      EXPECT_EQ(got, golden) << label << ": run completed with different output";
    } catch (const IoError&) {
      // A clean failure is an acceptable outcome under injected faults.
    }
  }

  static PartitionConfig config() {
    PartitionConfig pc;
    pc.k = kK;
    pc.seed = kSeed;
    return pc;
  }

  static BufferedConfig buffered_config() {
    BufferedConfig bc;
    bc.buffer_size = 256;
    bc.seed = kSeed;
    return bc;
  }

  static EdgePartConfig edge_config() {
    EdgePartConfig ec;
    ec.k = kK;
    ec.seed = kSeed;
    return ec;
  }

  static std::string* metis_path_;
  static std::string* edge_path_;
  static NodeId num_nodes_;
  static EdgeIndex num_edges_;
};

std::string* ChaosStreamTest::metis_path_ = nullptr;
std::string* ChaosStreamTest::edge_path_ = nullptr;
NodeId ChaosStreamTest::num_nodes_ = 0;
EdgeIndex ChaosStreamTest::num_edges_ = 0;

// --- the seeded sweep -------------------------------------------------------

TEST_F(ChaosStreamTest, SeededFaultSweepOverEveryDriver) {
  struct NamedDriver {
    const char* name;
    std::vector<BlockId> (*run)();
  };
  const NamedDriver drivers[] = {
      {"one-pass sequential", &one_pass_sequential},
      {"one-pass pipelined", &one_pass_pipelined},
      {"window sequential", &window_sequential},
      {"buffered sequential", &buffered_sequential},
      {"buffered pipelined", &buffered_pipelined},
      {"edge sequential", &edge_sequential},
      {"edge pipelined", &edge_pipelined},
  };
  for (const NamedDriver& driver : drivers) {
    const std::vector<BlockId> golden = driver.run(); // disarmed
    for (std::uint64_t draw = 0; draw < 12; ++draw) {
      const std::uint64_t seed = oms::testing::draw_seed(draw);
      FaultPlan plan = FaultPlan::seeded(seed);
      FaultPlan::arm(plan);
      expect_clean_or_identical(driver.run, golden,
                                std::string(driver.name) + " under [" +
                                    plan.describe() + "] (seed " +
                                    std::to_string(seed) + ")");
      FaultPlan::disarm();
    }
  }
}

// --- targeted site contracts ------------------------------------------------

TEST_F(ChaosStreamTest, TransientReadFailureHealsBitIdentically) {
  const std::vector<BlockId> golden = one_pass_sequential();
  FaultPlan::arm(FaultPlan::parse("read.transient@1"));
  EXPECT_EQ(one_pass_sequential(), golden);
}

TEST_F(ChaosStreamTest, ShortReadsMakeProgressBitIdentically) {
  const std::vector<BlockId> golden = one_pass_sequential();
  FaultPlan::arm(FaultPlan::parse("read.short@1+2")); // every other read: 1 byte
  EXPECT_EQ(one_pass_sequential(), golden);
}

TEST_F(ChaosStreamTest, PersistentTransientFailureExhaustsRetries) {
  FaultPlan::arm(FaultPlan::parse("read.transient@1+1")); // every read fails
  try {
    (void)one_pass_sequential();
    FAIL() << "retries never exhausted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("retries exhausted"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ChaosStreamTest, HardReadErrorRaisesIoError) {
  // The small test file lands in the first read chunk, so the hard failure
  // must be scheduled on read #1 to be reachable at all.
  FaultPlan::arm(FaultPlan::parse("read.error@1"));
  EXPECT_THROW((void)one_pass_sequential(), IoError);
}

TEST_F(ChaosStreamTest, CorruptChunkAbortsByDefault) {
  FaultPlan::arm(FaultPlan::parse("read.corrupt@1"));
  EXPECT_THROW((void)one_pass_sequential(), IoError);
}

TEST_F(ChaosStreamTest, CorruptChunkIsSurvivableUnderSkipPolicy) {
  FennelPartitioner fennel(num_nodes_, num_edges_,
                           static_cast<NodeWeight>(num_nodes_), config());
  // Armed before the stream exists: the whole file arrives in refill #1, so
  // the corruption site only fires if the plan is live during construction.
  FaultPlan::arm(FaultPlan::parse("read.corrupt@1"));
  MetisNodeStream stream(*metis_path_);
  StreamErrorPolicy policy;
  policy.action = StreamErrorPolicy::Action::kSkip;
  stream.set_error_policy(policy);
  fennel.prepare(1);
  WorkCounters counters;
  testing::for_each_node(stream, [&](const StreamedNode& node) {
    fennel.assign(node, 0, counters);
  });
  EXPECT_EQ(stream.error_stats().lines_skipped, 1u);
  EXPECT_EQ(fennel.take_assignment().size(), num_nodes_);
}

TEST_F(ChaosStreamTest, ConsumerThrowPropagatesFromThePipeline) {
  FaultPlan::arm(FaultPlan::parse("consume.throw@1"));
  EXPECT_THROW((void)one_pass_pipelined(), IoError);
}

TEST_F(ChaosStreamTest, ProducerSpawnFailureDegradesSequentiallyBitIdentically) {
  const std::vector<BlockId> golden = one_pass_pipelined();
  FaultPlan::arm(FaultPlan::parse("thread.spawn@1"));
  EXPECT_EQ(one_pass_pipelined(), golden);
}

TEST_F(ChaosStreamTest, QueueDelayOnlyCostsTimeNeverCorrectness) {
  const std::vector<BlockId> golden = one_pass_pipelined();
  FaultPlan::arm(FaultPlan::parse("queue.delay@1+1,fill.delay@1+1"));
  EXPECT_EQ(one_pass_pipelined(), golden);
}

TEST_F(ChaosStreamTest, BufferedPipelineSurvivesSpawnFailure) {
  const std::vector<BlockId> golden = buffered_pipelined();
  FaultPlan::arm(FaultPlan::parse("thread.spawn@1"));
  EXPECT_EQ(buffered_pipelined(), golden);
}

TEST_F(ChaosStreamTest, EdgePipelineConsumerThrowRaisesCleanly) {
  FaultPlan::arm(FaultPlan::parse("consume.throw@1"));
  EXPECT_THROW((void)edge_pipelined(), IoError);
}

} // namespace
} // namespace oms
