/// \file test_checkpoint.cpp
/// \brief Crash-safe checkpoint/resume: serialization round-trips, corrupt
///        and truncated checkpoint files, resume validation, and the central
///        guarantee — a run killed right after a snapshot (the deterministic
///        checkpoint.die fault) resumes bit-identically to an uninterrupted
///        run, for every checkpointable algorithm including both buffered
///        inner engines.
#include "oms/stream/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/hashing.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/stream/window_partitioner.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"

namespace oms {
namespace {

constexpr BlockId kK = 4;
constexpr std::uint64_t kSeed = 3;

class CheckpointTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    const CsrGraph graph = gen::barabasi_albert(1500, 3, 11);
    graph_path_ = new std::string(::testing::TempDir() + "/oms_ckpt.graph");
    write_metis(graph, *graph_path_);
    num_nodes_ = graph.num_nodes();
    num_edges_ = graph.num_edges();
  }

  static void TearDownTestSuite() {
    std::remove(graph_path_->c_str());
    delete graph_path_;
  }

  void SetUp() override { FaultPlan::disarm(); }
  void TearDown() override { FaultPlan::disarm(); }

  std::string temp_path(const char* name) {
    return ::testing::TempDir() + "/oms_ckpt_" + name;
  }

  static std::unique_ptr<OnePassAssigner> make_assigner(const std::string& algo) {
    const auto total = static_cast<NodeWeight>(num_nodes_);
    PartitionConfig pc;
    pc.k = kK;
    pc.seed = kSeed;
    if (algo == "fennel") {
      return std::make_unique<FennelPartitioner>(num_nodes_, num_edges_, total, pc);
    }
    if (algo == "ldg") {
      return std::make_unique<LdgPartitioner>(num_nodes_, total, pc);
    }
    if (algo == "hashing") {
      return std::make_unique<HashingPartitioner>(num_nodes_, total, pc);
    }
    OmsConfig config;
    config.seed = kSeed;
    return std::make_unique<OnlineMultisection>(num_nodes_, num_edges_, total,
                                                kK, config);
  }

  /// The run_stream policy of a checkpointing (and/or resuming) pass:
  /// sequential unless \p ring_batches adds the reader thread.
  static PipelineConfig policy_of(const CheckpointConfig& ckpt,
                                  const CheckpointState* resume,
                                  std::size_t ring_batches = 0) {
    PipelineConfig policy;
    policy.ring_batches = ring_batches;
    policy.checkpoint = ckpt;
    policy.resume = resume;
    return policy;
  }

  /// One sequential pass, optionally checkpointing and/or resuming.
  static std::vector<BlockId> run_algo(const std::string& algo,
                                       const CheckpointConfig& ckpt = {},
                                       const CheckpointState* resume = nullptr) {
    auto assigner = make_assigner(algo);
    MetisNodeStream stream(*graph_path_);
    return run_stream(stream, *assigner, policy_of(ckpt, resume)).assignment;
  }

  /// One buffered pass over the test graph under \p policy.
  static std::vector<BlockId> run_buffered(const BufferedConfig& config,
                                           const PipelineConfig& policy) {
    MetisNodeStream stream(*graph_path_);
    BufferedPartitioner core(num_nodes_, static_cast<NodeWeight>(num_nodes_), kK,
                             config);
    return run_stream(stream, core, policy).assignment;
  }

  static std::string* graph_path_;
  static NodeId num_nodes_;
  static EdgeIndex num_edges_;
};

std::string* CheckpointTest::graph_path_ = nullptr;
NodeId CheckpointTest::num_nodes_ = 0;
EdgeIndex CheckpointTest::num_edges_ = 0;

// --- serialization primitives ----------------------------------------------

TEST_F(CheckpointTest, WriterReaderRoundTrip) {
  CheckpointWriter w;
  w.put_u32(7);
  w.put_u64(1ULL << 40);
  w.put_i64(-12345);
  w.put_f64(2.5);
  w.put_string("hello checkpoint");
  CheckpointReader r(w.bytes());
  EXPECT_EQ(r.get_u32(), 7u);
  EXPECT_EQ(r.get_u64(), 1ULL << 40);
  EXPECT_EQ(r.get_i64(), -12345);
  EXPECT_EQ(r.get_f64(), 2.5);
  EXPECT_EQ(r.get_string(), "hello checkpoint");
  EXPECT_NO_THROW(r.expect_end());
}

TEST_F(CheckpointTest, ReaderThrowsOnShortPayloadAndTrailingBytes) {
  CheckpointWriter w;
  w.put_u32(1);
  {
    CheckpointReader r(w.bytes());
    (void)r.get_u32();
    EXPECT_THROW((void)r.get_u64(), IoError); // past the end
  }
  {
    CheckpointReader r(w.bytes());
    EXPECT_THROW(r.expect_end(), IoError); // unread trailing bytes
  }
}

TEST_F(CheckpointTest, FileRoundTripPreservesMetaAndPayload) {
  CheckpointMeta meta;
  meta.algo = "fennel";
  meta.k = kK;
  meta.seed = kSeed;
  meta.num_nodes = 123;
  meta.nodes_streamed = 64;
  meta.input_offset = 4096;
  meta.input_line_no = 65;
  const std::vector<char> payload{'a', 'b', 'c', '\0', 'x'};
  const std::string path = temp_path("roundtrip.bin");
  write_checkpoint_file(path, meta, payload);
  const CheckpointState state = read_checkpoint_file(path);
  EXPECT_EQ(state.meta.algo, meta.algo);
  EXPECT_EQ(state.meta.k, meta.k);
  EXPECT_EQ(state.meta.seed, meta.seed);
  EXPECT_EQ(state.meta.num_nodes, meta.num_nodes);
  EXPECT_EQ(state.meta.nodes_streamed, meta.nodes_streamed);
  EXPECT_EQ(state.meta.input_offset, meta.input_offset);
  EXPECT_EQ(state.meta.input_line_no, meta.input_line_no);
  EXPECT_EQ(state.payload, payload);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CorruptTruncatedAndForeignFilesAllThrow) {
  CheckpointMeta meta;
  meta.algo = "oms";
  meta.k = kK;
  meta.seed = kSeed;
  meta.num_nodes = 99;
  const std::vector<char> payload(64, 'p');
  const std::string good = temp_path("good.bin");
  write_checkpoint_file(good, meta, payload);
  std::ifstream in(good, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  const std::string path = temp_path("broken.bin");
  const auto rewrite = [&](const std::vector<char>& data) {
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Flip one byte everywhere: magic, version, meta, payload, CRC.
  for (std::size_t at = 0; at < bytes.size(); at += 7) {
    std::vector<char> corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x20);
    rewrite(corrupt);
    EXPECT_THROW((void)read_checkpoint_file(path), IoError) << "byte " << at;
  }
  // Truncate at several depths.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    rewrite(std::vector<char>(bytes.begin(),
                              bytes.begin() + static_cast<std::ptrdiff_t>(keep)));
    EXPECT_THROW((void)read_checkpoint_file(path), IoError) << "keep " << keep;
  }
  // A file that was never a checkpoint.
  rewrite(std::vector<char>(100, 'z'));
  EXPECT_THROW((void)read_checkpoint_file(path), IoError);
  // Missing entirely.
  std::remove(path.c_str());
  EXPECT_THROW((void)read_checkpoint_file(path), IoError);
  std::remove(good.c_str());
}

TEST_F(CheckpointTest, ValidateResumeRefusesEveryMismatch) {
  CheckpointMeta meta;
  meta.algo = "oms";
  meta.k = kK;
  meta.seed = kSeed;
  meta.num_nodes = num_nodes_;
  EXPECT_NO_THROW(validate_resume(meta, "oms", kK, kSeed, num_nodes_));
  EXPECT_THROW(validate_resume(meta, "fennel", kK, kSeed, num_nodes_), IoError);
  EXPECT_THROW(validate_resume(meta, "oms", kK + 1, kSeed, num_nodes_), IoError);
  EXPECT_THROW(validate_resume(meta, "oms", kK, kSeed + 1, num_nodes_), IoError);
  EXPECT_THROW(validate_resume(meta, "oms", kK, kSeed, num_nodes_ + 1), IoError);
}

// --- kill/resume bit-identity ----------------------------------------------

TEST_F(CheckpointTest, KilledRunResumesBitIdenticallyForEveryOnePassAlgo) {
  for (const std::string algo : {"oms", "fennel", "ldg", "hashing"}) {
    const std::vector<BlockId> golden = run_algo(algo);

    const std::string ckpt_path = temp_path((algo + "_kill.bin").c_str());
    CheckpointConfig ckpt;
    ckpt.path = ckpt_path;
    ckpt.every_nodes = 400;

    // Phase 1: die right after the second snapshot lands (kill -9 stand-in).
    FaultPlan::arm(FaultPlan::parse("checkpoint.die@2"));
    EXPECT_THROW((void)run_algo(algo, ckpt), IoError) << algo;
    FaultPlan::disarm();

    // Phase 2: load, validate, resume — and keep checkpointing, so the resumed
    // run exercises the snapshot path too.
    const CheckpointState state = read_checkpoint_file(ckpt_path);
    EXPECT_EQ(state.meta.nodes_streamed, 800u) << algo;
    EXPECT_NO_THROW(
        validate_resume(state.meta, algo, kK, kSeed, num_nodes_));
    const std::vector<BlockId> resumed = run_algo(algo, ckpt, &state);
    EXPECT_EQ(resumed, golden) << algo << ": resumed run diverged";
    std::remove(ckpt_path.c_str());
  }
}

TEST_F(CheckpointTest, KilledBufferedRunResumesBitIdenticallyForBothEngines) {
  for (const bool multilevel : {false, true}) {
    BufferedConfig config;
    config.buffer_size = 200;
    config.seed = kSeed;
    if (multilevel) {
      config.engine = BufferedEngine::kMultilevel;
    }
    const std::string algo = buffered_checkpoint_algo_id(config);
    const std::vector<BlockId> golden = run_buffered(config, policy_of({}, nullptr));

    const std::string ckpt_path = temp_path((algo + "_kill.bin").c_str());
    CheckpointConfig ckpt;
    ckpt.path = ckpt_path;
    ckpt.every_nodes = 500; // lands on the first buffer boundary >= 500

    FaultPlan::arm(FaultPlan::parse("checkpoint.die@1"));
    EXPECT_THROW((void)run_buffered(config, policy_of(ckpt, nullptr)), IoError)
        << algo;
    FaultPlan::disarm();

    const CheckpointState state = read_checkpoint_file(ckpt_path);
    EXPECT_NO_THROW(validate_resume(state.meta, algo, kK, kSeed, num_nodes_));
    const std::vector<BlockId> resumed =
        run_buffered(config, policy_of(ckpt, &state));
    EXPECT_EQ(resumed, golden) << algo << ": resumed run diverged";
    std::remove(ckpt_path.c_str());
  }
}

TEST_F(CheckpointTest, ResumeFromEverySnapshotMatchesGolden) {
  // Resume bit-identity must hold from *any* cadence point, not just one:
  // snapshot at each multiple of 300 nodes, resume from each in turn.
  const std::string algo = "fennel";
  const std::vector<BlockId> golden = run_algo(algo);
  for (std::uint64_t die = 1; die <= 4; ++die) {
    const std::string ckpt_path = temp_path("sweep.bin");
    CheckpointConfig ckpt;
    ckpt.path = ckpt_path;
    ckpt.every_nodes = 300;
    FaultPlan::arm(
        FaultPlan::parse("checkpoint.die@" + std::to_string(die)));
    EXPECT_THROW((void)run_algo(algo, ckpt), IoError);
    FaultPlan::disarm();
    const CheckpointState state = read_checkpoint_file(ckpt_path);
    EXPECT_EQ(state.meta.nodes_streamed, die * 300) << "die " << die;
    const std::vector<BlockId> resumed = run_algo(algo, ckpt, &state);
    EXPECT_EQ(resumed, golden) << "resumed from snapshot " << die;
    std::remove(ckpt_path.c_str());
  }
}

TEST_F(CheckpointTest, PipelinedRunsSnapshotAndResumeLikeSequentialOnes) {
  // With a reader thread parsing ahead, a snapshot still records the position
  // after the last *consumed* batch: same cadence, and a resume on either
  // route reproduces the uninterrupted run.
  const std::vector<BlockId> golden = run_algo("fennel");
  const std::string ckpt_path = temp_path("pipelined_kill.bin");
  CheckpointConfig ckpt;
  ckpt.path = ckpt_path;
  ckpt.every_nodes = 300;
  {
    auto assigner = make_assigner("fennel");
    MetisNodeStream stream(*graph_path_);
    FaultPlan::arm(FaultPlan::parse("checkpoint.die@2"));
    EXPECT_THROW((void)run_stream(stream, *assigner, policy_of(ckpt, nullptr, 4)),
                 IoError);
    FaultPlan::disarm();
  }
  const CheckpointState state = read_checkpoint_file(ckpt_path);
  EXPECT_EQ(state.meta.nodes_streamed, 600u);
  for (const std::size_t ring : {std::size_t{0}, std::size_t{4}}) {
    auto assigner = make_assigner("fennel");
    MetisNodeStream stream(*graph_path_);
    const PipelineConfig policy = policy_of(ckpt, &state, ring);
    EXPECT_EQ(run_stream(stream, *assigner, policy).assignment, golden)
        << "ring=" << ring;
  }

  BufferedConfig config;
  config.buffer_size = 200;
  config.seed = kSeed;
  const std::vector<BlockId> buffered_golden =
      run_buffered(config, policy_of({}, nullptr));
  ckpt.every_nodes = 500;
  FaultPlan::arm(FaultPlan::parse("checkpoint.die@1"));
  EXPECT_THROW((void)run_buffered(config, policy_of(ckpt, nullptr, 4)), IoError);
  FaultPlan::disarm();
  const CheckpointState buffered_state = read_checkpoint_file(ckpt_path);
  EXPECT_EQ(buffered_state.meta.nodes_streamed, 600u); // first boundary >= 500
  EXPECT_EQ(run_buffered(config, policy_of(ckpt, &buffered_state, 4)),
            buffered_golden);
  std::remove(ckpt_path.c_str());
}

TEST_F(CheckpointTest, PayloadAlgorithmMismatchSurfacesCleanly) {
  // A checkpoint whose payload belongs to a different algorithm family (here:
  // a buffered payload fed to a one-pass assigner) must raise IoError through
  // the bounds-checked reader, never misload state.
  BufferedConfig config;
  config.buffer_size = 200;
  config.seed = kSeed;
  const std::string ckpt_path = temp_path("mismatch.bin");
  CheckpointConfig ckpt;
  ckpt.path = ckpt_path;
  ckpt.every_nodes = 500;
  FaultPlan::arm(FaultPlan::parse("checkpoint.die@1"));
  EXPECT_THROW((void)run_buffered(config, policy_of(ckpt, nullptr)), IoError);
  FaultPlan::disarm();
  CheckpointState state = read_checkpoint_file(ckpt_path);
  // Skip validate_resume on purpose (its algo check would already refuse) to
  // prove the payload layer alone cannot be tricked into silent corruption.
  EXPECT_THROW((void)run_algo("fennel", CheckpointConfig{}, &state), IoError);
  std::remove(ckpt_path.c_str());
}

TEST_F(CheckpointTest, WindowRefusesCheckpointingWithCleanError) {
  // WindowPartitioner keeps delayed in-flight nodes and does not serialize;
  // asking it to checkpoint must fail with IoError at the first snapshot.
  CheckpointConfig ckpt;
  ckpt.path = temp_path("window.bin");
  ckpt.every_nodes = 100;
  WindowConfig wc;
  wc.window_size = 32;
  wc.seed = kSeed;
  WindowPartitioner window(num_nodes_, static_cast<NodeWeight>(num_nodes_), wc,
                           kK);
  MetisNodeStream stream(*graph_path_);
  try {
    (void)run_stream(stream, window, policy_of(ckpt, nullptr));
    FAIL() << "window checkpointing did not fail";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos)
        << e.what();
  }
  std::remove(ckpt.path.c_str());
}

} // namespace
} // namespace oms
