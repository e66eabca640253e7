/// \file test_partitioner_facade.cpp
/// \brief The facade parity wall: oms::Partitioner::partition() must be
///        bit-identical to calling each legacy driver family directly —
///        pinned with the same golden fingerprints the core/buffered suites
///        use, across the in-memory, from-disk and pipelined routes — plus
///        the artifact snapshot round trip, normalize()'s error contract
///        (shared with the in-memory overload) and the in-memory thread rule.
#include "oms/oms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/edgepart/driver.hpp"
#include "oms/edgepart/hdrf.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/stream/window_partitioner.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

using testing::fnv1a;

class TempFile {
public:
  TempFile(const std::string& contents, const std::string& tag,
           const std::string& ext) {
    path_ = ::testing::TempDir() + "/oms_facade_" + tag + ext;
    std::ofstream out(path_);
    out << contents;
  }
  TempFile(const CsrGraph& graph, const std::string& tag) {
    path_ = ::testing::TempDir() + "/oms_facade_" + tag + ".graph";
    write_metis(graph, path_);
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

/// Same weighted instance as the core golden suite (test_golden_equivalence):
/// non-unit node and edge weights keep the capacity math honest.
[[nodiscard]] CsrGraph weighted_graph() {
  Rng rng(777);
  const NodeId n = 1200;
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    builder.set_node_weight(u, 1 + static_cast<NodeWeight>(rng.next_below(5)));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (int d = 0; d < 4; ++d) {
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (v != u) {
        builder.add_edge(u, v, 1 + static_cast<EdgeWeight>(rng.next_below(9)));
      }
    }
  }
  return std::move(builder).build();
}

[[nodiscard]] PartitionRequest request_for(const std::string& algo, BlockId k) {
  PartitionRequest req;
  req.algo = algo;
  req.k = k;
  return req;
}

/// Run one request through every node-stream route the facade dispatches —
/// in-memory overload, path-based in-memory, --from-disk sequential,
/// --pipeline — and require one identical assignment from all four.
[[nodiscard]] std::uint64_t all_routes_hash(const CsrGraph& graph,
                                            PartitionRequest req,
                                            const std::string& tag) {
  const Partitioner partitioner;
  const PartitionArtifact in_memory = partitioner.partition(graph, req);
  EXPECT_EQ(in_memory.assignment.size(), graph.num_nodes()) << tag;

  const TempFile file(graph, tag);
  req.graph_path = file.path();
  EXPECT_EQ(partitioner.partition(req).assignment, in_memory.assignment)
      << tag << ": loaded-from-path route diverged";

  req.from_disk = true;
  EXPECT_EQ(partitioner.partition(req).assignment, in_memory.assignment)
      << tag << ": from-disk route diverged";

  req.pipeline = true;
  EXPECT_EQ(partitioner.partition(req).assignment, in_memory.assignment)
      << tag << ": pipelined route diverged";

  return fnv1a(in_memory.assignment);
}

// ---------------------------------------------------------------------------
// Golden parity: the facade must reproduce the exact fingerprints the legacy
// drivers are pinned to in core/test_golden_equivalence and
// buffered/test_buffered_stream. A mismatch means the facade changed a
// decision somewhere on the way to the driver.
// ---------------------------------------------------------------------------

TEST(FacadeGolden, OmsDefaults) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  EXPECT_EQ(all_routes_hash(ba, request_for("oms", 24), "oms24"),
            0xdf5910a0b8af5c66ULL);
}

TEST(FacadeGolden, FlatFennel) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  EXPECT_EQ(all_routes_hash(ba, request_for("fennel", 96), "fennel96"),
            0x2d45a97b4c53b8eeULL);
}

TEST(FacadeGolden, FlatLdg) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  EXPECT_EQ(all_routes_hash(ba, request_for("ldg", 33), "ldg33"),
            0xee67e2db8124ef7dULL);
}

TEST(FacadeGolden, FlatHashing) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  PartitionRequest req = request_for("hashing", 77);
  req.seed = 5;
  EXPECT_EQ(all_routes_hash(ba, req, "hashing77"), 0x33d0cc2987716cf5ULL);
}

TEST(FacadeGolden, BufferedLpDefaults) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  PartitionRequest req = request_for("buffered", 24);
  EXPECT_EQ(all_routes_hash(ba, req, "buffered24"), 0xcc49cbb6a1fc4da2ULL);
  EXPECT_EQ(Partitioner().partition(ba, req).algo, "buffered:lp");
}

TEST(FacadeGolden, OmsMappingOnWeightedGraph) {
  PartitionRequest req;
  req.algo = "oms";
  req.hierarchy = "4:16:2";
  const CsrGraph g = weighted_graph();
  const PartitionArtifact artifact = Partitioner().partition(g, req);
  EXPECT_EQ(fnv1a(artifact.assignment), 0x18f8feb794389b1cULL);
  EXPECT_EQ(artifact.k, 128); // 4 * 16 * 2 PEs, derived from the hierarchy
  ASSERT_TRUE(artifact.hierarchy.has_value());
  EXPECT_GE(artifact.metrics.mapping_j, 0.0);
  // rank_of answers through the *regular* tree of the topology.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(artifact.rank_of(v),
              artifact.tree().leaf_block_id(artifact.where(v)));
  }
}

// ---------------------------------------------------------------------------
// Driver-equality parity for the families without public golden pins.
// ---------------------------------------------------------------------------

TEST(FacadeParity, WindowMatchesDriver) {
  const CsrGraph grid = gen::grid_2d(40, 40);
  PartitionRequest req = request_for("window", 8);
  req.window_size = 64;

  WindowConfig wc;
  wc.window_size = 64;
  wc.epsilon = req.epsilon;
  wc.seed = req.seed;
  WindowPartitioner window(grid.num_nodes(), grid.total_node_weight(), wc, 8);
  const std::vector<BlockId> direct = run_one_pass(grid, window, 1).assignment;

  EXPECT_EQ(Partitioner().partition(grid, req).assignment, direct);
}

TEST(FacadeParity, BufferedMultilevelMatchesDriver) {
  const CsrGraph ba = gen::barabasi_albert(2000, 4, 3);
  PartitionRequest req = request_for("buffered", 16);
  req.buffered_engine = "multilevel";
  req.buffer_size = 512;

  BufferedConfig bc;
  bc.buffer_size = 512;
  bc.engine = BufferedEngine::kMultilevel;
  const std::vector<BlockId> direct =
      buffered_partition(ba, 16, bc).assignment;

  const PartitionArtifact artifact = Partitioner().partition(ba, req);
  EXPECT_EQ(artifact.assignment, direct);
  EXPECT_EQ(artifact.algo, "buffered:multilevel");
}

TEST(FacadeParity, EdgePartitionMatchesDriver) {
  // A deterministic edge list; .edgelist makes format autodetection pick the
  // vertex-cut route with the hdrf default.
  Rng rng(4242);
  std::string lines = "# facade parity edge list\n";
  for (int i = 0; i < 4000; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(900));
    const auto v = static_cast<NodeId>(rng.next_below(900));
    lines += std::to_string(u) + " " + std::to_string(v) + "\n";
  }
  const TempFile file(lines, "edges", ".edgelist");

  PartitionRequest req;
  req.graph_path = file.path();
  req.k = 12;

  EdgePartConfig config;
  config.k = 12;
  config.lambda = req.lambda;
  config.epsilon = req.epsilon;
  config.seed = req.seed;
  HdrfPartitioner direct(config);
  EdgeListStream stream(file.path());
  PipelineConfig sequential;
  sequential.ring_batches = 0; // no reader thread
  const EdgePartitionResult reference = run_stream(stream, direct, sequential);

  const PartitionArtifact artifact = Partitioner().partition(req);
  EXPECT_TRUE(artifact.edge_partition);
  EXPECT_EQ(artifact.algo, "hdrf");
  EXPECT_EQ(artifact.assignment, reference.edge_assignment);
  EXPECT_EQ(artifact.num_edges, reference.stats.num_edges);
  EXPECT_EQ(artifact.num_nodes, reference.stats.num_vertices);
  EXPECT_DOUBLE_EQ(artifact.metrics.replication_factor,
                   replication_factor(direct.replicas()));
  // where() on an edge-partition artifact answers per *edge index*.
  EXPECT_EQ(artifact.where(0), reference.edge_assignment[0]);
  EXPECT_EQ(artifact.where(artifact.assignment.size()), kInvalidBlock);
}

// ---------------------------------------------------------------------------
// The artifact snapshot round trip (the format oms_serve SNAPSHOT/--artifact
// rides): every serialized field must survive, lookups must answer the same,
// and corrupt bytes must surface as IoError.
// ---------------------------------------------------------------------------

TEST(FacadeArtifact, SnapshotRoundTripPreservesAnswers) {
  const CsrGraph ba = gen::barabasi_albert(1500, 4, 9);
  PartitionRequest req;
  req.algo = "oms";
  req.hierarchy = "4:4:2";
  const PartitionArtifact artifact = Partitioner().partition(ba, req);

  const std::string path = ::testing::TempDir() + "/oms_facade_artifact.part";
  write_artifact(artifact, path);
  const PartitionArtifact restored = read_artifact(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.algo, artifact.algo);
  EXPECT_EQ(restored.k, artifact.k);
  EXPECT_EQ(restored.seed, artifact.seed);
  EXPECT_EQ(restored.num_nodes, artifact.num_nodes);
  EXPECT_EQ(restored.num_edges, artifact.num_edges);
  EXPECT_EQ(restored.assignment, artifact.assignment);
  EXPECT_DOUBLE_EQ(restored.metrics.edge_cut, artifact.metrics.edge_cut);
  EXPECT_DOUBLE_EQ(restored.metrics.mapping_j, artifact.metrics.mapping_j);
  ASSERT_TRUE(restored.hierarchy.has_value());
  EXPECT_EQ(restored.hierarchy->extents(), artifact.hierarchy->extents());
  for (std::uint64_t v = 0; v < restored.num_nodes; ++v) {
    ASSERT_EQ(restored.where(v), artifact.where(v)) << "node " << v;
    ASSERT_EQ(restored.rank_of(v), artifact.rank_of(v)) << "node " << v;
  }
}

TEST(FacadeArtifact, CorruptionIsIoError) {
  PartitionArtifact artifact;
  artifact.algo = "oms";
  artifact.k = 3;
  artifact.assignment = {0, 1, 2, 0};
  artifact.rebuild_tree();
  const std::string path = ::testing::TempDir() + "/oms_facade_corrupt.part";
  write_artifact(artifact, path);

  // Flip one payload byte: the CRC must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\x7f');
  }
  EXPECT_THROW((void)read_artifact(path), IoError);

  // Truncate: strict length discipline.
  write_artifact(artifact, path);
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> all((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size() - 3));
  }
  EXPECT_THROW((void)read_artifact(path), IoError);

  EXPECT_THROW((void)read_artifact(path + ".does-not-exist"), IoError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// normalize(): the error contract the CLIs map to exit 2.
// ---------------------------------------------------------------------------

TEST(FacadeNormalize, RejectsContradictoryRequests) {
  const auto reject = [](PartitionRequest req) {
    req.graph_path = req.graph_path.empty() ? "/dev/null" : req.graph_path;
    EXPECT_THROW((void)Partitioner::normalize(req), InvalidRequest);
  };
  // The problem checks both entry points share (no k, unknown or edge
  // algorithm, bad tuning) are pinned message by message in
  // BothEntryPointsShareTheProblemChecks.
  PartitionRequest req;
  req.k = 4;
  req.algo = "window";
  req.pipeline = true;
  req.io_threads = 4; // window commits in stream order
  reject(req);

  req = {};
  req.k = 4;
  req.buffered_engine = "turbo";
  reject(req);

  req = {};
  req.k = 4;
  req.checkpoint = "ckpt.bin";
  req.pipeline = true;
  req.io_threads = 2; // snapshots need one ordered consumer
  reject(req);

  req = {};
  req.k = 4;
  req.graph_path = "/no/such/file.graph";
  EXPECT_THROW((void)Partitioner::normalize(req), InvalidRequest);
}

TEST(FacadeNormalize, ResolvesDefaultsAndFormat) {
  PartitionRequest req;
  req.graph_path = "/dev/null";
  req.k = 4;
  const PartitionRequest metis = Partitioner::normalize(req);
  EXPECT_EQ(metis.format, "metis");
  EXPECT_EQ(metis.algo, "oms");

  req.graph_path = "/dev/null"; // extension sniffing is on the path only
  req.format = "edgelist";
  const PartitionRequest edges = Partitioner::normalize(req);
  EXPECT_EQ(edges.algo, "hdrf");

  req = {};
  req.graph_path = "/dev/null";
  req.hierarchy = "2:3:4";
  EXPECT_EQ(Partitioner::normalize(req).k, 24);
}

/// The InvalidRequest message \p run throws, or "" if it throws none.
[[nodiscard]] std::string rejection(const std::function<void()>& run) {
  try {
    run();
  } catch (const InvalidRequest& e) {
    return e.what();
  }
  return "";
}

TEST(FacadeNormalize, BothEntryPointsShareTheProblemChecks) {
  struct Case {
    const char* label;
    std::function<void(PartitionRequest&)> mutate;
    std::string message;
    /// Set where the in-memory overload names the problem differently: a
    /// METIS request calls an edge algorithm a format mismatch.
    std::string graph_message;
  };
  const std::vector<Case> cases = {
      {"unknown algo", [](PartitionRequest& r) { r.algo = "does-not-exist"; },
       "unknown --algo 'does-not-exist'", ""},
      {"edge algo in memory", [](PartitionRequest& r) { r.algo = "hdrf"; },
       "--algo hdrf needs --format edgelist",
       "in-memory partitioning needs a node algorithm, not 'hdrf'"},
      {"engine without buffered",
       [](PartitionRequest& r) { r.buffered_engine = "multilevel"; },
       "--buffered-engine requires --algo buffered", ""},
      {"negative epsilon", [](PartitionRequest& r) { r.epsilon = -0.5; },
       "--epsilon must be a finite value >= 0", ""},
      {"no k", [](PartitionRequest& r) { r.k = 0; }, "need --k or --hierarchy", ""},
      {"negative threads", [](PartitionRequest& r) { r.threads = -1; },
       "--threads must be >= 0 (0 = all hardware threads)", ""},
      {"negative io threads", [](PartitionRequest& r) { r.io_threads = -1; },
       "--io-threads must be >= 0 (0 = all hardware threads)", ""},
  };
  const CsrGraph graph = testing::path_graph(16);
  for (const Case& c : cases) {
    PartitionRequest req;
    req.graph_path = "/dev/null";
    req.k = 4;
    c.mutate(req);
    EXPECT_EQ(rejection([&] { (void)Partitioner::normalize(req); }), c.message)
        << c.label;
    EXPECT_EQ(rejection([&] { (void)Partitioner().partition(graph, req); }),
              c.graph_message.empty() ? c.message : c.graph_message)
        << c.label;
  }
}

TEST(FacadeNormalize, BoundsThreadCounts) {
  // normalize() starts no thread, so the bounds themselves are safe to probe
  // here (and only here).
  PartitionRequest req;
  req.graph_path = "/dev/null";
  req.k = 4;
  req.threads = kMaxThreads;
  req.io_threads = 0; // all hardware threads
  EXPECT_EQ(Partitioner::normalize(req).threads, kMaxThreads);

  req.threads = kMaxThreads + 1;
  EXPECT_EQ(rejection([&] { (void)Partitioner::normalize(req); }),
            "--threads must be <= " + std::to_string(kMaxThreads));

  req.threads = 1;
  req.pipeline = true;
  req.io_threads = kMaxThreads + 1;
  EXPECT_EQ(rejection([&] { (void)Partitioner::normalize(req); }),
            "--io-threads must be <= " + std::to_string(kMaxThreads));
}

// ---------------------------------------------------------------------------
// The in-memory thread rule: ordered consumers (window, buffered) commit in
// stream order and ignore --threads; the unordered one-pass assigners fan
// out and may overshoot Lmax by at most one node per thread (Section 3.4).
// ---------------------------------------------------------------------------

TEST(FacadeInMemory, OrderedConsumersIgnoreThreads) {
  const CsrGraph ba = gen::barabasi_albert(3000, 4, 21);
  for (const char* algo : {"window", "buffered"}) {
    PartitionRequest req = request_for(algo, 8);
    req.window_size = 64;
    req.buffer_size = 256;
    const std::vector<BlockId> sequential = Partitioner().partition(ba, req).assignment;
    req.threads = 4;
    EXPECT_EQ(Partitioner().partition(ba, req).assignment, sequential) << algo;
  }
}

TEST(FacadeInMemory, UnorderedConsumersStayWithinOvershootBound) {
  const CsrGraph g = weighted_graph();
  const BlockId k = 16;
  const int threads = 2;
  const NodeWeight lmax = max_block_weight(g.total_node_weight(), k, 0.03);
  NodeWeight max_node_weight = 1;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    max_node_weight = std::max(max_node_weight, g.node_weight(u));
  }
  for (const char* algo : {"hashing", "fennel", "oms"}) {
    PartitionRequest req = request_for(algo, k);
    req.threads = threads;
    const PartitionArtifact artifact = Partitioner().partition(g, req);
    ASSERT_EQ(artifact.assignment.size(), g.num_nodes()) << algo;
    for (const BlockId b : artifact.assignment) {
      ASSERT_TRUE(b >= 0 && b < k) << algo << ": block " << b;
    }
    for (const NodeWeight w : block_weights_of(g, artifact.assignment, k)) {
      EXPECT_LE(w, lmax + threads * max_node_weight) << algo;
    }
  }
}

TEST(FacadeNormalize, ResumeMismatchIsInvalidRequest) {
  const CsrGraph g = testing::path_graph(64);
  const TempFile file(g, "resume");
  // A checkpoint stamped with different parameters than the run.
  CheckpointMeta meta;
  meta.algo = "fennel";
  meta.k = 8;
  meta.seed = 99;
  meta.num_nodes = 64;
  const std::string ckpt = ::testing::TempDir() + "/oms_facade_resume.ckpt";
  write_checkpoint_file(ckpt, meta, {});

  PartitionRequest req;
  req.graph_path = file.path();
  req.algo = "fennel";
  req.k = 8;
  req.seed = 1; // checkpoint says 99
  req.resume = ckpt;
  EXPECT_THROW((void)Partitioner().partition(req), InvalidRequest);
  std::remove(ckpt.c_str());
}

} // namespace
} // namespace oms
