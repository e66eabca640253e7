#include "oms/api/partitioner.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/core/online_multisection.hpp"
#include "oms/edgepart/dbh.hpp"
#include "oms/edgepart/driver.hpp"
#include "oms/edgepart/grid2d.hpp"
#include "oms/edgepart/hdrf.hpp"
#include "oms/edgepart/hierarchical_hdrf.hpp"
#include "oms/graph/io.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/hashing.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/stream/error_policy.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/stream/window_partitioner.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/io_error.hpp"

namespace oms {
namespace {

/// Edge-list extensions autodetected when the format is "auto".
[[nodiscard]] bool looks_like_edge_list(const std::string& path) {
  const std::string ext = std::filesystem::path(path).extension().string();
  return ext == ".edgelist" || ext == ".el" || ext == ".edges" || ext == ".snap";
}

[[nodiscard]] bool is_edge_algo(const std::string& algo) {
  return algo == "hdrf" || algo == "dbh" || algo == "grid2d";
}

[[nodiscard]] bool is_node_algo(const std::string& algo) {
  return algo == "oms" || algo == "fennel" || algo == "ldg" ||
         algo == "hashing" || algo == "window" || algo == "buffered";
}

[[nodiscard]] std::optional<SystemHierarchy> topo_of(const PartitionRequest& req) {
  if (!req.hierarchy.has_value()) {
    return std::nullopt;
  }
  return SystemHierarchy::parse(*req.hierarchy, req.distances);
}

/// Request-level validation shared by the disk and in-memory entry points.
/// Every rejected combination keeps the exact diagnostic the CLI printed
/// before the facade existed (minus the "error: " prefix the CLIs add).
void validate_tuning(const PartitionRequest& req) {
  if (req.buffered_engine.has_value() && *req.buffered_engine != "lp" &&
      *req.buffered_engine != "multilevel") {
    throw InvalidRequest("--buffered-engine must be 'lp' or 'multilevel' (got '" +
                         *req.buffered_engine + "')");
  }
  if (req.buffered_engine.has_value() && req.algo != "buffered") {
    throw InvalidRequest("--buffered-engine requires --algo buffered");
  }
  if (!std::isfinite(req.epsilon) || req.epsilon < 0.0) {
    // The partitioners OMS_ASSERT on negative slack (and NaN fails every
    // capacity comparison); reject both here instead.
    throw InvalidRequest("--epsilon must be a finite value >= 0");
  }
  constexpr long kMaxNodeCount = std::numeric_limits<NodeId>::max();
  if (req.buffer_size < 1 || req.buffer_size > kMaxNodeCount) {
    throw InvalidRequest("--buffer-size must be in [1, " +
                         std::to_string(kMaxNodeCount) + "]");
  }
  if (req.refine_iters < 0 ||
      req.refine_iters > std::numeric_limits<int>::max()) {
    throw InvalidRequest("--refine-iters must be >= 0");
  }
  if (req.window_size < 1 || req.window_size > kMaxNodeCount) {
    throw InvalidRequest("--window-size must be in [1, " +
                         std::to_string(kMaxNodeCount) + "]");
  }
}

[[nodiscard]] std::unique_ptr<OnePassAssigner> make_assigner(
    const PartitionRequest& req, const std::optional<SystemHierarchy>& topo,
    NodeId n, EdgeIndex m, NodeWeight total_weight) {
  PartitionConfig pc;
  pc.k = req.k;
  pc.epsilon = req.epsilon;
  pc.seed = req.seed;
  if (req.algo == "fennel") {
    return std::make_unique<FennelPartitioner>(n, m, total_weight, pc);
  }
  if (req.algo == "ldg") {
    return std::make_unique<LdgPartitioner>(n, total_weight, pc);
  }
  if (req.algo == "hashing") {
    return std::make_unique<HashingPartitioner>(n, total_weight, pc);
  }
  if (req.algo == "window") {
    WindowConfig wc;
    wc.window_size = static_cast<NodeId>(req.window_size);
    wc.epsilon = req.epsilon;
    wc.seed = req.seed;
    return std::make_unique<WindowPartitioner>(n, total_weight, wc, req.k);
  }
  OMS_ASSERT_MSG(req.algo == "oms", "normalize() admits only known algorithms");
  OmsConfig config;
  config.epsilon = req.epsilon;
  config.seed = req.seed;
  if (topo.has_value()) {
    return std::make_unique<OnlineMultisection>(n, m, total_weight, *topo, config);
  }
  return std::make_unique<OnlineMultisection>(n, m, total_weight, req.k, config);
}

[[nodiscard]] BufferedConfig buffered_config(const PartitionRequest& req,
                                             const std::optional<SystemHierarchy>& topo) {
  BufferedConfig bc;
  bc.buffer_size = static_cast<NodeId>(req.buffer_size);
  bc.epsilon = req.epsilon;
  bc.seed = req.seed;
  bc.refinement_iterations = static_cast<int>(req.refine_iters);
  if (req.buffered_engine.has_value() && *req.buffered_engine == "multilevel") {
    bc.engine = BufferedEngine::kMultilevel;
  }
  if (topo.has_value()) {
    // Buffered streaming then optimizes the mapping objective J directly
    // (distance-weighted gains) instead of plain edge cut.
    bc.hierarchy = &*topo;
  }
  return bc;
}

/// Artifact scaffolding shared by every route.
[[nodiscard]] PartitionArtifact base_artifact(const PartitionRequest& req,
                                              std::optional<SystemHierarchy> topo) {
  PartitionArtifact artifact;
  artifact.algo = req.algo;
  artifact.k = req.k;
  artifact.seed = req.seed;
  artifact.hierarchy = std::move(topo);
  return artifact;
}

/// The run_stream policy of a disk-streaming request: --pipeline adds the
/// reader thread (and --io-threads consumers), everything else maps 1:1.
[[nodiscard]] PipelineConfig policy_of(const PartitionRequest& req) {
  PipelineConfig policy;
  if (req.pipeline) {
    policy.assign_threads = req.io_threads;
  } else {
    policy.ring_batches = 0; // sequential: no reader thread
  }
  policy.watchdog_ms = req.watchdog_ms;
  policy.error_policy.action = req.on_error == "skip"
                                  ? StreamErrorPolicy::Action::kSkip
                                  : StreamErrorPolicy::Action::kAbort;
  policy.error_policy.skip_budget = req.error_budget;
  policy.checkpoint.path = req.checkpoint;
  policy.checkpoint.every_nodes = req.checkpoint_every;
  return policy;
}

[[nodiscard]] std::unique_ptr<StreamingEdgePartitioner> make_edge_partitioner(
    const PartitionRequest& req, const std::optional<SystemHierarchy>& topo) {
  EdgePartConfig config;
  config.k = req.k;
  config.lambda = req.lambda;
  config.epsilon = req.epsilon;
  config.seed = req.seed;
  if (topo.has_value()) {
    return std::make_unique<HierarchicalHdrfPartitioner>(*topo, config);
  }
  if (req.algo == "hdrf") {
    return std::make_unique<HdrfPartitioner>(config);
  }
  if (req.algo == "dbh") {
    return std::make_unique<DbhPartitioner>(config);
  }
  return std::make_unique<Grid2dPartitioner>(config);
}

/// Load --resume and check it against the consumer about to continue it: a
/// checkpoint from a different algorithm, k, seed or graph is a usage error
/// (InvalidRequest), not a mid-stream IoError.
template <typename Consumer>
[[nodiscard]] std::optional<CheckpointState> load_resume(
    const PartitionRequest& req, const Consumer& consumer, NodeId num_nodes) {
  if (req.resume.empty()) {
    return std::nullopt;
  }
  try {
    CheckpointState state = read_checkpoint_file(req.resume);
    CheckpointMeta expected;
    consumer.stamp_checkpoint(expected);
    validate_resume(state.meta, expected.algo, static_cast<std::uint64_t>(req.k),
                    expected.seed, num_nodes);
    return state;
  } catch (const IoError& e) {
    throw InvalidRequest(e.what());
  }
}

/// The disk-streaming route: open the input once, build the consumer from
/// what the source reveals, and hand both to run_stream. Never materializes
/// the graph.
[[nodiscard]] PartitionArtifact partition_stream(const PartitionRequest& req,
                                                 std::optional<SystemHierarchy> topo) {
  PartitionArtifact artifact = base_artifact(req, std::move(topo));
  PipelineConfig policy = policy_of(req);
  if (req.format == "edgelist") {
    EdgeListStream source(req.graph_path);
    const auto partitioner = make_edge_partitioner(req, artifact.hierarchy);
    EdgePartitionResult result = run_stream(source, *partitioner, policy);
    // Replica metrics come from the partitioner's state, not the graph.
    artifact.edge_partition = true;
    artifact.num_nodes = result.stats.num_vertices;
    artifact.num_edges = result.stats.num_edges;
    artifact.self_loops_skipped = result.stats.self_loops_skipped;
    artifact.elapsed_s = result.elapsed_s;
    artifact.skip_stats = std::move(result.skipped);
    artifact.metrics.replication_factor = replication_factor(partitioner->replicas());
    artifact.metrics.edge_imbalance = edge_imbalance(partitioner->edge_loads());
    if (artifact.hierarchy.has_value()) {
      artifact.metrics.replica_cost = static_cast<double>(
          hierarchical_replica_cost(partitioner->replicas(), *artifact.hierarchy));
    }
    artifact.assignment = std::move(result.edge_assignment);
    artifact.rebuild_tree();
    return artifact;
  }

  // The header comes from the stream the run consumes, so the input is
  // opened once (a pipe works). Capacity bounds assume unit node weights
  // (total = n), which the header lets us check.
  MetisNodeStream source(req.graph_path, policy.reader_buffer_bytes);
  const MetisHeader header = source.header();
  if (header.has_node_weights) {
    throw InvalidRequest(
        "--from-disk assumes unit node weights; this graph has node weights "
        "(load it without --from-disk)");
  }
  artifact.num_nodes = header.num_nodes;
  artifact.num_edges = header.num_edges;
  // The header announces the stream size up front — that is what turns the
  // --progress heartbeat from a plain rate into percent-done + ETA.
  telemetry::gauge_set(telemetry::Gauge::kProgressTotalItems, header.num_nodes);

  if (req.algo == "buffered") {
    const BufferedConfig bc = buffered_config(req, artifact.hierarchy);
    artifact.algo = buffered_checkpoint_algo_id(bc);
    BufferedPartitioner core(header.num_nodes,
                             static_cast<NodeWeight>(header.num_nodes), req.k, bc);
    const std::optional<CheckpointState> resume =
        load_resume(req, core, header.num_nodes);
    policy.resume = resume.has_value() ? &*resume : nullptr;
    BufferedResult result = run_stream(source, core, policy);
    artifact.assignment = std::move(result.assignment);
    artifact.elapsed_s = result.elapsed_s;
    artifact.skip_stats = std::move(result.skipped);
  } else {
    auto assigner = make_assigner(req, artifact.hierarchy, header.num_nodes,
                                  header.num_edges,
                                  static_cast<NodeWeight>(header.num_nodes));
    const std::optional<CheckpointState> resume =
        load_resume(req, *assigner, header.num_nodes);
    policy.resume = resume.has_value() ? &*resume : nullptr;
    StreamResult result = run_stream(source, *assigner, policy);
    artifact.assignment = std::move(result.assignment);
    artifact.elapsed_s = result.elapsed_s;
    artifact.work = result.work;
    artifact.skip_stats = std::move(result.skipped);
  }
  artifact.rebuild_tree();
  return artifact;
}

/// The in-memory node route, shared by partition(request) on a loaded METIS
/// file and the partition(graph, request) overload. Also the only route that
/// can afford graph-dependent quality metrics.
[[nodiscard]] PartitionArtifact partition_in_memory(
    const CsrGraph& graph, const PartitionRequest& req,
    std::optional<SystemHierarchy> topo) {
  PartitionArtifact artifact = base_artifact(req, std::move(topo));
  artifact.num_nodes = graph.num_nodes();
  artifact.num_edges = graph.num_edges();
  telemetry::gauge_set(telemetry::Gauge::kProgressTotalItems, graph.num_nodes());

  if (req.algo == "buffered") {
    const BufferedConfig bc = buffered_config(req, artifact.hierarchy);
    artifact.algo = buffered_checkpoint_algo_id(bc);
    BufferedResult br = buffered_partition(graph, req.k, bc);
    artifact.assignment = std::move(br.assignment);
    artifact.elapsed_s = br.elapsed_s;
  } else {
    auto assigner = make_assigner(req, artifact.hierarchy, graph.num_nodes(),
                                  graph.num_edges(), graph.total_node_weight());
    // The window commits in stream order, so it always runs sequentially.
    const int threads = req.algo == "window" ? 1 : req.threads;
    StreamResult result = run_one_pass(graph, *assigner, threads);
    artifact.assignment = std::move(result.assignment);
    artifact.elapsed_s = result.elapsed_s;
    artifact.work = result.work;
  }

  artifact.metrics.edge_cut =
      static_cast<double>(edge_cut(graph, artifact.assignment));
  artifact.metrics.imbalance = imbalance(graph, artifact.assignment, req.k);
  if (artifact.hierarchy.has_value()) {
    artifact.metrics.mapping_j = static_cast<double>(mapping_cost(
        graph, *artifact.hierarchy, artifact.assignment, req.threads));
  }
  artifact.rebuild_tree();
  return artifact;
}

} // namespace

PartitionRequest Partitioner::normalize(PartitionRequest req) {
  if (req.graph_path.empty()) {
    throw InvalidRequest("no input graph given");
  }
  if (req.format != "auto" && req.format != "metis" && req.format != "edgelist") {
    throw InvalidRequest("--format must be 'metis' or 'edgelist' (got '" +
                         req.format + "')");
  }
  if (req.format == "auto") {
    req.format = looks_like_edge_list(req.graph_path) ? "edgelist" : "metis";
  }
  const bool edge_list = req.format == "edgelist";
  if (req.algo.empty()) {
    req.algo = edge_list ? "hdrf" : "oms";
  }
  if (!is_node_algo(req.algo) && !is_edge_algo(req.algo)) {
    throw InvalidRequest("unknown --algo '" + req.algo + "'");
  }
  if (edge_list != is_edge_algo(req.algo)) {
    throw InvalidRequest("--algo " + req.algo + " needs --format " +
                         (is_edge_algo(req.algo) ? "edgelist" : "metis"));
  }
  if (req.pipeline) {
    req.from_disk = true;
  }
  if (req.hierarchy.has_value()) {
    req.k = SystemHierarchy::parse(*req.hierarchy, req.distances).num_pes();
  }
  if (req.k < 1) {
    throw InvalidRequest("need --k or --hierarchy");
  }
  validate_tuning(req);
  // Capability check: snapshots need a METIS node stream (an edge list
  // would need HDRF/DBH/Grid state serialization) and a consumer with
  // save/load_stream_state (the window keeps delayed nodes in flight).
  const bool checkpointing = !req.checkpoint.empty() || !req.resume.empty();
  if (checkpointing) {
    if (edge_list || req.algo == "window") {
      throw InvalidRequest(
          std::string("--checkpoint/--resume are not supported for ") +
          (edge_list ? "edge lists" : "--algo window") +
          " (only METIS node streams with a checkpointable algorithm)");
    }
    if (req.checkpoint_every < 1) {
      throw InvalidRequest("--checkpoint-every must be >= 1");
    }
    req.from_disk = true; // checkpoints reference a byte offset in the file
  }
  const bool skip_errors = req.on_error == "skip";
  if (req.on_error != "abort" && req.on_error != "skip") {
    throw InvalidRequest("--on-error must be 'abort' or 'skip' (got '" +
                         req.on_error + "')");
  }
  if (skip_errors && !edge_list && !req.from_disk) {
    throw InvalidRequest("--on-error skip applies to streaming runs; add "
                         "--from-disk (or use an edge-list input)");
  }
  if ((req.from_disk || edge_list) && req.io_threads < 0) {
    throw InvalidRequest("--io-threads must be >= 0 (0 = all hardware threads)");
  }
  // One ordered consumer: the window, the buffered model, the vertex-cut
  // assigners and every checkpointing run commit in stream order, so the
  // pipeline can overlap parsing but never fan assignment out.
  if (req.pipeline && req.io_threads != 1) {
    const char* ordered = req.algo == "window"     ? "--algo window"
                          : req.algo == "buffered" ? "--algo buffered"
                          : edge_list              ? "edge-list streaming"
                          : checkpointing          ? "--checkpoint/--resume"
                                                   : nullptr;
    if (ordered != nullptr) {
      throw InvalidRequest(std::string(ordered) +
                           " needs one ordered consumer; --pipeline supports "
                           "only --io-threads 1");
    }
  }
  if (edge_list) {
    if (req.hierarchy.has_value() && req.algo != "hdrf") {
      throw InvalidRequest("--hierarchy with an edge list requires --algo hdrf "
                           "(hierarchical HDRF)");
    }
    if (!std::isfinite(req.lambda) || req.lambda < 0.0) {
      throw InvalidRequest("--lambda must be a finite value >= 0");
    }
  }
  // The loaders raise IoError on unopenable files, but a bad path deserves
  // the request-level error (CLI exit 2), not the malformed-content one (1).
  // Directories open "successfully" on Linux, so reject them explicitly.
  // FIFOs (process substitution, mkfifo pipelines) must NOT be probe-opened —
  // the open/close would SIGPIPE the writer — so only regular files get the
  // readability probe.
  std::error_code fs_error;
  const std::filesystem::file_status graph_status =
      std::filesystem::status(req.graph_path, fs_error);
  if (fs_error || std::filesystem::is_directory(graph_status) ||
      (std::filesystem::is_regular_file(graph_status) &&
       !std::ifstream(req.graph_path).good())) {
    throw InvalidRequest("cannot open graph file '" + req.graph_path + "'");
  }
  if (!req.resume.empty() && !std::filesystem::is_regular_file(graph_status)) {
    // Resuming seeks to the recorded byte offset, which a FIFO cannot do.
    // (Every streaming run opens the input once, so a pipe works otherwise.)
    throw InvalidRequest("--resume needs a regular file, not a pipe");
  }
  return req;
}

PartitionArtifact Partitioner::partition(const PartitionRequest& request) const {
  const PartitionRequest req = normalize(request);
  std::optional<SystemHierarchy> topo = topo_of(req);
  if (req.format == "edgelist" || req.from_disk) {
    return partition_stream(req, std::move(topo));
  }
  const CsrGraph graph = read_metis(req.graph_path);
  return partition_in_memory(graph, req, std::move(topo));
}

PartitionArtifact Partitioner::partition(const CsrGraph& graph,
                                         const PartitionRequest& request) const {
  PartitionRequest req = request;
  if (req.algo.empty()) {
    req.algo = "oms";
  }
  if (!is_node_algo(req.algo)) {
    throw InvalidRequest("in-memory partitioning needs a node algorithm, not '" +
                         req.algo + "'");
  }
  if (req.hierarchy.has_value()) {
    req.k = SystemHierarchy::parse(*req.hierarchy, req.distances).num_pes();
  }
  if (req.k < 1) {
    throw InvalidRequest("need --k or --hierarchy");
  }
  validate_tuning(req);
  return partition_in_memory(graph, req, topo_of(req));
}

} // namespace oms
