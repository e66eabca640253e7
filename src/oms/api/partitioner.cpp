#include "oms/api/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
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

// The name table: every name a request's string fields may hold, with what
// it parses to. Only the parse step (resolve_request, resolve_problem) reads
// those fields; every later decision switches on the parsed values.
enum class Algo {
  kOms, kFennel, kLdg, kHashing, kWindow, kBuffered, kHdrf, kDbh, kGrid2d
};
enum class Format { kAuto, kMetis, kEdgeList };

/// One algorithm and the facts the facade branches on.
struct AlgoInfo {
  std::string_view name;
  Algo id;
  bool edges;       ///< consumes an edge list (vertex cut), not a node stream
  bool ordered;     ///< commits in stream order, so it runs on one consumer
  bool checkpoints; ///< has save/load_stream_state
};
template <typename Value> struct Named { std::string_view name; Value value; };

constexpr AlgoInfo kAlgos[] = {
    {"oms", Algo::kOms, false, false, true},
    {"fennel", Algo::kFennel, false, false, true},
    {"ldg", Algo::kLdg, false, false, true},
    {"hashing", Algo::kHashing, false, false, true},
    {"window", Algo::kWindow, false, true, false},
    {"buffered", Algo::kBuffered, false, true, true},
    {"hdrf", Algo::kHdrf, true, true, false},
    {"dbh", Algo::kDbh, true, true, false},
    {"grid2d", Algo::kGrid2d, true, true, false},
};
constexpr Named<Format> kFormats[] = {
    {"auto", Format::kAuto}, {"metis", Format::kMetis}, {"edgelist", Format::kEdgeList}};
constexpr Named<StreamErrorPolicy::Action> kErrorActions[] = {
    {"abort", StreamErrorPolicy::Action::kAbort},
    {"skip", StreamErrorPolicy::Action::kSkip}};
constexpr Named<BufferedEngine> kEngines[] = {
    {"lp", BufferedEngine::kLp}, {"multilevel", BufferedEngine::kMultilevel}};

/// The row of \p table called \p name, or nullptr.
template <typename Row, std::size_t N>
[[nodiscard]] const Row* find(const Row (&table)[N], std::string_view name) {
  const Row* row = std::ranges::find(table, name, &Row::name);
  return row == std::end(table) ? nullptr : row;
}

/// A request after the parse step: the request with its defaults filled in
/// (what normalize() returns) and every string field parsed.
struct Plan {
  PartitionRequest req;
  const AlgoInfo* algo = nullptr;
  Format format = Format::kMetis; ///< never kAuto once resolved
  StreamErrorPolicy::Action on_error = StreamErrorPolicy::Action::kAbort;
  BufferedEngine engine = BufferedEngine::kLp;
  std::optional<SystemHierarchy> topo;
};

/// Edge-list extensions autodetected when the format is "auto".
[[nodiscard]] bool looks_like_edge_list(const std::string& path) {
  const std::string ext = std::filesystem::path(path).extension().string();
  return ext == ".edgelist" || ext == ".el" || ext == ".edges" || ext == ".snap";
}

/// A thread count starts that many OS threads, so it is bounded up front.
void check_threads(int threads, const std::string& flag) {
  if (threads < 0) {
    throw InvalidRequest(flag + " must be >= 0 (0 = all hardware threads)");
  }
  if (threads > kMaxThreads) {
    throw InvalidRequest(flag + " must be <= " + std::to_string(kMaxThreads));
  }
}

/// The problem checks shared by normalize() and the in-memory overload: the
/// algorithm (default per format), k (from the hierarchy), tuning ranges and
/// thread counts. \p in_memory: the caller holds a loaded graph, so an edge
/// algorithm is refused as such rather than as a format mismatch.
void resolve_problem(Plan& plan, bool edge_list, bool in_memory) {
  PartitionRequest& req = plan.req;
  if (req.algo.empty()) {
    req.algo = edge_list ? "hdrf" : "oms";
  }
  plan.algo = find(kAlgos, req.algo);
  if (plan.algo == nullptr) {
    throw InvalidRequest("unknown --algo '" + req.algo + "'");
  }
  if (plan.algo->edges != edge_list) {
    throw InvalidRequest(
        in_memory
            ? "in-memory partitioning needs a node algorithm, not '" + req.algo + "'"
            : "--algo " + req.algo + " needs --format " +
                  (plan.algo->edges ? "edgelist" : "metis"));
  }
  if (req.hierarchy.has_value()) {
    plan.topo = SystemHierarchy::parse(*req.hierarchy, req.distances);
    req.k = plan.topo->num_pes();
  }
  if (req.k < 1) {
    throw InvalidRequest("need --k or --hierarchy");
  }
  if (req.buffered_engine.has_value()) {
    const Named<BufferedEngine>* engine = find(kEngines, *req.buffered_engine);
    if (engine == nullptr) {
      throw InvalidRequest("--buffered-engine must be 'lp' or 'multilevel' (got '" +
                           *req.buffered_engine + "')");
    }
    if (plan.algo->id != Algo::kBuffered) {
      throw InvalidRequest("--buffered-engine requires --algo buffered");
    }
    plan.engine = engine->value;
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
  check_threads(req.threads, "--threads");
  check_threads(req.io_threads, "--io-threads");
}

/// The parse step of a file request: the format, resolve_problem, then the
/// execution flags and the input path. Every rejection keeps the exact
/// diagnostic the CLI printed before the facade existed (minus "error: ").
[[nodiscard]] Plan resolve_request(PartitionRequest request) {
  Plan plan;
  plan.req = std::move(request);
  PartitionRequest& req = plan.req;
  if (req.graph_path.empty()) {
    throw InvalidRequest("no input graph given");
  }
  const Named<Format>* format = find(kFormats, req.format);
  if (format == nullptr) {
    throw InvalidRequest("--format must be 'metis' or 'edgelist' (got '" +
                         req.format + "')");
  }
  plan.format = format->value != Format::kAuto        ? format->value
                : looks_like_edge_list(req.graph_path) ? Format::kEdgeList
                                                       : Format::kMetis;
  const bool edge_list = plan.format == Format::kEdgeList;
  req.format = edge_list ? "edgelist" : "metis";
  resolve_problem(plan, edge_list, /*in_memory=*/false);
  const AlgoInfo& algo = *plan.algo;
  if (req.pipeline) {
    req.from_disk = true;
  }
  // Capability check: snapshots need a METIS node stream (an edge list
  // would need HDRF/DBH/Grid state serialization) and a consumer with
  // save/load_stream_state (the window keeps delayed nodes in flight).
  const bool checkpointing = !req.checkpoint.empty() || !req.resume.empty();
  if (checkpointing) {
    if (!algo.checkpoints) {
      throw InvalidRequest(
          "--checkpoint/--resume are not supported for " +
          (edge_list ? std::string("edge lists") : "--algo " + req.algo) +
          " (only METIS node streams with a checkpointable algorithm)");
    }
    if (req.checkpoint_every < 1) {
      throw InvalidRequest("--checkpoint-every must be >= 1");
    }
    req.from_disk = true; // checkpoints reference a byte offset in the file
  }
  const Named<StreamErrorPolicy::Action>* on_error = find(kErrorActions, req.on_error);
  if (on_error == nullptr) {
    throw InvalidRequest("--on-error must be 'abort' or 'skip' (got '" +
                         req.on_error + "')");
  }
  plan.on_error = on_error->value;
  if (plan.on_error == StreamErrorPolicy::Action::kSkip && !edge_list &&
      !req.from_disk) {
    throw InvalidRequest("--on-error skip applies to streaming runs; add "
                         "--from-disk (or use an edge-list input)");
  }
  // One ordered consumer: the window, the buffered model, the vertex-cut
  // assigners and every checkpointing run commit in stream order, so the
  // pipeline can overlap parsing but never fan assignment out.
  if (req.pipeline && req.io_threads != 1 && (algo.ordered || checkpointing)) {
    const std::string ordered = !algo.ordered ? std::string("--checkpoint/--resume")
                                : edge_list   ? std::string("edge-list streaming")
                                              : "--algo " + req.algo;
    throw InvalidRequest(ordered +
                         " needs one ordered consumer; --pipeline supports "
                         "only --io-threads 1");
  }
  if (edge_list) {
    if (plan.topo.has_value() && algo.id != Algo::kHdrf) {
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
  return plan;
}

/// What the node route learns about its source before the pass.
struct NodeSourceShape { NodeId n; EdgeIndex m; NodeWeight total_weight; };

[[nodiscard]] std::unique_ptr<OnePassAssigner> make_assigner(
    const Plan& plan, const NodeSourceShape& shape) {
  const PartitionRequest& req = plan.req;
  PartitionConfig pc;
  pc.k = req.k;
  pc.epsilon = req.epsilon;
  pc.seed = req.seed;
  switch (plan.algo->id) {
    case Algo::kFennel:
      return std::make_unique<FennelPartitioner>(shape.n, shape.m, shape.total_weight,
                                                 pc);
    case Algo::kLdg:
      return std::make_unique<LdgPartitioner>(shape.n, shape.total_weight, pc);
    case Algo::kHashing:
      return std::make_unique<HashingPartitioner>(shape.n, shape.total_weight, pc);
    case Algo::kWindow: {
      WindowConfig wc;
      wc.window_size = static_cast<NodeId>(req.window_size);
      wc.epsilon = req.epsilon;
      wc.seed = req.seed;
      return std::make_unique<WindowPartitioner>(shape.n, shape.total_weight, wc, req.k);
    }
    default: // kOms; the buffered and edge rows build their own consumers
      break;
  }
  OmsConfig config;
  config.epsilon = req.epsilon;
  config.seed = req.seed;
  if (plan.topo.has_value()) {
    return std::make_unique<OnlineMultisection>(shape.n, shape.m, shape.total_weight,
                                                *plan.topo, config);
  }
  return std::make_unique<OnlineMultisection>(shape.n, shape.m, shape.total_weight,
                                              req.k, config);
}

[[nodiscard]] BufferedConfig buffered_config(const Plan& plan) {
  BufferedConfig bc;
  bc.buffer_size = static_cast<NodeId>(plan.req.buffer_size);
  bc.epsilon = plan.req.epsilon;
  bc.seed = plan.req.seed;
  bc.refinement_iterations = static_cast<int>(plan.req.refine_iters);
  bc.engine = plan.engine;
  if (plan.topo.has_value()) {
    // Buffered streaming then optimizes the mapping objective J directly
    // (distance-weighted gains) instead of plain edge cut.
    bc.hierarchy = &*plan.topo;
  }
  return bc;
}

[[nodiscard]] std::unique_ptr<StreamingEdgePartitioner> make_edge_partitioner(
    const Plan& plan) {
  EdgePartConfig config;
  config.k = plan.req.k;
  config.lambda = plan.req.lambda;
  config.epsilon = plan.req.epsilon;
  config.seed = plan.req.seed;
  if (plan.topo.has_value()) {
    return std::make_unique<HierarchicalHdrfPartitioner>(*plan.topo, config);
  }
  switch (plan.algo->id) {
    case Algo::kDbh: return std::make_unique<DbhPartitioner>(config);
    case Algo::kGrid2d: return std::make_unique<Grid2dPartitioner>(config);
    default: return std::make_unique<HdrfPartitioner>(config); // kHdrf
  }
}

/// The run_stream policy of a file stream: --pipeline adds the reader thread
/// (and --io-threads consumers), everything else maps 1:1.
[[nodiscard]] PipelineConfig stream_policy(const Plan& plan) {
  const PartitionRequest& req = plan.req;
  PipelineConfig policy;
  if (req.pipeline) {
    policy.assign_threads = req.io_threads;
  } else {
    policy.ring_batches = 0; // sequential: no reader thread
  }
  policy.watchdog_ms = req.watchdog_ms;
  policy.error_policy.action = plan.on_error;
  policy.error_policy.skip_budget = req.error_budget;
  policy.checkpoint.path = req.checkpoint;
  policy.checkpoint.every_nodes = req.checkpoint_every;
  return policy;
}

/// Artifact scaffolding shared by every route.
[[nodiscard]] PartitionArtifact base_artifact(const Plan& plan) {
  PartitionArtifact artifact;
  artifact.algo = plan.algo->name;
  artifact.k = plan.req.k;
  artifact.seed = plan.req.seed;
  artifact.hierarchy = plan.topo;
  return artifact;
}

/// Gauges are unsigned; a negative-weight graph's quality stays unpublished.
void set_quality_gauge(telemetry::Gauge gauge, Cost value) {
  if (value >= 0) {
    telemetry::gauge_set(gauge, static_cast<std::uint64_t>(value));
  }
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

/// The one node route, over a METIS file stream or a loaded graph: build the
/// consumer from what the source reveals and hand both to run_stream. A file
/// is never materialized; a graph is also measured after the run.
template <typename Source>
[[nodiscard]] PartitionArtifact partition_nodes(Source& source, const Plan& plan) {
  constexpr bool kGraph = std::is_same_v<Source, const CsrGraph>;
  NodeSourceShape shape;
  PipelineConfig policy;
  if constexpr (kGraph) {
    shape = {source.num_nodes(), source.num_edges(), source.total_node_weight()};
    // run_one_pass's decomposition; an ordered consumer runs on one thread.
    policy = in_memory_policy(source, plan.algo->ordered ? 1 : plan.req.threads);
  } else {
    // Capacity bounds assume unit node weights (total = n), which the header
    // lets us check before the pass.
    const MetisHeader& header = source.header();
    if (header.has_node_weights) {
      throw InvalidRequest(
          "--from-disk assumes unit node weights; this graph has node weights "
          "(load it without --from-disk)");
    }
    shape = {header.num_nodes, header.num_edges,
             static_cast<NodeWeight>(header.num_nodes)};
    policy = stream_policy(plan);
  }
  PartitionArtifact artifact = base_artifact(plan);
  artifact.num_nodes = shape.n;
  artifact.num_edges = shape.m;
  // A known stream size is what turns the --progress heartbeat from a plain
  // rate into percent-done + ETA.
  telemetry::gauge_set(telemetry::Gauge::kProgressTotalItems, shape.n);

  // Resume (if asked), run, and take what every node consumer reports.
  const auto run = [&](auto& consumer) {
    const std::optional<CheckpointState> resume =
        load_resume(plan.req, consumer, shape.n);
    policy.resume = resume.has_value() ? &*resume : nullptr;
    auto result = run_stream(source, consumer, policy);
    artifact.assignment = std::move(result.assignment);
    artifact.elapsed_s = result.elapsed_s;
    artifact.skip_stats = std::move(result.skipped);
    return result;
  };
  std::optional<Cost> cut;
  std::optional<Cost> cost;
  if (plan.algo->id == Algo::kBuffered) {
    const BufferedConfig bc = buffered_config(plan);
    artifact.algo = buffered_checkpoint_algo_id(bc);
    BufferedPartitioner core(shape.n, shape.total_weight, plan.req.k, bc);
    run(core);
  } else {
    const StreamResult result = run(*make_assigner(plan, shape));
    artifact.work = result.work;
    cut = result.edge_cut;
    cost = result.mapping_j;
  }
  // Quality: what the consumer counted at assign time where run_stream
  // vouches for it, else a pass over a loaded graph; a file stream has no
  // graph to pass over and keeps -1.
  if constexpr (kGraph) {
    if (!cut.has_value()) {
      cut = edge_cut(source, artifact.assignment);
    }
    if (plan.topo.has_value() && !cost.has_value()) {
      cost = mapping_cost(source, *plan.topo, artifact.assignment, plan.req.threads);
    }
    artifact.metrics.imbalance = imbalance(source, artifact.assignment, plan.req.k);
  }
  if (cut.has_value()) {
    artifact.metrics.edge_cut = static_cast<double>(*cut);
    set_quality_gauge(telemetry::Gauge::kQualityEdgeCut, *cut);
  }
  if (plan.topo.has_value() && cost.has_value()) {
    artifact.metrics.mapping_j = static_cast<double>(*cost);
    set_quality_gauge(telemetry::Gauge::kQualityMappingJ, *cost);
  }
  artifact.rebuild_tree();
  return artifact;
}

/// The vertex-cut route: stream the edge list through its partitioner.
/// Replica metrics come from the partitioner's state, not the graph.
[[nodiscard]] PartitionArtifact partition_edges(const Plan& plan) {
  PartitionArtifact artifact = base_artifact(plan);
  EdgeListStream source(plan.req.graph_path);
  const auto partitioner = make_edge_partitioner(plan);
  EdgePartitionResult result = run_stream(source, *partitioner, stream_policy(plan));
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

} // namespace

PartitionRequest Partitioner::normalize(PartitionRequest request) {
  return resolve_request(std::move(request)).req;
}

PartitionArtifact Partitioner::partition(const PartitionRequest& request) const {
  const Plan plan = resolve_request(request);
  if (plan.format == Format::kEdgeList) {
    return partition_edges(plan);
  }
  if (plan.req.from_disk) {
    // Opened once, so a pipe works; the header sizes the consumer.
    MetisNodeStream source(plan.req.graph_path);
    return partition_nodes(source, plan);
  }
  const CsrGraph graph = read_metis(plan.req.graph_path);
  return partition_nodes(graph, plan);
}

PartitionArtifact Partitioner::partition(const CsrGraph& graph,
                                         const PartitionRequest& request) const {
  Plan plan;
  plan.req = request;
  plan.req.resume.clear(); // a loaded graph has no file position to resume from
  resolve_problem(plan, /*edge_list=*/false, /*in_memory=*/true);
  return partition_nodes(graph, plan);
}

} // namespace oms
