/// \file bench_e2e.cpp
/// \brief The end-to-end benchmark: graph file -> partition artifact ->
///        answered lookup, on five fixed workloads, with per-layer
///        attribution. See bench/e2e/README.md for the workloads, the
///        metrics and how to read a result.
///
/// Process model. The parent generates the inputs from --seed, then runs
/// every timed rep in a fresh child: the bench re-executes itself with
/// `--child rep`, and the child receives only file paths and the workload
/// name that fixes the request. The child reports its timings and peak RSS;
/// the parent reaps it and verifies the artifact it wrote against the graph
/// the parent generated. serve-mix instead spawns the oms_serve daemon once
/// per session and drives it with two ServiceClient threads. At most two
/// threads run the system under test at any time.
///
/// End-to-end metrics come from untraced reps. With --trace 1 the run gives
/// the per-layer metrics instead: one `--child layers` process times
/// isolated calls into each layer's public functions, and traced reps arm a
/// MetricsRegistry and record bench-side spans (trace.hpp) around each call.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <latch>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/inputs.hpp"
#include "bench/e2e/process.hpp"
#include "bench/e2e/report.hpp"
#include "bench/e2e/trace.hpp"
#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/core/online_multisection.hpp"
#include "oms/edgepart/dbh.hpp"
#include "oms/edgepart/driver.hpp"
#include "oms/edgepart/hdrf.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/oms.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/stream/edge_list_stream.hpp"
#include "oms/stream/line_reader.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms::e2e {
namespace {

// ------------------------------------------------------------------ model

enum class Route { kMapDisk, kFennelMem, kBufferedMl, kHdrfEdges, kServeMix };

struct Workload {
  const char* name;
  Route route;
  InputSpec input;
};

/// Input sizes keep one rep between 0.15 s and 0.5 s, so a run takes dozens
/// of reps and its median rides out the seconds-long slowdowns a shared
/// host imposes. hdrf-edges streams a Barabasi-Albert edge list: it is as
/// skewed as R-MAT at this size, but its replication factor varies ~0.6%
/// between seeds where R-MAT's varies ~4%. --smoke shrinks every input to
/// 2^12 nodes.
constexpr Workload kWorkloads[] = {
    {"map-disk", Route::kMapDisk, {Family::kBarabasiAlbert, 18}},
    {"fennel-mem", Route::kFennelMem, {Family::kRandomGeometric, 16}},
    {"buffered-ml", Route::kBufferedMl, {Family::kDelaunay, 18}},
    {"hdrf-edges", Route::kHdrfEdges, {Family::kBarabasiAlbert, 16, true}},
    {"serve-mix", Route::kServeMix, {Family::kBarabasiAlbert, 18}},
};
constexpr int kSmokeLog2Nodes = 12;

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"throughput_per_s", "items/s"},
    {"peak_rss_mib", "MiB"},
    {"cost_per_edge", "cost/edge"},
};

/// Per-layer metrics by module. A metric of a layer the workload's path
/// does not cross reads 0.
constexpr MetricDef kPerLayer[] = {
    {"graph.read_metis_s", "s"},
    {"stream.read_s", "s"},
    {"stream.parse_s", "s"},
    {"stream.sequential_partition_s", "s"},
    {"stream.overlap_speedup", "ratio"},
    {"stream.insitu_parse_s", "s"},
    {"stream.insitu_assign_s", "s"},
    {"stream.producer_stall_s", "s"},
    {"stream.consumer_wait_s", "s"},
    {"stream.queue_depth_max", "batches"},
    {"work.score_evals_per_node", "count/node"},
    {"work.neighbor_visits_per_node", "count/node"},
    {"work.layers_per_node", "count/node"},
    {"core.assign_s", "s"},
    {"partition.assign_s", "s"},
    {"partition.oms_assign_s", "s"},
    {"partition.fennel_over_oms_time", "ratio"},
    {"partition.oms_over_fennel_cut", "ratio"},
    {"partition.edge_cut_eval_s", "s"},
    {"mapping.cost_eval_s", "s"},
    {"buffered.model_s", "s"},
    {"buffered.insitu_build_s", "s"},
    {"buffered.insitu_refine_s", "s"},
    {"buffered.lp_partition_s", "s"},
    {"buffered.lp_edge_cut_ratio", "cut/m"},
    {"multilevel.insitu_vcycle_s", "s"},
    {"multilevel.commit_accept_frac", "frac"},
    {"multilevel.backoff_skips", "count"},
    {"edgepart.assign_s", "s"},
    {"edgepart.dbh_assign_s", "s"},
    {"api.artifact_write_s", "s"},
    {"api.artifact_read_s", "s"},
    {"api.artifact_mib", "MiB"},
    {"service.handle_where_ns", "ns"},
    {"service.handle_batch_ns", "ns"},
    {"service.server_request_mean_ns", "ns"},
    {"service.transport_share", "frac"},
    {"service.where_p50_us", "us"},
    {"service.where_p99_us", "us"},
    {"service.batch_p50_us", "us"},
    {"service.batch_p99_us", "us"},
    {"service.reconnects", "count"},
    {"service.conns_rejected", "count"},
    {"service.timeouts", "count"},
    {"telemetry.unattributed_frac", "frac"},
    {"telemetry.overhead_frac", "frac"},
};

/// The daemon serve-mix drives, built beside bench_e2e (CMakeLists.txt).
constexpr const char* kOmsServe = OMS_SERVE_PATH;
constexpr const char* kMapHierarchy = "4:16:64";
constexpr const char* kMapDistances = "1:10:100";
constexpr double kEpsilon = 0.03; // the facade default every request keeps
constexpr int kMinReps = 5;
constexpr int kLayerRepeats = 3;
constexpr double kChildTimeoutS = 120.0;

// serve-mix traffic: a closed loop of kClients, each sending
// kRequestsPerClient requests per session; 1 in kBatchEvery is a BATCH of
// kBatchIds uniform ids, the rest WHERE of one uniform id. The mix is
// assumed, not taken from measured lookup traffic (which is often skewed).
constexpr int kClients = 2;
constexpr std::uint64_t kRequestsPerClient = 40'000;
constexpr std::uint64_t kSmokeRequestsPerClient = 500;
constexpr std::uint64_t kBatchEvery = 10;
constexpr std::size_t kBatchIds = 256;
constexpr int kMinSessions = 3;
/// Traced sessions keep the spans of this many requests per client.
constexpr std::uint64_t kTracedRequests = 2000;

struct Options {
  std::vector<std::string> workloads; ///< empty = all
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_e2e";
  std::string input_dir; ///< default <work_dir>/inputs
  std::string out;       ///< result file for compare.py
  std::string trace_out; ///< Chrome trace-event JSON of the run's spans
  // --- child mode --------------------------------------------------------
  std::string child; ///< "rep" or "layers"
  std::string input;
  std::string artifact;
  bool traced = false;
};

[[nodiscard]] const Workload& workload_named(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return w;
    }
  }
  throw InvalidRequest("unknown workload '" + name + "'");
}

[[nodiscard]] InputSpec input_of(const Workload& w, bool smoke) {
  InputSpec spec = w.input;
  if (smoke) {
    spec.log2_nodes = kSmokeLog2Nodes;
  }
  return spec;
}

/// The request each workload's rep hands the facade.
[[nodiscard]] PartitionRequest request_for(Route route, const std::string& input) {
  PartitionRequest req;
  req.graph_path = input;
  switch (route) {
  case Route::kMapDisk:
  case Route::kServeMix: // serves the artifact of map-disk's request
    req.algo = "oms";
    req.hierarchy = kMapHierarchy;
    req.distances = kMapDistances;
    req.pipeline = true;
    req.io_threads = 1;
    break;
  case Route::kFennelMem:
    req.algo = "fennel";
    req.k = 4096;
    req.threads = 1;
    break;
  case Route::kBufferedMl:
    req.algo = "buffered";
    req.buffered_engine = "multilevel";
    req.k = 256;
    req.buffer_size = 16384;
    req.pipeline = true;
    break;
  case Route::kHdrfEdges:
    req.algo = "hdrf";
    req.k = 256;
    req.pipeline = true;
    break;
  }
  return req;
}

[[nodiscard]] std::optional<SystemHierarchy> topology_of(Route route) {
  if (route == Route::kMapDisk || route == Route::kServeMix) {
    return SystemHierarchy::parse(kMapHierarchy, kMapDistances);
  }
  return std::nullopt;
}

[[nodiscard]] BlockId k_of(Route route) {
  const PartitionRequest req = request_for(route, "");
  return req.hierarchy ? SystemHierarchy::parse(*req.hierarchy, req.distances).num_pes()
                       : req.k;
}

[[nodiscard]] double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(steady_ns() - start_ns) * 1e-9;
}

[[nodiscard]] std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"0x%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------- verification

/// The quality numbers recomputed from the generated graph.
struct Quality {
  double cut_ratio = 0.0;
  double mapping_j = 0.0;
  double imbalance = 0.0;
  double replication_factor = 0.0;
  double edge_imbalance = 0.0;
  double cost_per_edge = 0.0;
};

[[nodiscard]] bool same(double reported, double recomputed) {
  return std::abs(reported - recomputed) <= 1e-9 * std::max(1.0, std::abs(recomputed));
}

/// Node partition: complete, every block in [0, k), the balance bound
/// L_max = ceil((1 + eps) n / k) holds; cut and J recomputed, and checked
/// against the artifact's own metrics where the route computed them.
[[nodiscard]] Quality verify_node_artifact(const PartitionArtifact& a, const CsrGraph& g,
                                           BlockId k,
                                           const std::optional<SystemHierarchy>& topo,
                                           RunResult& r) {
  Quality q;
  if (a.edge_partition || a.k != k || a.assignment.size() != g.num_nodes()) {
    r.fail("artifact shape: k " + std::to_string(a.k) + ", " +
           std::to_string(a.assignment.size()) + " entries for " +
           std::to_string(g.num_nodes()) + " nodes");
    return q;
  }
  for (const BlockId b : a.assignment) {
    if (b < 0 || b >= k) {
      r.fail("block " + std::to_string(b) + " outside [0, " + std::to_string(k) + ")");
      return q;
    }
  }
  if (!is_balanced(g, a.assignment, k, kEpsilon)) {
    r.fail("balance bound violated");
  }
  const auto m = static_cast<double>(g.num_edges());
  const auto cut = static_cast<double>(edge_cut(g, a.assignment));
  q.cut_ratio = cut / m;
  q.imbalance = imbalance(g, a.assignment, k);
  q.cost_per_edge = q.cut_ratio;
  if (topo.has_value()) {
    q.mapping_j = static_cast<double>(mapping_cost(g, *topo, a.assignment, 1));
    q.cost_per_edge = q.mapping_j / (2.0 * m); // J sums ordered pairs
  }
  if (a.metrics.edge_cut >= 0.0 && !same(a.metrics.edge_cut, cut)) {
    r.fail("artifact edge cut differs from the recomputed one");
  }
  if (a.metrics.mapping_j >= 0.0 && !same(a.metrics.mapping_j, q.mapping_j)) {
    r.fail("artifact mapping cost differs from the recomputed one");
  }
  return q;
}

/// Edge partition: one block in [0, k) per edge of the file's order (each
/// undirected edge once, u < v, by u); replication factor and edge
/// imbalance (over edge weights, as HDRF balances them) recomputed and
/// checked against the artifact. HDRF has no hard balance bound, so the
/// edge imbalance is reported, not bounded.
[[nodiscard]] Quality verify_edge_artifact(const PartitionArtifact& a, const CsrGraph& g,
                                           BlockId k, RunResult& r) {
  Quality q;
  if (!a.edge_partition || a.k != k || a.assignment.size() != g.num_edges()) {
    r.fail("edge artifact shape: k " + std::to_string(a.k) + ", " +
           std::to_string(a.assignment.size()) + " entries for " +
           std::to_string(g.num_edges()) + " edges");
    return q;
  }
  const std::size_t words = (static_cast<std::size_t>(k) + 63) / 64;
  std::vector<std::uint64_t> replicas(static_cast<std::size_t>(g.num_nodes()) * words, 0);
  std::vector<double> loads(static_cast<std::size_t>(k), 0.0);
  double total_weight = 0.0;
  std::size_t i = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto neighbors = g.neighbors(u);
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const NodeId v = neighbors[j];
      if (v <= u) {
        continue;
      }
      const BlockId b = a.assignment[i++];
      if (b < 0 || b >= k) {
        r.fail("edge block " + std::to_string(b) + " outside [0, " + std::to_string(k) + ")");
        return q;
      }
      const auto bit = static_cast<std::size_t>(b);
      replicas[u * words + bit / 64] |= std::uint64_t{1} << (bit % 64);
      replicas[v * words + bit / 64] |= std::uint64_t{1} << (bit % 64);
      const auto weight = static_cast<double>(g.incident_weights(u)[j]);
      loads[bit] += weight;
      total_weight += weight;
    }
  }
  double total = 0.0;
  double occurring = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    int count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      count += std::popcount(replicas[u * words + w]);
    }
    total += count;
    occurring += count > 0 ? 1.0 : 0.0;
  }
  q.replication_factor = total / occurring;
  q.edge_imbalance = *std::max_element(loads.begin(), loads.end()) * k / total_weight - 1.0;
  q.cost_per_edge = (total - occurring) / static_cast<double>(g.num_edges());
  if (!same(a.metrics.replication_factor, q.replication_factor) ||
      !same(a.metrics.edge_imbalance, q.edge_imbalance)) {
    r.fail("artifact replication factor / edge imbalance " +
           json_number(a.metrics.replication_factor) + " / " +
           json_number(a.metrics.edge_imbalance) + " differ from the recomputed " +
           json_number(q.replication_factor) + " / " + json_number(q.edge_imbalance));
  }
  return q;
}

void record_quality(const Quality& q, bool edge_partition, RunResult& r) {
  if (edge_partition) {
    r.detail.emplace_back("replication_factor", json_number(q.replication_factor));
    r.detail.emplace_back("edge_imbalance", json_number(q.edge_imbalance));
  } else {
    r.detail.emplace_back("edge_cut_ratio", json_number(q.cut_ratio));
    r.detail.emplace_back("imbalance", json_number(q.imbalance));
    if (q.mapping_j > 0.0) {
      r.detail.emplace_back("mapping_cost_j", json_number(q.mapping_j));
    }
  }
}

// ---------------------------------------------------------- child: rep

/// Print one "key value" report line.
void report(const std::string& key, double value) {
  std::printf("%s %s\n", key.c_str(), json_number(value).c_str());
}

/// One timed rep: set up, partition through the facade, write the artifact
/// for the parent to verify. Traced reps arm a MetricsRegistry around the
/// facade call and print the scrape and the bench-side spans.
int child_rep(const Options& opt) {
  const Workload& w = workload_named(opt.workloads.front());
  Tracer tracer;
  Tracer* t = opt.traced ? &tracer : nullptr;
  PartitionRequest req = request_for(w.route, opt.input);
  const Partitioner partitioner;
  CsrGraph graph;
  if (w.route == Route::kFennelMem) {
    const Span span(t, "graph.read_metis", 0);
    graph = read_metis(opt.input);
  } else {
    const Span span(t, "api.normalize", 0);
    req = Partitioner::normalize(req);
  }
  const std::uint64_t ready_ns = steady_ns();

  telemetry::MetricsRegistry registry;
  if (opt.traced) {
    telemetry::MetricsRegistry::arm(registry);
  }
  PartitionArtifact artifact;
  const std::uint64_t t0 = steady_ns();
  {
    const Span span(t, "api.partition", 0);
    artifact = w.route == Route::kFennelMem ? partitioner.partition(graph, req)
                                            : partitioner.partition(req);
  }
  const double op_s = seconds_since(t0);
  telemetry::MetricsRegistry::disarm();
  {
    const Span span(t, "api.write_artifact", 0);
    write_artifact(artifact, opt.artifact);
  }

  report("ready_ns", static_cast<double>(ready_ns));
  report("op_s", op_s);
  report("peak_rss_mib", peak_rss_mib("self"));
  report("work.score_evaluations", static_cast<double>(artifact.work.score_evaluations));
  report("work.neighbor_visits", static_cast<double>(artifact.work.neighbor_visits));
  report("work.layers_traversed", static_cast<double>(artifact.work.layers_traversed));
  if (opt.traced) {
    using telemetry::Counter;
    using telemetry::Hist;
    const telemetry::MetricsSnapshot s = registry.scrape();
    const auto sum_s = [&](Hist h) { return static_cast<double>(s.histogram(h).sum) * 1e-9; };
    report("reg.parse_s", sum_s(Hist::kStageParse));
    report("reg.assign_s", sum_s(Hist::kStageAssign));
    report("reg.buffer_build_s", sum_s(Hist::kStageBufferBuild));
    report("reg.buffer_refine_s", sum_s(Hist::kStageBufferRefine));
    report("reg.multilevel_s", sum_s(Hist::kStageMultilevel));
    report("reg.producer_stall_s",
           static_cast<double>(s.counter(Counter::kPipelineProducerStallNs)) * 1e-9);
    report("reg.consumer_wait_s",
           static_cast<double>(s.counter(Counter::kPipelineConsumerWaitNs)) * 1e-9);
    report("reg.queue_depth_max",
           static_cast<double>(s.gauge(telemetry::Gauge::kPipelineQueueDepthMax)));
    report("reg.commits_accepted",
           static_cast<double>(s.counter(Counter::kMultilevelCommitsAccepted)));
    report("reg.commits_rejected",
           static_cast<double>(s.counter(Counter::kMultilevelCommitsRejected)));
    report("reg.backoff_skips", static_cast<double>(s.counter(Counter::kMultilevelBackoffSkips)));
    for (const SpanRecord& span : tracer.spans()) {
      std::printf("span %s %llu %llu\n", span.name.c_str(),
                  static_cast<unsigned long long>(span.start_ns),
                  static_cast<unsigned long long>(span.end_ns));
    }
  }
  return 0;
}

// ------------------------------------------------------- child: layers

/// Median wall time of \p repeats calls of \p fn.
template <typename Fn>
[[nodiscard]] double timed(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const std::uint64_t t0 = steady_ns();
    fn();
    times.push_back(seconds_since(t0));
  }
  return summarize(times).median;
}

/// Raw read: a BufferedLineReader pass over the file, no tokenizing.
void read_pass(const std::string& path) {
  BufferedLineReader reader(path, MetisNodeStream::kDefaultBufferBytes);
  std::string_view line;
  std::uint64_t lines = 0;
  while (reader.next_line(line)) {
    ++lines;
  }
  if (lines == 0) {
    throw IoError("empty input '" + path + "'");
  }
}

/// The pipelined and the sequential facade run of the same request.
void time_routes(const PartitionRequest& pipelined, int repeats) {
  const Partitioner partitioner;
  PartitionRequest sequential = pipelined;
  sequential.pipeline = false;
  sequential.from_disk = true;
  const double pipe_s = timed(repeats, [&] { (void)partitioner.partition(pipelined); });
  const double seq_s = timed(repeats, [&] { (void)partitioner.partition(sequential); });
  report("stream.sequential_partition_s", seq_s);
  report("stream.overlap_speedup", ratio(seq_s, pipe_s));
}

/// Isolated calls into each layer the workload's path crosses; prints the
/// per-layer metrics by name.
int child_layers(const Options& opt) {
  const Workload& w = workload_named(opt.workloads.front());
  const int repeats = opt.smoke ? 1 : kLayerRepeats;
  const PartitionRequest req = request_for(w.route, opt.input);
  const PartitionArtifact ref = read_artifact(opt.artifact);

  const std::string copy = opt.artifact + ".copy";
  report("api.artifact_write_s", timed(repeats, [&] { write_artifact(ref, copy); }));
  report("api.artifact_read_s", timed(repeats, [&] { (void)read_artifact(copy); }));
  report("api.artifact_mib", static_cast<double>(std::filesystem::file_size(copy)) / (1 << 20));
  std::filesystem::remove(copy);

  const auto cut_eval = [&](const CsrGraph& g) {
    report("partition.edge_cut_eval_s",
           timed(repeats, [&] { (void)edge_cut(g, ref.assignment); }));
  };

  switch (w.route) {
  case Route::kMapDisk: {
    report("stream.read_s", timed(repeats, [&] { read_pass(opt.input); }));
    report("stream.parse_s", timed(repeats, [&] {
             MetisNodeStream stream(opt.input);
             NodeBatch batch;
             const PipelineConfig defaults;
             while (stream.fill_batch(batch, defaults.batch_nodes, defaults.batch_arcs) > 0) {
             }
           }));
    time_routes(req, repeats);
    const CsrGraph g = read_metis(opt.input);
    const SystemHierarchy topo = *topology_of(w.route);
    OmsConfig config;
    config.epsilon = kEpsilon;
    report("core.assign_s", timed(repeats, [&] {
             OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                                    config);
             (void)run_one_pass(g, oms, 1);
           }));
    cut_eval(g);
    report("mapping.cost_eval_s",
           timed(repeats, [&] { (void)mapping_cost(g, topo, ref.assignment, 1); }));
    break;
  }
  case Route::kFennelMem: {
    CsrGraph g;
    report("graph.read_metis_s", timed(repeats, [&] { g = read_metis(opt.input); }));
    PartitionConfig pc;
    pc.k = req.k;
    pc.epsilon = kEpsilon;
    std::vector<BlockId> fennel;
    const double fennel_s = timed(repeats, [&] {
      FennelPartitioner f(g.num_nodes(), g.num_edges(), g.total_node_weight(), pc);
      fennel = run_one_pass(g, f, 1).assignment;
    });
    OmsConfig config;
    config.epsilon = kEpsilon;
    std::vector<BlockId> nh_oms;
    const double oms_s = timed(repeats, [&] {
      OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), req.k,
                             config);
      nh_oms = run_one_pass(g, oms, 1).assignment;
    });
    report("partition.assign_s", fennel_s);
    report("partition.oms_assign_s", oms_s);
    report("partition.fennel_over_oms_time", ratio(fennel_s, oms_s));
    report("partition.oms_over_fennel_cut",
           ratio(static_cast<double>(edge_cut(g, nh_oms)),
                 static_cast<double>(edge_cut(g, fennel))));
    cut_eval(g);
    break;
  }
  case Route::kBufferedMl: {
    report("stream.read_s", timed(repeats, [&] { read_pass(opt.input); }));
    report("stream.parse_s", timed(repeats, [&] {
             MetisNodeStream stream(opt.input);
             NodeBatch batch;
             while (stream.fill_batch(batch, static_cast<std::size_t>(req.buffer_size)) > 0) {
             }
           }));
    time_routes(req, repeats);
    const CsrGraph g = read_metis(opt.input);
    BufferedConfig bc;
    bc.buffer_size = static_cast<NodeId>(req.buffer_size);
    bc.epsilon = kEpsilon;
    bc.engine = BufferedEngine::kMultilevel;
    report("buffered.model_s",
           timed(repeats, [&] { (void)buffered_partition(g, req.k, bc); }));
    PartitionRequest lp = req;
    lp.buffered_engine = "lp";
    PartitionArtifact lp_artifact;
    report("buffered.lp_partition_s",
           timed(repeats, [&] { lp_artifact = Partitioner().partition(lp); }));
    report("buffered.lp_edge_cut_ratio",
           static_cast<double>(edge_cut(g, lp_artifact.assignment)) /
               static_cast<double>(g.num_edges()));
    cut_eval(g);
    break;
  }
  case Route::kHdrfEdges: {
    report("stream.read_s", timed(repeats, [&] { read_pass(opt.input); }));
    const PipelineConfig defaults;
    report("stream.parse_s", timed(repeats, [&] {
             EdgeListStream stream(opt.input);
             EdgeBatch batch;
             while (stream.fill_batch(batch, defaults.batch_nodes) > 0) {
             }
           }));
    time_routes(req, repeats);
    std::vector<StreamedEdge> edges;
    EdgeListStream stream(opt.input);
    for (StreamedEdge e; stream.next(e);) {
      edges.push_back(e);
    }
    EdgePartConfig config;
    config.k = req.k;
    config.lambda = req.lambda;
    config.epsilon = kEpsilon;
    report("edgepart.assign_s", timed(repeats, [&] {
             HdrfPartitioner hdrf(config);
             (void)run_edge_partition(edges, hdrf);
           }));
    report("edgepart.dbh_assign_s", timed(repeats, [&] {
             DbhPartitioner dbh(config);
             (void)run_edge_partition(edges, dbh);
           }));
    break;
  }
  case Route::kServeMix: {
    // handle() in process on pre-encoded bodies: the service core without
    // the socket, so the transport's share of a round trip shows.
    const service::PartitionService svc(ref);
    const std::uint64_t items = ref.assignment.size();
    const std::uint64_t ops = opt.smoke ? 10'000 : 1'000'000;
    Rng rng(opt.seed);
    std::vector<std::vector<char>> where_bodies;
    std::vector<std::vector<char>> batch_bodies;
    for (int i = 0; i < 4096; ++i) {
      where_bodies.push_back(service::encode_where(rng.next_below(items)));
    }
    for (int i = 0; i < 64; ++i) {
      std::vector<std::uint64_t> ids(kBatchIds);
      for (std::uint64_t& id : ids) {
        id = rng.next_below(items);
      }
      batch_bodies.push_back(service::encode_batch(ids));
    }
    std::uint64_t sink = 0;
    const auto run = [&](const std::vector<std::vector<char>>& bodies, std::uint64_t count) {
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::vector<char>& body = bodies[i % bodies.size()];
        const service::Reply reply = svc.handle(body.data(), body.size());
        sink += static_cast<unsigned char>(reply.body[0]); // status byte: 0 = kOk
      }
    };
    const std::uint64_t batches = std::max<std::uint64_t>(ops / kBatchIds, 1);
    const double where_s = timed(repeats, [&] { run(where_bodies, ops); });
    const double batch_s = timed(repeats, [&] { run(batch_bodies, batches); });
    if (sink != 0) {
      throw IoError("handle() answered a well-formed request with an error status");
    }
    report("service.handle_where_ns", where_s * 1e9 / static_cast<double>(ops));
    report("service.handle_batch_ns", batch_s * 1e9 / static_cast<double>(batches));
    break;
  }
  }
  return 0;
}

// ------------------------------------------------------------- parent

/// "key value" lines of a child's report, plus its spans.
struct ChildReport {
  std::map<std::string, double> values;
  std::vector<SpanRecord> spans;

  [[nodiscard]] double at(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw IoError("child report lacks '" + key + "'");
    }
    return it->second;
  }
};

[[nodiscard]] ChildReport parse_report(const std::string& text) {
  ChildReport out;
  std::istringstream in(text);
  std::string key;
  while (in >> key) {
    if (key == "span") {
      SpanRecord s;
      in >> s.name >> s.start_ns >> s.end_ns;
      out.spans.push_back(std::move(s));
    } else {
      double value = 0.0;
      in >> value;
      out.values[key] = value;
    }
  }
  return out;
}

/// What one workload run shares across its reps.
struct Run {
  const Options& opt;
  const Workload& w;
  std::string self_exe;
  Input input;
  std::string artifact_path;
  Tracer tracer;
  RunResult result;

  [[nodiscard]] Tracer* tracer_if_traced() { return result.trace ? &tracer : nullptr; }

  /// Run a bench child to completion and parse its report.
  [[nodiscard]] ChildReport run_child(const char* mode, bool traced, std::uint64_t run_id,
                                      std::uint64_t* spawn_ns) {
    std::vector<std::string> argv = {self_exe,  "--child",    mode,
                                     "--workload", w.name,    "--input",
                                     input.path, "--artifact", artifact_path,
                                     "--seed",   std::to_string(opt.seed)};
    if (traced) {
      argv.emplace_back("--traced");
    }
    if (opt.smoke) {
      argv.emplace_back("--smoke");
    }
    const Span span(tracer_if_traced(), std::string("bench.") + mode, run_id);
    Child child(argv, "");
    if (spawn_ns != nullptr) {
      *spawn_ns = child.spawn_ns();
    }
    const std::string text = child.read_all(kChildTimeoutS);
    const int status = child.wait(kChildTimeoutS);
    if (!exited_cleanly(status)) {
      throw IoError(std::string(mode) + " child failed (wait status " +
                    std::to_string(status) + ")");
    }
    ChildReport rep = parse_report(text);
    if (result.trace) {
      for (SpanRecord& s : rep.spans) {
        tracer.record(std::move(s.name), run_id, span.id(), s.start_ns, s.end_ns);
      }
    }
    return rep;
  }
};

/// One rep's measurements.
struct RepSample {
  double setup_s = 0.0;
  double op_s = 0.0;
  double rss_mib = 0.0;
  ChildReport report;
};

/// Run one rep; nullopt (and a recorded failure) when it failed or its
/// assignment differs from \p expected_hash (every route here is
/// deterministic). Hash 0 = the warm-up, which sets it.
[[nodiscard]] std::optional<RepSample> run_rep(Run& run, bool traced, std::uint64_t run_id,
                                               std::uint64_t& expected_hash) {
  ++run.result.attempted;
  try {
    std::uint64_t spawn_ns = 0;
    RepSample s;
    s.report = run.run_child("rep", traced, run_id, &spawn_ns);
    s.setup_s = (s.report.at("ready_ns") - static_cast<double>(spawn_ns)) * 1e-9;
    s.op_s = s.report.at("op_s");
    s.rss_mib = s.report.at("peak_rss_mib");
    const Span span(run.tracer_if_traced(), "bench.verify", run_id);
    const std::uint64_t hash = testing::fnv1a(read_artifact(run.artifact_path).assignment);
    if (expected_hash != 0 && hash != expected_hash) {
      throw IoError("rep " + std::to_string(run_id) + " assignment hash " + hex(hash) +
                    " differs from the first rep's " + hex(expected_hash));
    }
    expected_hash = hash;
    return s;
  } catch (const std::exception& e) {
    ++run.result.failed;
    run.result.fail(e.what());
    return std::nullopt;
  }
}

[[nodiscard]] std::vector<double> column(const std::vector<RepSample>& reps,
                                         double RepSample::*field) {
  std::vector<double> v;
  for (const RepSample& r : reps) {
    v.push_back(r.*field);
  }
  return v;
}

[[nodiscard]] std::vector<double> report_column(const std::vector<RepSample>& reps,
                                                const std::string& key) {
  std::vector<double> v;
  for (const RepSample& r : reps) {
    v.push_back(r.report.at(key));
  }
  return v;
}

/// Keep running until the run's time is spent (and at least \p min_count
/// times); \p body returns false to stop early.
template <typename Body>
void for_seconds(const Run& run, std::uint64_t start_ns, int min_count, Body&& body) {
  for (int i = 0; i < min_count || seconds_since(start_ns) < run.opt.seconds; ++i) {
    if (!body(i)) {
      return;
    }
  }
}

void copy_layer_report(const ChildReport& report, RunResult& r) {
  for (const auto& [key, value] : report.values) {
    r.set(key, value);
  }
}

void run_partition_workload(Run& run) {
  RunResult& r = run.result;
  const Route route = run.w.route;
  const bool edges = route == Route::kHdrfEdges;

  std::uint64_t hash = 0;
  const std::optional<RepSample> warm = run_rep(run, false, 0, hash);
  if (!warm) {
    return;
  }
  {
    const PartitionArtifact ref = read_artifact(run.artifact_path);
    const Quality q = edges ? verify_edge_artifact(ref, run.input.graph, k_of(route), r)
                            : verify_node_artifact(ref, run.input.graph, k_of(route),
                                                   topology_of(route), r);
    record_quality(q, edges, r);
    r.detail.emplace_back("assignment_fnv1a", hex(hash));
    r.set("cost_per_edge", q.cost_per_edge);
  }
  const double items = static_cast<double>(edges ? run.input.graph.num_edges()
                                                 : run.input.graph.num_nodes());
  const double nodes = static_cast<double>(run.input.graph.num_nodes());
  const int min_reps = run.opt.smoke ? 1 : kMinReps;

  std::vector<RepSample> plain;
  std::vector<RepSample> traced;
  const std::uint64_t start = steady_ns();
  if (r.trace) {
    ++r.attempted;
    try {
      copy_layer_report(run.run_child("layers", false, 0, nullptr), r);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail(e.what());
    }
  }
  std::uint64_t rep_id = 1;
  for_seconds(run, start, min_reps, [&](int) {
    std::optional<RepSample> s = run_rep(run, false, rep_id++, hash);
    if (s) {
      plain.push_back(std::move(*s));
    }
    if (r.trace) {
      s = run_rep(run, true, rep_id++, hash);
      if (s) {
        traced.push_back(std::move(*s));
      }
    }
    return r.correct();
  });
  r.detail.emplace_back("reps", std::to_string(plain.size() + traced.size()));
  if (plain.empty() || (r.trace && traced.empty())) {
    r.fail("no successful rep");
    return;
  }

  std::vector<double> op_ms = column(plain, &RepSample::op_s);
  for (double& v : op_ms) {
    v *= 1e3;
  }
  const double op_s = r.set_median("latency_p50_ms", op_ms) * 1e-3;
  std::sort(op_ms.begin(), op_ms.end());
  r.set("latency_p99_ms", percentile_sorted(op_ms, 0.99));
  r.set("throughput_per_s", items / op_s);
  r.set_median("setup_s", column(plain, &RepSample::setup_s));
  r.set_median("peak_rss_mib", column(plain, &RepSample::rss_mib));

  const ChildReport& first = warm->report;
  r.set("work.score_evals_per_node", first.at("work.score_evaluations") / nodes);
  r.set("work.neighbor_visits_per_node", first.at("work.neighbor_visits") / nodes);
  r.set("work.layers_per_node", first.at("work.layers_traversed") / nodes);
  if (!r.trace) {
    return;
  }
  const auto median_of = [&](const std::string& key) {
    return summarize(report_column(traced, key)).median;
  };
  r.set("stream.insitu_parse_s", median_of("reg.parse_s"));
  r.set("stream.insitu_assign_s", median_of("reg.assign_s"));
  r.set("stream.producer_stall_s", median_of("reg.producer_stall_s"));
  r.set("stream.consumer_wait_s", median_of("reg.consumer_wait_s"));
  r.set("stream.queue_depth_max", median_of("reg.queue_depth_max"));
  r.set("buffered.insitu_build_s", median_of("reg.buffer_build_s"));
  r.set("buffered.insitu_refine_s", median_of("reg.buffer_refine_s"));
  r.set("multilevel.insitu_vcycle_s", median_of("reg.multilevel_s"));
  const double accepted = median_of("reg.commits_accepted");
  r.set("multilevel.commit_accept_frac",
        ratio(accepted, accepted + median_of("reg.commits_rejected")));
  r.set("multilevel.backoff_skips", median_of("reg.backoff_skips"));
  // The consumer thread's in-program spans (assign + waiting for the reader)
  // against the facade call; the remainder is time no span covers.
  std::vector<double> unattributed;
  for (const RepSample& s : traced) {
    unattributed.push_back(
        1.0 - (s.report.at("reg.assign_s") + s.report.at("reg.consumer_wait_s")) / s.op_s);
  }
  r.set("telemetry.unattributed_frac", summarize(unattributed).median);
  r.set("telemetry.overhead_frac",
        summarize(column(traced, &RepSample::op_s)).median / op_s - 1.0);
}

// ---------------------------------------------------------- serve-mix

struct ClientLoad {
  std::vector<double> where_us;
  std::vector<double> batch_us;
  std::uint64_t ids = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int connects = 0;
  std::vector<std::string> errors;
};

/// One closed-loop client: WHERE of a uniform id, or 1 in kBatchEvery a
/// BATCH of kBatchIds uniform ids; every answer checked against the
/// artifact. A request that fails or is answered wrongly counts as failed.
void client_loop(const std::string& socket, const PartitionArtifact& artifact,
                 std::uint64_t requests, std::uint64_t seed, Tracer* tracer,
                 std::uint64_t session_span, std::uint64_t first_request_id, ClientLoad& out) {
  service::ServiceClient client(socket);
  Rng rng(seed);
  const std::uint64_t items = artifact.assignment.size();
  std::vector<std::uint64_t> ids(kBatchIds);
  out.where_us.reserve(requests);
  for (std::uint64_t i = 0; i < requests; ++i) {
    const bool batch = rng.next_below(kBatchEvery) == 0;
    std::vector<char> body;
    if (batch) {
      for (std::uint64_t& id : ids) {
        id = rng.next_below(items);
      }
      body = service::encode_batch(ids);
    } else {
      ids[0] = rng.next_below(items);
      body = service::encode_where(ids[0]);
    }
    ++out.attempted;
    const std::uint64_t t0 = steady_ns();
    bool ok = false;
    try {
      const service::ClientReply reply = client.request(body);
      const std::uint64_t t1 = steady_ns();
      CheckpointReader rd(reply.payload);
      ok = reply.status == service::Status::kOk;
      if (ok && batch) {
        ok = rd.get_u32() == kBatchIds;
        for (std::size_t j = 0; ok && j < kBatchIds; ++j) {
          ok = rd.get_u32() == static_cast<std::uint32_t>(artifact.where(ids[j]));
        }
      } else if (ok) {
        ok = rd.get_u32() == static_cast<std::uint32_t>(artifact.where(ids[0]));
      }
      ok = ok && rd.remaining() == 0;
      if (!ok && out.errors.size() < 3) {
        out.errors.push_back(std::string(batch ? "BATCH" : "WHERE") + " request " +
                             std::to_string(i) + " answered wrongly (status " +
                             service::status_name(reply.status) + ")");
      }
      const double us = static_cast<double>(t1 - t0) * 1e-3;
      (batch ? out.batch_us : out.where_us).push_back(us);
      if (tracer != nullptr && i < kTracedRequests) {
        tracer->record(batch ? "service.batch" : "service.where", first_request_id + i,
                       session_span, t0, t1);
      }
    } catch (const IoError& e) {
      // A request that fails misses every latency limit.
      (batch ? out.batch_us : out.where_us).push_back(std::numeric_limits<double>::infinity());
      if (out.errors.size() < 3) {
        out.errors.push_back(e.what());
      }
    }
    if (ok) {
      out.ids += batch ? kBatchIds : 1;
    } else {
      ++out.failed;
    }
  }
  out.connects = client.connects();
}

struct Session {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double rss_mib = 0.0;
  std::vector<ClientLoad> clients;
  telemetry::MetricsSnapshot server;
};

/// Spawn the daemon on the artifact, wait for its first kOk, run the client
/// load, scrape METRICS, SHUTDOWN and reap it.
[[nodiscard]] Session run_session(Run& run, const PartitionArtifact& artifact, bool traced,
                                  std::uint64_t index) {
  Tracer* tracer = traced ? &run.tracer : nullptr;
  const Span session_span(tracer, "service.session", index);
  const std::string socket = run.opt.work_dir + "/serve.sock";
  std::filesystem::remove(socket);
  Child daemon({kOmsServe, "--artifact", run.artifact_path, "--socket", socket,
                "--max-conns", "4"},
               run.opt.work_dir + "/oms_serve.log");

  Session s;
  service::ClientConfig probe_config;
  probe_config.max_attempts = 1;
  std::uint64_t ready_ns = 0;
  while (ready_ns == 0) {
    try {
      service::ServiceClient probe(socket, probe_config);
      const service::ClientStats stats = probe.stats();
      ready_ns = steady_ns();
      if (stats.items != artifact.assignment.size() ||
          stats.k != static_cast<std::uint32_t>(artifact.k)) {
        throw std::runtime_error("daemon serves a different artifact");
      }
    } catch (const IoError&) {
      if (!daemon.running() || seconds_since(daemon.spawn_ns()) > kChildTimeoutS) {
        throw IoError("oms_serve did not come up (see " + run.opt.work_dir +
                      "/oms_serve.log)");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  s.setup_s = static_cast<double>(ready_ns - daemon.spawn_ns()) * 1e-9;
  if (tracer != nullptr) {
    tracer->record("service.daemon_startup", index, session_span.id(), daemon.spawn_ns(),
                   ready_ns);
  }

  const std::uint64_t requests =
      run.opt.smoke ? kSmokeRequestsPerClient : kRequestsPerClient;
  s.clients.resize(kClients);
  std::vector<Tracer> tracers; // one per client thread
  for (int c = 0; c < kClients; ++c) {
    tracers.emplace_back(static_cast<std::uint32_t>(c + 1));
  }
  std::latch start(kClients + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      ClientLoad& load = s.clients[c];
      try {
        const std::uint64_t seed = run.opt.seed * 1000003 + index * 101 + c;
        client_loop(socket, artifact, requests, seed, traced ? &tracers[c] : nullptr,
                    session_span.id(), (index * kClients + c) * requests, load);
      } catch (const std::exception& e) {
        ++load.failed;
        load.errors.push_back(std::string("client: ") + e.what());
      }
    });
  }
  start.arrive_and_wait();
  const std::uint64_t t0 = steady_ns();
  for (std::thread& t : threads) {
    t.join();
  }
  s.wall_s = seconds_since(t0);
  if (tracer != nullptr) {
    for (const Tracer& t : tracers) {
      tracer->absorb(t);
    }
  }

  service::ServiceClient control(socket, probe_config);
  const service::ClientReply metrics = control.request(service::encode_metrics());
  CheckpointReader rd(metrics.payload);
  s.server = telemetry::MetricsSnapshot::from_json(rd.get_string());
  s.rss_mib = daemon.peak_rss_mib();
  if (control.request(service::encode_shutdown()).status != service::Status::kOk) {
    throw IoError("oms_serve refused SHUTDOWN");
  }
  const int status = daemon.wait(30.0);
  if (!exited_cleanly(status)) {
    throw IoError("oms_serve exited with wait status " + std::to_string(status));
  }
  std::filesystem::remove(socket);
  return s;
}

void run_serve_workload(Run& run) {
  RunResult& r = run.result;
  // The served artifact: map-disk's request on map-disk's input, built
  // once per run and untimed.
  const PartitionArtifact artifact =
      Partitioner().partition(request_for(Route::kServeMix, run.input.path));
  write_artifact(artifact, run.artifact_path);
  const Quality q = verify_node_artifact(artifact, run.input.graph, k_of(Route::kServeMix),
                                         topology_of(Route::kServeMix), r);
  record_quality(q, false, r);
  r.detail.emplace_back("assignment_fnv1a", hex(testing::fnv1a(artifact.assignment)));
  r.set("cost_per_edge", q.cost_per_edge);

  const std::uint64_t start = steady_ns();
  if (r.trace) {
    ++r.attempted;
    try {
      copy_layer_report(run.run_child("layers", false, 0, nullptr), r);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail(e.what());
    }
  }
  std::vector<Session> plain;
  std::vector<Session> traced;
  std::uint64_t index = 0;
  for_seconds(run, start, run.opt.smoke ? 1 : kMinSessions, [&](int) {
    for (const bool with_spans : {false, true}) {
      if (with_spans && !r.trace) {
        break;
      }
      try {
        Session s = run_session(run, artifact, with_spans, index++);
        for (const ClientLoad& c : s.clients) {
          r.attempted += c.attempted;
          r.failed += c.failed;
          for (const std::string& e : c.errors) {
            r.fail(e);
          }
        }
        (with_spans ? traced : plain).push_back(std::move(s));
      } catch (const std::exception& e) {
        ++r.attempted;
        ++r.failed;
        r.fail(std::string("session: ") + e.what());
      }
    }
    return r.correct();
  });
  r.detail.emplace_back("sessions", std::to_string(plain.size() + traced.size()));
  if (plain.empty() || (r.trace && traced.empty())) {
    r.fail("no successful session");
    return;
  }

  // Latencies pool every request of every untraced session.
  const auto pooled = [](const std::vector<Session>& sessions, bool where, bool batch) {
    std::vector<double> v;
    for (const Session& s : sessions) {
      for (const ClientLoad& c : s.clients) {
        if (where) {
          v.insert(v.end(), c.where_us.begin(), c.where_us.end());
        }
        if (batch) {
          v.insert(v.end(), c.batch_us.begin(), c.batch_us.end());
        }
      }
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  const std::vector<double> all_us = pooled(plain, true, true);
  const std::vector<double> where_us = pooled(plain, true, false);
  const std::vector<double> batch_us = pooled(plain, false, true);
  double ids = 0.0;
  double wall = 0.0;
  double client_ns = 0.0;
  for (const Session& s : plain) {
    wall += s.wall_s;
    for (const ClientLoad& c : s.clients) {
      ids += static_cast<double>(c.ids);
    }
  }
  for (const double us : all_us) {
    client_ns += us * 1e3;
  }
  std::vector<double> setups;
  std::vector<double> rss;
  std::vector<double> server_mean_ns;
  double server_ns = 0.0;
  double reconnects = 0.0;
  double rejected = 0.0;
  double timeouts = 0.0;
  for (const std::vector<Session>* group : {&plain, &traced}) {
    for (const Session& s : *group) {
      setups.push_back(s.setup_s);
      rss.push_back(s.rss_mib);
      const telemetry::HistogramSnapshot& h =
          s.server.histogram(telemetry::Hist::kServiceRequest);
      server_mean_ns.push_back(ratio(static_cast<double>(h.sum), static_cast<double>(h.count)));
      if (group == &plain) {
        server_ns += static_cast<double>(h.sum);
      }
      rejected += static_cast<double>(s.server.counter(telemetry::Counter::kServiceConnsRejected));
      timeouts += static_cast<double>(s.server.counter(telemetry::Counter::kServiceTimeouts));
      for (const ClientLoad& c : s.clients) {
        reconnects += c.connects - 1;
      }
    }
  }
  r.set_median("setup_s", setups);
  r.set("latency_p50_ms", percentile_sorted(all_us, 0.5) * 1e-3);
  r.set("latency_p99_ms", percentile_sorted(all_us, 0.99) * 1e-3);
  r.set("throughput_per_s", ids / wall);
  r.set_median("peak_rss_mib", rss);

  const double where_p50 = percentile_sorted(where_us, 0.5);
  const std::pair<const char*, double> lookups[] = {
      {"service.where_p50_us", where_p50},
      {"service.where_p99_us", percentile_sorted(where_us, 0.99)},
      {"service.batch_p50_us", percentile_sorted(batch_us, 0.5)},
      {"service.batch_p99_us", percentile_sorted(batch_us, 0.99)},
  };
  r.detail.emplace_back("requests", std::to_string(all_us.size()));
  for (const auto& [name, value] : lookups) {
    r.set(name, value);
    r.detail.emplace_back(name, json_number(value));
  }
  const double server_mean = r.set_median("service.server_request_mean_ns", server_mean_ns);
  r.set("service.transport_share", 1.0 - ratio(server_mean, where_p50 * 1e3));
  r.set("service.reconnects", reconnects);
  r.set("service.conns_rejected", rejected);
  r.set("service.timeouts", timeouts);
  if (!r.trace) {
    return;
  }
  // In-program spans (handle()) against the client-observed round trips.
  r.set("telemetry.unattributed_frac", 1.0 - ratio(server_ns, client_ns));
  r.set("telemetry.overhead_frac",
        ratio(percentile_sorted(pooled(traced, true, true), 0.5),
              percentile_sorted(all_us, 0.5)) -
            1.0);
}

// ---------------------------------------------------------------- main

/// Run one workload; a traced run's spans are moved into \p spans.
[[nodiscard]] RunResult run_workload(const Options& opt, const Workload& w, bool trace,
                                     const std::string& self_exe, Tracer& spans) {
  Run run{opt, w, self_exe, {}, opt.work_dir + "/" + w.name + ".artifact", Tracer{}, {}};
  RunResult& r = run.result;
  r.workload = w.name;
  r.seed = opt.seed;
  r.trace = trace;
  try {
    const InputSpec spec = input_of(w, opt.smoke);
    run.input = prepare_input(opt.input_dir, spec, opt.seed);
    std::cout << "workload " << w.name << " (seed " << opt.seed << ", trace "
              << (trace ? 1 : 0) << "): input " << input_file_name(spec) << ", "
              << run.input.graph.num_nodes() << " nodes, " << run.input.graph.num_edges()
              << " edges, " << run.input.digest.bytes << " bytes, generated in "
              << run.input.generate_s << " s"
              << (run.input.write_s > 0.0 ? ", file written" : ", file cached") << "\n";
    if (w.route == Route::kServeMix) {
      run_serve_workload(run);
    } else {
      run_partition_workload(run);
    }
  } catch (const std::exception& e) {
    r.fail(e.what());
  }
  std::filesystem::remove(run.artifact_path);
  if (trace) {
    std::cout << "span totals (bench-side):\n";
    for (const auto& [name, t] : run.tracer.totals()) {
      std::printf("  %-26s n %6llu  total %10.4f s  self %10.4f s\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    }
    std::fflush(stdout);
    spans.absorb(run.tracer);
  }
  print_table(std::cout, r, trace ? std::span<const MetricDef>(kPerLayer)
                                  : std::span<const MetricDef>(kEndToEnd));
  return r;
}

[[noreturn]] void usage(const std::string& error) {
  std::ostream& os = error.empty() ? std::cout : std::cerr;
  if (!error.empty()) {
    os << "error: " << error << "\n";
  }
  os << "usage: bench_e2e [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--smoke] [--work-dir DIR] [--input-dir DIR] [--out FILE]\n"
               "                 [--trace-out FILE]\n"
               "workloads: map-disk fennel-mem buffered-ml hdrf-edges serve-mix (default: all)\n";
  std::exit(error.empty() ? 0 : 2);
}

[[nodiscard]] Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(flag + " needs a value");
      }
      return argv[++i];
    };
    const auto number = [&](const std::string& text) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(v >= 0.0)) {
        usage(flag + " expects a number >= 0, got '" + text + "'");
      }
      return v;
    };
    if (flag == "--help") {
      usage("");
    }
    if (flag == "--workload") {
      opt.workloads.push_back(value());
      try {
        (void)workload_named(opt.workloads.back());
      } catch (const InvalidRequest& e) {
        usage(e.what());
      }
    } else if (flag == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      opt.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') {
        usage("--seed expects a whole number, got '" + text + "'");
      }
    } else if (flag == "--seconds") {
      opt.seconds = number(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        usage("--trace expects 0 or 1");
      }
      opt.trace = v == "1";
    } else if (flag == "--smoke") {
      opt.smoke = true;
    } else if (flag == "--work-dir") {
      opt.work_dir = value();
    } else if (flag == "--input-dir") {
      opt.input_dir = value();
    } else if (flag == "--out") {
      opt.out = value();
    } else if (flag == "--trace-out") {
      opt.trace_out = value();
    } else if (flag == "--child") {
      opt.child = value();
    } else if (flag == "--input") {
      opt.input = value();
    } else if (flag == "--artifact") {
      opt.artifact = value();
    } else if (flag == "--traced") {
      opt.traced = true;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (opt.input_dir.empty()) {
    opt.input_dir = opt.work_dir + "/inputs";
  }
  if (opt.smoke) {
    opt.seconds = 0.0;
  }
  return opt;
}

int run_main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  if (!opt.child.empty()) {
    if (opt.workloads.size() != 1) {
      usage("--child needs exactly one --workload");
    }
    if (opt.child != "rep" && opt.child != "layers") {
      usage("--child must be 'rep' or 'layers'");
    }
    return opt.child == "rep" ? child_rep(opt) : child_layers(opt);
  }
  const std::string self_exe = std::filesystem::canonical("/proc/self/exe").string();
  std::filesystem::create_directories(opt.work_dir);

  std::vector<RunResult> runs;
  Tracer spans;
  const std::vector<bool> modes = opt.smoke ? std::vector<bool>{false, true}
                                            : std::vector<bool>{opt.trace};
  for (const bool trace : modes) {
    for (const Workload& w : kWorkloads) {
      if (opt.workloads.empty() ||
          std::find(opt.workloads.begin(), opt.workloads.end(), w.name) != opt.workloads.end()) {
        runs.push_back(run_workload(opt, w, trace, self_exe, spans));
      }
    }
  }

  bool correct = true;
  for (const RunResult& r : runs) {
    correct = correct && r.correct();
  }
  if (!opt.trace_out.empty()) {
    spans.write_chrome_json(opt.trace_out);
  }
  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    out << "{\"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      write_run_json(out, runs[i], runs[i].trace ? std::span<const MetricDef>(kPerLayer)
                                                 : std::span<const MetricDef>(kEndToEnd));
      out << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.flush();
    if (!out.good()) {
      std::cerr << "error: cannot write '" << opt.out << "'\n";
      return 1;
    }
  }
  write_result_line(std::cout, runs, kEndToEnd, kPerLayer);
  std::cout.flush();
  return correct ? 0 : 1;
}

} // namespace
} // namespace oms::e2e

int main(int argc, char** argv) {
  try {
    return oms::e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
