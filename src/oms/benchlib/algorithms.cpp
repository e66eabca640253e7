#include "oms/benchlib/algorithms.hpp"

#include "oms/core/online_multisection.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/multilevel/multilevel_partitioner.hpp"
#include "oms/multilevel/recursive_multisection.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/hashing.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/timer.hpp"

namespace oms::bench {

const char* algo_name(Algo algo) noexcept {
  switch (algo) {
    case Algo::kHashing: return "Hashing";
    case Algo::kLdg: return "LDG";
    case Algo::kFennel: return "Fennel";
    case Algo::kOms: return "OMS";
    case Algo::kNhOms: return "nh-OMS";
    case Algo::kKaMinParLite: return "KaMinParLite";
    case Algo::kIntMapLite: return "IntMapLite";
  }
  return "unknown";
}

SystemHierarchy paper_topology(std::int64_t r) {
  OMS_ASSERT(r >= 1);
  // S is written innermost-first in SystemHierarchy: 4 cores, 16 processors,
  // r nodes — the paper's S = 4:16:r with D = 1:10:100.
  return SystemHierarchy({4, 16, r}, {1, 10, 100});
}

namespace {

struct SingleRun {
  std::vector<BlockId> assignment;
  double time_s = 0.0;
  WorkCounters work;
  std::uint64_t state_bytes = 0;
  std::optional<Cost> cut; ///< counted while assigning (StreamResult)
  std::optional<Cost> j;
};

SingleRun run_once(Algo algo, const CsrGraph& graph, const RunOptions& options,
                   BlockId k, std::uint64_t seed) {
  SingleRun out;
  PartitionConfig pc;
  pc.k = k;
  pc.epsilon = options.epsilon;
  pc.seed = seed;

  const auto one_pass = [&](auto&& assigner) {
    out.state_bytes = assigner.state_bytes();
    StreamResult r = run_one_pass(graph, assigner, options.threads);
    out.assignment = std::move(r.assignment);
    out.time_s = r.elapsed_s;
    out.work = r.work;
    out.cut = r.edge_cut;
    out.j = r.mapping_j;
  };

  switch (algo) {
    case Algo::kHashing:
      one_pass(HashingPartitioner(graph.num_nodes(), graph.total_node_weight(), pc));
      break;
    case Algo::kLdg:
      one_pass(LdgPartitioner(graph.num_nodes(), graph.total_node_weight(), pc));
      break;
    case Algo::kFennel:
      one_pass(FennelPartitioner(graph.num_nodes(), graph.num_edges(),
                                 graph.total_node_weight(), pc));
      break;
    case Algo::kOms:
    case Algo::kNhOms: {
      OmsConfig config;
      config.epsilon = options.epsilon;
      config.seed = seed;
      config.adapted_alpha = options.adapted_alpha;
      config.base = options.base;
      config.quality_layers = options.quality_layers;
      config.scorer = options.oms_use_ldg ? ScorerKind::kLdg : ScorerKind::kFennel;
      if (algo == Algo::kOms) {
        OMS_ASSERT_MSG(options.topology.has_value(), "OMS requires a topology");
        one_pass(OnlineMultisection(graph.num_nodes(), graph.num_edges(),
                                    graph.total_node_weight(), *options.topology,
                                    config));
      } else {
        one_pass(OnlineMultisection(graph.num_nodes(), graph.num_edges(),
                                    graph.total_node_weight(), k, config));
      }
      break;
    }
    case Algo::kKaMinParLite: {
      MultilevelConfig config;
      config.epsilon = options.epsilon;
      config.seed = seed;
      Timer timer;
      MultilevelResult r = multilevel_partition(graph, k, config);
      out.time_s = timer.elapsed_s();
      out.assignment = std::move(r.partition);
      out.state_bytes = r.peak_graph_bytes;
      break;
    }
    case Algo::kIntMapLite: {
      OMS_ASSERT_MSG(options.topology.has_value(), "IntMapLite requires a topology");
      IntMapConfig config;
      config.multilevel.epsilon = options.epsilon;
      config.seed = seed;
      Timer timer;
      IntMapResult r = offline_recursive_multisection(graph, *options.topology,
                                                      config);
      out.time_s = timer.elapsed_s();
      out.assignment = std::move(r.mapping);
      out.state_bytes = r.peak_graph_bytes;
      break;
    }
  }
  return out;
}

} // namespace

RunMetrics run_algorithm(Algo algo, const CsrGraph& graph, const RunOptions& options) {
  const BlockId k = options.topology.has_value() ? options.topology->num_pes()
                                                 : options.k_override;
  OMS_ASSERT_MSG(k >= 1, "need a topology or k_override");

  RunMetrics metrics;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    const std::uint64_t seed = options.seed + static_cast<std::uint64_t>(rep) * 1000003;
    SingleRun run = run_once(algo, graph, options, k, seed);

    verify_partition(graph, run.assignment, k);
    metrics.time_s += run.time_s;
    // A pass that counted its quality exactly reports it; the others
    // (threads > 1, Hashing, the in-memory references) are evaluated here.
    metrics.edge_cut +=
        static_cast<double>(run.cut ? *run.cut : edge_cut(graph, run.assignment));
    if (options.topology.has_value()) {
      // Only OMS counts J, and then against this same topology.
      metrics.mapping_cost += static_cast<double>(
          run.j ? *run.j
                : mapping_cost(graph, *options.topology, run.assignment, options.threads));
    }
    metrics.balanced = metrics.balanced &&
                       is_balanced(graph, run.assignment, k, options.epsilon);
    metrics.work = run.work;
    metrics.state_bytes = run.state_bytes;
  }
  const auto reps = static_cast<double>(options.repetitions);
  metrics.time_s /= reps;
  metrics.edge_cut /= reps;
  metrics.mapping_cost /= reps;
  return metrics;
}

} // namespace oms::bench
