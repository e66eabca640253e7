/// \file bench_parallel_scaling.cpp
/// \brief Parallel-scaling assertion bench for the one-pass stream: sweeps
///        thread counts and batch sizes over nh-OMS and asserts the
///        invariants that must survive any interleaving — full coverage and
///        block weights within the Section 3.4 overshoot bound. Exits
///        non-zero on violation, so CI catches scaling regressions; the
///        timing table documents the measured scaling story.
///
/// Batch sizes: 0 is run_one_pass's one contiguous batch per thread (the
/// paper's setup); a positive size runs run_stream with that batch_nodes,
/// so hub-heavy regions are dealt across the consumer threads at the price
/// of more batch handoffs.
#include "bench/bench_common.hpp"

#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/util/parallel.hpp"

int main() {
  using namespace oms;
  using namespace oms::bench;
  const BenchEnv env = BenchEnv::from_env();
  preamble("Parallel scaling — nh-OMS one-pass driver", env);

  const NodeId n = env.scale == Scale::kSmall
                       ? (1u << 16)
                       : (env.scale == Scale::kMedium ? (1u << 19) : (1u << 21));
  const BlockId k = 1024;
  const CsrGraph graph = gen::barabasi_albert(n, 8, 3);

  std::vector<int> thread_counts;
  for (int t = 1; t <= hardware_threads(); t *= 2) {
    thread_counts.push_back(t);
  }
  const std::vector<std::size_t> batch_sizes = {0, 4096, 16384};

  int failures = 0;
  TablePrinter table({"threads", "batch", "time [s]", "speedup", "imbalance"});
  double base_time = 0.0;
  for (const int threads : thread_counts) {
    for (const std::size_t batch : batch_sizes) {
      OmsConfig config;
      OnlineMultisection oms(graph.num_nodes(), graph.num_edges(),
                             graph.total_node_weight(), k, config);
      PipelineConfig policy;
      policy.assign_threads = threads;
      policy.batch_nodes = batch;
      policy.ring_batches = static_cast<std::size_t>(threads);
      const StreamResult r =
          batch == 0 ? run_one_pass(graph, oms, threads) : run_stream(graph, oms, policy);

      // Invariant 1: every node placed, every block id in range.
      for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        if (r.assignment[u] < 0 || r.assignment[u] >= k) {
          std::cerr << "FAIL: node " << u << " has invalid block "
                    << r.assignment[u] << " (threads=" << threads
                    << ", batch=" << batch << ")\n";
          ++failures;
          break;
        }
      }
      // Invariant 2: capacity + parallel overshoot bound. Each block may be
      // overshot by at most one racing node per extra thread (unit weights
      // here), plus the all-full fallback; threads * max weight is a safe
      // envelope.
      const NodeWeight lmax =
          max_block_weight(graph.total_node_weight(), k, config.epsilon);
      const auto weights = block_weights_of(graph, r.assignment, k);
      for (BlockId b = 0; b < k; ++b) {
        if (weights[static_cast<std::size_t>(b)] > lmax + threads) {
          std::cerr << "FAIL: block " << b << " weight "
                    << weights[static_cast<std::size_t>(b)] << " exceeds "
                    << lmax << " + " << threads << " (threads=" << threads
                    << ", batch=" << batch << ")\n";
          ++failures;
        }
      }

      if (threads == 1 && batch == 0) {
        base_time = r.elapsed_s;
      }
      table.add_row({TablePrinter::cell(static_cast<std::int64_t>(threads)),
                     TablePrinter::cell(static_cast<std::int64_t>(batch)),
                     TablePrinter::cell(r.elapsed_s, 4),
                     TablePrinter::cell(base_time / r.elapsed_s, 2),
                     TablePrinter::cell(imbalance(graph, r.assignment, k), 4)});
    }
  }
  table.print(std::cout);
  std::cout << "\npaper (Table 2): nh-OMS self-relative speedup ~2.8x at 32 "
               "threads; the bound asserted\nhere is correctness (coverage + "
               "overshoot), which must hold at every thread count.\n";
  if (failures != 0) {
    std::cerr << failures << " scaling invariant violation(s)\n";
    return 1;
  }
  std::cout << "all scaling invariants held\n";
  return 0;
}
