/// \file bench_stream_pipeline.cpp
/// \brief Disk-streaming pipeline bench + assertion harness: measures the
///        end-to-end wall clock of a disk-backed one-pass partition run under
///        (a) the sequential parse-then-assign driver and (b) the pipelined
///        driver across consumer-thread counts, and asserts the contracts
///        that must hold everywhere — single-consumer output bit-identical to
///        sequential, multi-consumer output covered and within the parallel
///        overshoot bound. Exits non-zero on violation so CI catches both
///        correctness and plumbing regressions.
///
/// The headline number is the seq/pipelined ratio with >= 2 total threads
/// (reader + 1 assigner): that is the parse/assign overlap the pipeline
/// exists for. On a single-core machine the ratio degrades to ~1.0 by
/// construction (the threads time-slice); the table still documents it.
#include "bench/bench_common.hpp"

#include <cstdio>
#include <unistd.h>

#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/partition/partition_config.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/util/parallel.hpp"
#include "oms/util/timer.hpp"

int main() {
  using namespace oms;
  using namespace oms::bench;
  const BenchEnv env = BenchEnv::from_env();
  preamble("Pipelined disk streaming — parse + assign overlap", env);

  const NodeId n = env.scale == Scale::kSmall
                       ? (1u << 15)
                       : (env.scale == Scale::kMedium ? (1u << 18) : (1u << 20));
  const BlockId k = 256;
  const CsrGraph graph = gen::barabasi_albert(n, 8, 3);
  const std::string path = "/tmp/oms_bench_stream_pipeline." +
                           std::to_string(::getpid()) + ".graph";
  write_metis(graph, path);

  const auto make_oms = [&] {
    OmsConfig config;
    return OnlineMultisection(graph.num_nodes(), graph.num_edges(),
                              graph.total_node_weight(), k, config);
  };
  const auto timed_best = [&](auto&& run) {
    // Best-of-reps: disk-backed timings are noisy (page cache, scheduler);
    // the minimum is the most stable estimator of the achievable time.
    double best = 0.0;
    for (int rep = 0; rep < env.repetitions; ++rep) {
      Timer timer;
      run();
      const double t = timer.elapsed_s();
      if (rep == 0 || t < best) {
        best = t;
      }
    }
    return best;
  };

  int failures = 0;

  // Reference: the sequential route (parse and assign alternate per batch).
  std::vector<BlockId> sequential_assignment;
  const double seq_time = timed_best([&] {
    OnlineMultisection oms = make_oms();
    PipelineConfig sequential;
    sequential.ring_batches = 0; // no reader thread
    MetisNodeStream stream(path);
    sequential_assignment = run_stream(stream, oms, sequential).assignment;
  });

  TablePrinter table({"mode", "io-threads", "time [s]", "vs seq"});
  table.add_row({std::string("sequential"), TablePrinter::cell(std::int64_t{0}),
                 TablePrinter::cell(seq_time, 4), TablePrinter::cell(1.0, 2)});

  std::vector<int> consumer_counts = {1};
  for (int t = 2; t <= hardware_threads(); t *= 2) {
    consumer_counts.push_back(t);
  }
  for (const int consumers : consumer_counts) {
    PipelineConfig config;
    config.assign_threads = consumers;
    std::vector<BlockId> assignment;
    const double t = timed_best([&] {
      OnlineMultisection oms = make_oms();
      MetisNodeStream stream(path, config.reader_buffer_bytes);
      assignment = run_stream(stream, oms, config).assignment;
    });

    if (consumers == 1) {
      // Contract 1: parse-ahead reorders work, not decisions.
      if (assignment != sequential_assignment) {
        std::cerr << "FAIL: single-consumer pipelined assignment differs from "
                     "the sequential route\n";
        ++failures;
      }
    } else {
      // Contract 2: parallel consumers keep coverage + the overshoot bound.
      OmsConfig oc;
      const NodeWeight lmax =
          max_block_weight(graph.total_node_weight(), k, oc.epsilon);
      const auto weights = block_weights_of(graph, assignment, k);
      for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        if (assignment[u] < 0 || assignment[u] >= k) {
          std::cerr << "FAIL: node " << u << " unassigned/out of range "
                    << "(consumers=" << consumers << ")\n";
          ++failures;
          break;
        }
      }
      for (BlockId b = 0; b < k; ++b) {
        if (weights[static_cast<std::size_t>(b)] > lmax + consumers) {
          std::cerr << "FAIL: block " << b << " weight "
                    << weights[static_cast<std::size_t>(b)] << " exceeds " << lmax
                    << " + " << consumers << " (consumers=" << consumers << ")\n";
          ++failures;
        }
      }
    }
    table.add_row({std::string("pipelined"),
                   TablePrinter::cell(static_cast<std::int64_t>(consumers)),
                   TablePrinter::cell(t, 4), TablePrinter::cell(seq_time / t, 2)});
  }
  table.print(std::cout);
  std::cout << "\n'vs seq' > 1 means the pipeline wins; the io-threads=1 row "
               "isolates pure\nparse/assign overlap (hardware threads here: "
            << hardware_threads() << ").\n";

  std::remove(path.c_str());
  if (failures != 0) {
    std::cerr << failures << " pipeline invariant violation(s)\n";
    return 1;
  }
  return 0;
}
