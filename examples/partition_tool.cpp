/// \file partition_tool.cpp
/// \brief Command-line streaming partitioner over METIS *node* streams and
///        SNAP-style *edge-list* streams — the shape of tool a downstream
///        user would run in an ingest pipeline.
///
/// The tool is a thin shell around the unified API: oms::cli::parse_request
/// maps the flags onto an oms::PartitionRequest, oms::Partitioner executes
/// it, and the PartitionArtifact that comes back carries the assignment and
/// every reported metric. oms_serve consumes the same two entry points, so
/// a partition served by the daemon is bit-identical to this tool's output
/// for the same flags.
///
/// METIS inputs are partitioned by node (edge-cut / process-mapping
/// objectives); edge-list inputs are partitioned by *vertex-cut* (hdrf, dbh,
/// grid2d — replication-factor objective), always streaming one pass from
/// disk. The format is autodetected from the extension (.edgelist, .el,
/// .edges, .snap = edge list) and forced with --format.
///
/// With --hierarchy the tool solves process mapping: OMS with J for node
/// streams, hierarchical HDRF with the weighted replica cost for edge
/// streams. --from-disk streams the file node by node without ever
/// materializing the graph: O(n + k) memory for the one-pass algorithms,
/// O(n + window + k) for the sliding window and O(n + buffer + k) for the
/// buffered model (the O(n) term is the assignment itself). --pipeline
/// (implies --from-disk) overlaps parsing with assignment: a dedicated
/// reader thread parses batches while --io-threads consumer threads assign
/// them (1, the default, keeps the sequential stream order bit-for-bit;
/// window, buffered, vertex-cut and checkpointing runs need that one ordered
/// consumer, so there the pipeline overlaps parsing only and any other
/// --io-threads is a usage error).
///
/// Fault tolerance: --checkpoint snapshots the run every --checkpoint-every
/// streamed nodes (one-pass algorithms and buffered; METIS node streams,
/// with or without --pipeline) and --resume continues a killed run
/// bit-identically.
/// --on-error=skip tolerates up to --error-budget malformed data lines
/// instead of aborting on the first one. OMS_FAULTS / OMS_FAULT_SEED arm the
/// deterministic fault-injection schedule (test harness).
///
/// Observability: --metrics-out FILE writes the full telemetry registry as
/// one "oms.metrics.v1" JSON document after the run; --progress prints a
/// stderr heartbeat (items/s, percent done, ETA) while streaming. Both leave
/// stdout byte-identical to a plain run.
///
/// Exit codes: 0 success, 1 malformed input content (IoError), 2 usage.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "oms/oms.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/memory.hpp"
#include "oms/util/timer.hpp"

namespace {

[[noreturn]] void usage(int exit_code = 2) {
  (exit_code == 0 ? std::cout : std::cerr)
      << "usage: partition_tool <graph> --k K [--format metis|edgelist]\n"
         "                      [--algo oms|fennel|ldg|hashing|window|buffered"
         "    (metis)\n"
         "                             |hdrf|dbh|grid2d]                      "
         "    (edgelist)\n"
         "                      [--hierarchy a1:a2:... --distances "
         "d1:d2:...]\n"
         "                      [--epsilon E] [--lambda L] [--threads T] "
         "[--seed S]\n"
         "                      [--buffer-size N] [--refine-iters N] "
         "[--window-size N]\n"
         "                      [--buffered-engine lp|multilevel]\n"
         "                      [--output FILE] [--from-disk]\n"
         "                      [--pipeline] [--io-threads T] [--watchdog-ms MS]\n"
         "                      [--checkpoint FILE] [--checkpoint-every N]\n"
         "                      [--resume FILE]\n"
         "                      [--on-error abort|skip] [--error-budget N]\n"
         "                      [--metrics-out FILE] [--progress]\n";
  std::exit(exit_code);
}

/// The advisory notes the tool has always printed for thread flags that the
/// selected execution path cannot exploit. Inspecting the *normalized*
/// request keeps them accurate without re-implementing any dispatch logic.
void print_thread_notes(const oms::PartitionRequest& req) {
  if (req.format == "edgelist") {
    if (req.threads > 1) {
      std::cerr << "note: vertex-cut assignment is sequential; ignoring "
                   "--threads "
                << req.threads << "\n";
    }
    return;
  }
  if (req.from_disk) {
    if (req.threads > 1) {
      std::cerr << "note: the disk stream is sequential; ignoring --threads "
                << req.threads << " (use --pipeline --io-threads for "
                   "parse/assign overlap)\n";
    }
    return;
  }
  if (req.threads > 1 && req.algo == "window") {
    std::cerr << "note: sliding-window partitioning is sequential; "
                 "--threads only affects the mapping-cost evaluation\n";
  }
  if (req.threads > 1 && req.algo == "buffered") {
    std::cerr << "note: buffered partitioning is sequential; --threads "
                 "only affects the mapping-cost evaluation\n";
  }
}

/// One stdout line of merged WorkCounters (node one-pass routes; buffered
/// and edge runs carry none). Printed on every run — with or without
/// --metrics-out — so instrumented runs stay byte-identical on stdout.
void print_work_line(const oms::WorkCounters& work) {
  if (work.total() == 0) {
    return;
  }
  std::cout << "work: " << work.score_evaluations << " score evals, "
            << work.neighbor_visits << " neighbor visits, "
            << work.layers_traversed << " layers\n";
}

void print_summary(const oms::PartitionRequest& req,
                   const oms::PartitionArtifact& artifact, double total_s) {
  if (artifact.skip_stats.lines_skipped > 0) {
    std::cerr << "note: skipped " << artifact.skip_stats.lines_skipped
              << " malformed line(s) (--on-error skip); first at line "
              << artifact.skip_stats.first_line << ": "
              << artifact.skip_stats.first_message << "\n";
  }
  if (artifact.edge_partition) {
    std::cout << "streamed " << artifact.num_edges << " edges over "
              << artifact.num_nodes << " vertices from disk"
              << (req.pipeline ? " (pipelined)" : "") << ", k = " << artifact.k
              << ", algo = " << req.algo
              << (artifact.hierarchy.has_value() ? " (hierarchical)" : "")
              << "\n";
    if (artifact.self_loops_skipped > 0) {
      std::cout << "self-loops skipped: " << artifact.self_loops_skipped << "\n";
    }
    std::cout << "replication factor: " << artifact.metrics.replication_factor
              << "\n";
    std::cout << "edge imbalance:     " << artifact.metrics.edge_imbalance
              << "\n";
    if (artifact.hierarchy.has_value()) {
      std::cout << "replica cost (hier): " << artifact.metrics.replica_cost
                << "\n";
    }
    std::cout << "assignment time: " << artifact.elapsed_s << " s (total "
              << total_s << " s, peak RSS "
              << oms::peak_rss_bytes() / (1024 * 1024) << " MB)\n";
    return;
  }
  if (req.from_disk) {
    std::cout << "streamed " << artifact.num_nodes << " nodes from disk"
              << (req.pipeline ? " (pipelined)" : "") << " (peak RSS "
              << oms::peak_rss_bytes() / (1024 * 1024) << " MB)\n";
    // Counted while assigning; absent (-1) after several consumers, a
    // resume, a skipped line or a consumer that does not count.
    if (artifact.metrics.edge_cut >= 0.0) {
      std::cout << "edge-cut:  " << artifact.metrics.edge_cut << "\n";
    }
    if (artifact.hierarchy.has_value() && artifact.metrics.mapping_j >= 0.0) {
      std::cout << "mapping J: " << artifact.metrics.mapping_j << "\n";
    }
    std::cout << "assignment time: " << artifact.elapsed_s << " s (total "
              << total_s << " s)\n";
    print_work_line(artifact.work);
    return;
  }
  std::cout << "n = " << artifact.num_nodes << ", m = " << artifact.num_edges
            << ", k = " << artifact.k << ", algo = " << req.algo << "\n";
  std::cout << "edge-cut:  " << artifact.metrics.edge_cut << "\n";
  std::cout << "imbalance: " << artifact.metrics.imbalance << "\n";
  if (artifact.hierarchy.has_value()) {
    std::cout << "mapping J: " << artifact.metrics.mapping_j << "\n";
  }
  std::cout << "time:      " << artifact.elapsed_s << " s\n";
  print_work_line(artifact.work);
}

int run_tool(const oms::cli::CliRequest& cli) {
  // Normalizing up front (idempotent; partition() re-runs it) resolves the
  // format/algo defaults the notes and the summary report on.
  const oms::PartitionRequest req = oms::Partitioner::normalize(cli.request);
  print_thread_notes(req);

  // Telemetry is armed only when something will consume it; a plain run
  // keeps every hook on its one-relaxed-load fast path.
  std::optional<oms::telemetry::MetricsRegistry> registry;
  if (!cli.metrics_out.empty() || cli.progress) {
    registry.emplace();
    oms::telemetry::MetricsRegistry::arm(*registry);
  }

  oms::Timer total;
  oms::PartitionArtifact artifact;
  {
    // Scoped so the heartbeat thread stops (and prints its final line)
    // before the summary; --progress writes stderr only.
    std::unique_ptr<oms::telemetry::ProgressReporter> progress;
    if (cli.progress) {
      progress = std::make_unique<oms::telemetry::ProgressReporter>();
    }
    artifact = oms::Partitioner().partition(req);
  }
  print_summary(req, artifact, total.elapsed_s());

  if (!cli.metrics_out.empty()) {
    std::ofstream out(cli.metrics_out);
    out << registry->scrape().to_json() << '\n';
    out.flush();
    if (!out.good()) {
      std::cerr << "error: cannot write metrics to '" << cli.metrics_out
                << "'\n";
      return 2;
    }
  }

  if (!cli.output.empty()) {
    std::ofstream out(cli.output);
    for (const oms::BlockId b : artifact.assignment) {
      out << b << '\n';
    }
    out.flush();
    if (!out.good()) {
      std::cerr << "error: cannot write partition to '" << cli.output << "'\n";
      return 2;
    }
    std::cout << (artifact.edge_partition ? "edge partition" : "partition")
              << " written to " << cli.output << "\n";
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  oms::cli::CliRequest cli;
  try {
    cli = oms::cli::parse_request(argc, argv);
  } catch (const oms::cli::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage();
  }
  if (cli.help) {
    usage(0);
  }
  try {
    // Deterministic fault injection for the chaos harness: OMS_FAULTS (an
    // explicit site@n schedule) or OMS_FAULT_SEED (a seeded random plan).
    // Unset in production, this arms nothing and every hook stays a no-op.
    oms::FaultPlan::arm_from_env();
    return run_tool(cli);
  } catch (const oms::InvalidRequest& e) {
    // The request itself cannot be executed: a usage problem, like a flag
    // combination the drivers do not support. No usage dump — the message
    // names the one thing to fix.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const oms::IoError& e) {
    // Malformed graph *content* (bad header, out-of-range neighbor, missing
    // edge weight, ...) is a user-input problem: report and exit non-zero
    // instead of letting the library abort.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::bad_alloc&) {
    // Also a user-input problem in practice: a graph (or an edge list whose
    // max vertex id sizes the dense streaming state) too large for this
    // machine must fail cleanly, not SIGABRT through std::terminate.
    std::cerr << "error: out of memory loading '" << cli.request.graph_path
              << "'\n";
    return 1;
  }
}
