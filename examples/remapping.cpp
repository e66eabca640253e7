/// \file remapping.cpp
/// \brief The paper's Section 3.2 extension: iterative *remapping* by
///        restreaming the online multi-section several times (the analogue of
///        ReFennel for the process-mapping objective). Each pass removes a
///        node from its block path and re-places it with fresh scores.
///
///   $ ./examples/remapping [passes]
#include <cstdlib>
#include <iostream>

#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/partition/restream.hpp"
#include "oms/util/table.hpp"

int main(int argc, char** argv) {
  using namespace oms;

  const int passes = argc > 1 ? std::atoi(argv[1]) : 5;
  if (passes < 1) {
    std::cerr << "usage: remapping [passes >= 1]\n";
    return 2;
  }
  const SystemHierarchy topo({4, 16, 2}, {1, 10, 100});
  const CsrGraph comm = gen::random_geometric(1u << 15, /*seed=*/31);
  std::cout << "Graph: rgg15 (n = " << comm.num_nodes() << ", m = "
            << comm.num_edges() << "), topology " << topo.to_string() << "\n\n";

  const auto run = [&](int num_passes) {
    OnlineMultisection oms(comm.num_nodes(), comm.num_edges(),
                           comm.total_node_weight(), topo, OmsConfig{});
    return restream(comm, oms, num_passes);
  };
  const RestreamResult one = run(1);
  const RestreamResult many = run(passes);

  TablePrinter trace({"pass", "edge-cut"});
  for (std::size_t p = 0; p < many.cut_per_pass.size(); ++p) {
    trace.add_row({TablePrinter::cell(static_cast<std::int64_t>(p + 1)),
                   TablePrinter::cell(many.cut_per_pass[p])});
  }
  trace.print(std::cout);

  TablePrinter summary({"passes", "J(C,D,Pi)", "time [ms]"});
  summary.add_row({TablePrinter::cell(std::int64_t{1}),
                   TablePrinter::cell(mapping_cost(comm, topo, one.assignment)),
                   TablePrinter::cell(one.elapsed_s * 1e3)});
  summary.add_row({TablePrinter::cell(static_cast<std::int64_t>(passes)),
                   TablePrinter::cell(mapping_cost(comm, topo, many.assignment)),
                   TablePrinter::cell(many.elapsed_s * 1e3)});
  std::cout << '\n';
  summary.print(std::cout);

  const bool balanced = is_balanced(comm, many.assignment, topo.num_pes(), 0.03);
  std::cout << "\nfinal mapping balanced: " << (balanced ? "yes" : "NO")
            << "\nLater passes see the *complete* placement of every neighbor "
               "instead of only\nthe already-streamed prefix, which is where "
               "the improvement comes from.\n";
  return 0;
}
