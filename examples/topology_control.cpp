// Topology control scenario: the protocols the paper's introduction points
// at ("our evaluation of required transmitting range is also useful in
// directing various 'topology control' protocols, which try to dynamically
// adjust transmitting ranges in order to minimize energy consumption").
//
// The example deploys a stationary network and compares three operating
// points:
//   1. the paper's homogeneous critical range,
//   2. a dependability margin (homogeneous, biconnectivity-checked),
//   3. MST-based per-node range assignment,
// reporting energy, single-failure robustness (articulation points) and
// random-failure tolerance for each.
//
//   ./examples/topology_control [--side L] [--nodes N] [--seed S]

#include <iostream>

#include "core/energy.hpp"
#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "graph/robustness.hpp"
#include "sim/deployment.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "topology/critical_range.hpp"
#include "topology/range_assignment.hpp"

namespace {

using namespace manet;

/// Mean random failures survived before disconnection, over `rounds` random
/// failure orders of `failures` nodes each.
double mean_failures_survived(const AdjacencyGraph& graph, std::size_t failures,
                              int rounds, Rng& rng) {
  double total = 0.0;
  std::vector<std::size_t> order(graph.vertex_count());
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    std::vector<std::size_t> head(order.begin(),
                                  order.begin() + static_cast<std::ptrdiff_t>(failures));
    total += static_cast<double>(inject_failures(graph, head).failures_survived);
  }
  return total / rounds;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("topology_control: homogeneous vs margin vs per-node ranges");
  cli.add_option("side", "region side length", "1024");
  cli.add_option("nodes", "number of nodes", "48");
  cli.add_option("seed", "random seed", "17");
  cli.add_option("alpha", "path-loss exponent", "2.0");
  try {
    cli.parse(argc, argv);
  } catch (const ConfigError& error) {
    std::cerr << error.what() << '\n';
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }

  const double side = cli.double_value("side");
  const auto nodes = static_cast<std::size_t>(cli.uint_value("nodes"));
  Rng rng(cli.uint_value("seed"));
  const Box2 region(side);
  const EnergyModel energy(cli.double_value("alpha"));

  const auto points = uniform_deployment(nodes, region, rng);
  const double rc = critical_range<2>(points, region);

  // Operating point 2: grow the homogeneous range until the graph survives
  // any single node failure (biconnected).
  double r_margin = rc;
  const auto unit_disk_graph = [&](double range) {
    return build_link_communication_graph<2>(points, region, UnitDiskLinkModel(range));
  };
  while (!survives_any_single_failure(unit_disk_graph(r_margin))) {
    r_margin *= 1.05;
  }

  const RangeAssignment per_node = mst_assignment<2>(points, region);
  const double homogeneous_cost = energy.network_power(nodes, rc);

  const AdjacencyGraph graph_rc = unit_disk_graph(rc);
  const AdjacencyGraph graph_margin = unit_disk_graph(r_margin);

  std::cout << nodes << " nodes in [0, " << side << "]^2, critical range " << rc << "\n\n";

  TextTable table({"operating point", "max range", "energy (vs critical)",
                   "articulation pts", "mean failures survived (of 8)"});

  const int failure_rounds = 40;
  Rng failure_rng = rng.split();
  table.add_row({"homogeneous @ critical range", TextTable::num(rc, 1), "100.0%",
                 std::to_string(articulation_points(graph_rc).size()),
                 TextTable::num(mean_failures_survived(graph_rc, 8, failure_rounds,
                                                       failure_rng), 2)});
  table.add_row({"homogeneous @ biconnectivity margin", TextTable::num(r_margin, 1),
                 TextTable::num(100.0 * energy.network_power(nodes, r_margin) /
                                    homogeneous_cost, 1) + "%",
                 std::to_string(articulation_points(graph_margin).size()),
                 TextTable::num(mean_failures_survived(graph_margin, 8, failure_rounds,
                                                       failure_rng), 2)});
  table.add_row({"per-node MST assignment", TextTable::num(per_node.max_range(), 1),
                 TextTable::num(100.0 * per_node.cost(energy.alpha()) / homogeneous_cost,
                                1) + "%",
                 "n/a (asymmetric ranges)", "n/a"});
  table.print(std::cout);

  std::cout << "\nReading: the biconnectivity margin buys single-failure immunity for "
            << TextTable::num(100.0 * (energy.transmit_power(r_margin) /
                                           energy.transmit_power(rc) - 1.0), 1)
            << "% extra per-node energy, while per-node ranges cut total energy to "
            << TextTable::num(100.0 * per_node.cost(energy.alpha()) / homogeneous_cost, 1)
            << "% — the trade-offs the topology-control literature [6,9,10] navigates.\n";
  return 0;
}
