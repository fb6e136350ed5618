// Environmental monitoring scenario: the paper's third dependability regime.
//
// "The network stays disconnected most of the time, but temporary connection
//  periods can be used to exchange data among nodes. This could be the case
//  of wireless sensor networks used for environmental monitoring [...]
//  reducing energy consumption is the primary concern, and temporary
//  connectedness is sufficient." (Section 4)
//
// Buoys drift on the ocean surface (drunkard model). The example runs the
// network at rl50 — the range keeping only half the buoys in one component
// on average, far below r100 — and simulates epidemic data dissemination:
// each buoy's reading spreads through whatever component it currently sits
// in, one gossip round per mobility step. It reports how many steps until
// every buoy holds every reading, demonstrating that eventual delivery
// survives aggressive range reduction.
//
//   ./examples/environmental_monitoring [--side L] [--buoys N] [--seed S]

#include <iostream>
#include <vector>

#include "core/energy.hpp"
#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "mobility/factory.hpp"
#include "sim/deployment.hpp"
#include "sim/mobile_trace.hpp"
#include "support/cli.hpp"

namespace {

using namespace manet;

/// One gossip round: within every connected component of the current graph,
/// all members merge their reading sets. Returns true when every node knows
/// every reading.
bool gossip_round(const AdjacencyGraph& graph, std::vector<std::vector<bool>>& knowledge) {
  const std::size_t n = graph.vertex_count();
  std::vector<bool> visited(n, false);
  std::vector<std::size_t> stack;
  bool everyone_knows_everything = true;

  for (std::size_t start = 0; start < n; ++start) {
    if (visited[start]) continue;
    // Collect the component.
    std::vector<std::size_t> component;
    stack.push_back(start);
    visited[start] = true;
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      component.push_back(v);
      for (std::size_t w : graph.neighbors(v)) {
        if (!visited[w]) {
          visited[w] = true;
          stack.push_back(w);
        }
      }
    }
    // Union of knowledge across the component.
    std::vector<bool> pooled(n, false);
    for (std::size_t v : component) {
      for (std::size_t item = 0; item < n; ++item) {
        if (knowledge[v][item]) pooled[item] = true;
      }
    }
    for (std::size_t v : component) knowledge[v] = pooled;
    for (std::size_t item = 0; item < n; ++item) {
      if (!pooled[item]) everyone_knows_everything = false;
    }
  }
  return everyone_knows_everything;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("environmental_monitoring: gossip over a mostly-disconnected drifting network");
  cli.add_option("side", "monitored area side length", "512");
  cli.add_option("buoys", "number of drifting buoys", "24");
  cli.add_option("steps", "calibration steps for r10", "800");
  cli.add_option("max-steps", "gossip step budget", "20000");
  cli.add_option("seed", "random seed", "3");
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
  const auto buoys = static_cast<std::size_t>(cli.uint_value("buoys"));
  Rng rng(cli.uint_value("seed"));
  const Box2 ocean(side);
  const MobilityConfig drift = MobilityConfig::paper_drunkard(side);

  // --- Calibrate r100 and r10 from a trace. --------------------------------
  auto calibration_model = make_mobility_model<2>(drift, ocean);
  Rng calibration_rng = rng.split();
  const auto trace = run_mobile_trace<2>(buoys, ocean, cli.uint_value("steps"),
                                         *calibration_model, calibration_rng);
  const double r100 = trace.range_for_time_fraction(1.0);
  const double r10 = trace.range_for_time_fraction(0.1);
  // Operate even lower: the range keeping only half the nodes in one
  // component on average — the paper's "disperse twice as many nodes and
  // keep half connected" regime.
  const double r_op = trace.range_for_mean_component_fraction(0.5);
  const EnergyModel energy;

  std::cout << buoys << " buoys drifting on [0, " << side << "]^2 (drunkard model)\n"
            << "  r100 = " << r100 << ", r10 = " << r10 << ", rl50 = " << r_op << "\n"
            << "  operating at rl50 uses " << 100.0 * energy.transmit_power(r_op) /
                   energy.transmit_power(r100)
            << "% of the r100 transmit power\n\n";

  // --- Epidemic dissemination at rl50. --------------------------------------
  auto positions = uniform_deployment(buoys, ocean, rng);
  auto model = make_mobility_model<2>(drift, ocean);
  model->initialize(positions, rng);

  std::vector<std::vector<bool>> knowledge(buoys, std::vector<bool>(buoys, false));
  for (std::size_t i = 0; i < buoys; ++i) knowledge[i][i] = true;  // own reading

  const std::size_t budget = cli.uint_value("max-steps");
  std::size_t steps_used = budget;
  std::size_t connected_steps = 0;
  for (std::size_t step = 0; step < budget; ++step) {
    const AdjacencyGraph graph =
        build_link_communication_graph<2>(positions, ocean, UnitDiskLinkModel(r_op));
    if (reachable_count(graph, 0) == buoys) ++connected_steps;
    if (gossip_round(graph, knowledge)) {
      steps_used = step + 1;
      break;
    }
    model->step(positions, rng);
  }

  if (steps_used == budget) {
    std::cout << "Dissemination did not complete within " << budget << " steps.\n";
    return 0;
  }
  std::cout << "All " << buoys << " readings reached all buoys after " << steps_used
            << " steps, although the network was fully connected during only "
            << connected_steps << " of them.\n"
            << "Mobility turned a mostly-disconnected network into a delay-tolerant "
               "one, exactly the Section 4 scenario.\n";
  return 0;
}
