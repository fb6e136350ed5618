// Freeway scenario: the paper's motivating 1-dimensional application.
//
// "The most notable such application is to cars on a freeway, which
//  approximates a 1-dimensional region. [...] transmitters placed in cars
//  can transmit information about congestion or accidents to cars further
//  back." (Section 1)
//
// This example sizes the radio range for a stretch of freeway: it compares
// the worst-case, best-case and Theorem 5 (random placement) prescriptions,
// validates the Theorem 5 threshold empirically, and shows how congestion
// information propagates hop by hop through a connected snapshot.
//
//   ./examples/freeway_1d [--length L] [--cars N] [--seed S]

#include <iostream>

#include "core/theory.hpp"
#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "occupancy/exact_1d.hpp"
#include "sim/deployment.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "topology/critical_range.hpp"

int main(int argc, char** argv) {
  using namespace manet;

  CliParser cli("freeway_1d: range assignment for a 1-D vehicular network");
  cli.add_option("length", "freeway length (meters)", "8192");
  cli.add_option("cars", "number of equipped cars", "128");
  cli.add_option("seed", "random seed", "7");
  cli.add_option("trials", "deployments sampled for the empirical check", "400");
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

  const double length = cli.double_value("length");
  const auto cars = static_cast<std::size_t>(cli.uint_value("cars"));
  const auto trials = static_cast<std::size_t>(cli.uint_value("trials"));
  Rng rng(cli.uint_value("seed"));
  const Box1 freeway(length);

  // --- The three placement regimes of Section 3. ---------------------------
  const double n = static_cast<double>(cars);
  std::cout << "Freeway of " << length << " m with " << cars << " cars:\n"
            << "  worst-case range (adversarial parking):  "
            << theory::worst_case_range(length, 1) << " m\n"
            << "  best-case range (equal spacing):         "
            << theory::best_case_range_1d(length, n) << " m\n"
            << "  Theorem 5 threshold (random traffic):    "
            << theory::connectivity_threshold_range_1d(length, n) << " m\n\n";

  // --- Empirical check of the threshold direction. -------------------------
  TextTable table({"beta", "range (m)", "P exact", "P simulated", "regime"});
  for (double beta : {0.2, 0.5, 0.8, 1.0, 1.5, 2.0}) {
    const double range = theory::connectivity_threshold_range_1d(length, n, beta);
    std::size_t connected = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto cars_on_road = uniform_deployment(cars, freeway, rng);
      if (critical_range<1>(cars_on_road, freeway) <= range) ++connected;
    }
    const double probability = static_cast<double>(connected) / static_cast<double>(trials);
    table.add_row({TextTable::num(beta, 2), TextTable::num(range, 1),
                   TextTable::num(exact_1d::probability_connected(cars, range, length), 3),
                   TextTable::num(probability, 3),
                   theory::regime_name(theory::classify_regime_1d(length, n, range))});
  }
  std::cout << "Connectivity vs range multiplier beta (r = beta * l ln l / n):\n";
  table.print(std::cout);

  // --- Message propagation in one connected snapshot. ----------------------
  const double range = theory::connectivity_threshold_range_1d(length, n, 2.0);
  auto cars_on_road = uniform_deployment(cars, freeway, rng);
  while (critical_range<1>(cars_on_road, freeway) > range) {
    cars_on_road = uniform_deployment(cars, freeway, rng);
  }
  const AdjacencyGraph graph =
      build_link_communication_graph<1>(cars_on_road, freeway, UnitDiskLinkModel(range));

  // The accident happens at the car closest to the end of the freeway; how
  // many hops until the car nearest the start hears about it?
  std::size_t front_car = 0;
  std::size_t back_car = 0;
  for (std::size_t i = 1; i < cars_on_road.size(); ++i) {
    if (cars_on_road[i][0] > cars_on_road[front_car][0]) front_car = i;
    if (cars_on_road[i][0] < cars_on_road[back_car][0]) back_car = i;
  }
  const auto hops = bfs_distances(graph, front_car);
  std::cout << "\nAccident at km " << cars_on_road[front_car][0] / 1000.0
            << ": warning reaches the car at km " << cars_on_road[back_car][0] / 1000.0
            << " after " << hops[back_car] << " relay hops (range " << range << " m).\n";
  return 0;
}
