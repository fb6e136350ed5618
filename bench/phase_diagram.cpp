// EXTENSION bench: the (n, r) connectivity phase diagram.
//
// Section 2 stresses that the MTR solutions "specify requirements on the
// product of n and r^d", serving both the minimum-range and the
// minimum-node-count formulations. This bench prints P(connected) over a
// grid of node counts and ranges (2-D, fixed l), making the phase boundary
// visible, and solves the dimensioning problem (minimum n for a fixed radio
// range) along one column via core/dimensioning.hpp.
//
// Expected: an (n, r) staircase — larger n tolerates smaller r — with the
// boundary roughly following n * r^2 ~ const * l^2 log(n)-shaped level sets.

#include <cmath>

#include "common/figure_bench.hpp"
#include "core/dimensioning.hpp"
#include "sim/stationary_sample.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "phase_diagram: P(connected) over the (n, r) grid, l = 1024");
  if (!options) return 0;

  Rng rng(options->seed);
  const ScaleParams scale = options->scale();
  const double l = 1024.0;
  const Box2 region(l);

  const std::vector<std::size_t> node_counts = {8, 16, 32, 64, 128, 256};
  const std::vector<double> range_fractions = {0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5};

  // --- Phase diagram. -------------------------------------------------------
  std::vector<std::string> headers = {"n \\ r"};
  for (double f : range_fractions) headers.push_back(TextTable::num(f * l, 0));
  TextTable grid(headers);

  for (std::size_t n : node_counts) {
    Rng row_rng = rng.split();
    const auto sample =
        sample_stationary_critical_ranges<2>(n, region, scale.stationary_trials, row_rng);
    std::vector<std::string> row = {std::to_string(n)};
    for (double f : range_fractions) {
      row.push_back(TextTable::num(sample.probability_connected(f * l), 2));
    }
    grid.add_row(std::move(row));
  }
  print_result(grid, *options, "Extension — P(connected), l = 1024, n vs r",
               "Extension beyond the paper: the (n, r) phase diagram / dimensioning view.\n"
               "See EXPERIMENTS.md.");

  // --- Dimensioning column: minimum n for fixed radio ranges. ---------------
  TextTable dimension({"fixed range r", "min n for P>=0.95", "achieved P", "n*r^2 / l^2"});
  DimensioningOptions dim_options;
  dim_options.trials = scale.stationary_trials;
  dim_options.target_probability = 0.95;
  for (double f : {0.2, 0.3, 0.4, 0.5}) {
    const double range = f * l;
    Rng point_rng = rng.split();
    const DimensioningResult result =
        minimum_node_count<2>(range, region, dim_options, point_rng);
    dimension.add_row({TextTable::num(range, 0), std::to_string(result.node_count),
                       TextTable::num(result.achieved_probability, 3),
                       TextTable::num(static_cast<double>(result.node_count) * range *
                                          range / (l * l), 3)});
  }
  print_result(dimension, *options,
               "Extension — dimensioning: minimum node count for a fixed transceiver "
               "range (the paper's alternate MTR formulation)",
               "Extension beyond the paper: the (n, r) phase diagram / dimensioning view.\n"
               "See EXPERIMENTS.md.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
