// EXTENSION bench: the n * r^d invariant across dimensions.
//
// Section 2: "our solutions typically specify requirements on the product of
// n and r^d that ensures connectedness". This bench measures the stationary
// r_stationary in d = 1, 2, 3 for the paper's node counts and reports the
// normalized products n * r^d / (l^d ln n): if the d-dimensional coverage
// heuristic holds, the normalized product is an O(1) constant per dimension
// while raw ranges differ by orders of magnitude.
//
// Expected: within each dimension the normalized product is stable in l
// (drifting slowly, consistent with boundary effects shrinking), while the
// unnormalized r values vary by ~50x across the sweep.

#include <cmath>

#include "common/figure_bench.hpp"

namespace {

using namespace manet;
using namespace manet::bench;

template <int D>
double stationary_range_d(std::size_t n, double l, std::size_t trials, double quantile,
                          Rng& rng) {
  const Box<D> region(l);
  MtrOptions options;
  options.trials = trials;
  options.target_probability = quantile;
  return estimate_mtr<D>(n, region, options, rng).range;
}

int run(int argc, char** argv) {
  const auto options = parse_figure_options(
      argc, argv, "ext_dimension: the n * r^d connectivity invariant in d = 1, 2, 3");
  if (!options) return 0;

  Rng rng(options->seed);
  const std::size_t trials = options->scale().stationary_trials;

  TextTable table({"l", "n", "r (d=1)", "n*r/(l ln n)", "r (d=2)", "n*r^2/(l^2 ln n)",
                   "r (d=3)", "n*r^3/(l^3 ln n)"});
  for (double l : experiments::figure_l_values()) {
    const std::size_t n = experiments::paper_node_count(l);
    const double log_n = std::log(static_cast<double>(n));
    Rng point_rng = rng.split();

    const double r1 = stationary_range_d<1>(n, l, trials, options->rs_quantile, point_rng);
    const double r2 = stationary_range_d<2>(n, l, trials, options->rs_quantile, point_rng);
    const double r3 = stationary_range_d<3>(n, l, trials, options->rs_quantile, point_rng);

    const double nn = static_cast<double>(n);
    table.add_row({l_label(l), std::to_string(n), TextTable::num(r1, 1),
                   TextTable::num(nn * r1 / (l * log_n), 3), TextTable::num(r2, 1),
                   TextTable::num(nn * r2 * r2 / (l * l * log_n), 3),
                   TextTable::num(r3, 1),
                   TextTable::num(nn * r3 * r3 * r3 / (l * l * l * log_n), 3)});
  }
  print_result(table, *options,
               "Extension — r_stationary and the normalized n*r^d product in d = 1, 2, 3",
               "Extension beyond the paper: Section 2's n*r^d product remark, tested across\n"
               "dimensions. See EXPERIMENTS.md.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
