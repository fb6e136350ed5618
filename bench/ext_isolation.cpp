// EXTENSION bench: is disconnection really "caused by a few isolated
// nodes"? (Sections 1 and 4.2.)
//
// For random geometric graphs, Penrose's theorem says the connectivity
// threshold asymptotically coincides with the isolated-node-elimination
// threshold: the last obstacle to connectivity is a lone node, not a split
// into large pieces. This bench measures, for the paper's (l, n = sqrt(l))
// deployments:
//   - the fraction of deployments whose critical range EQUALS the isolation
//     range (the largest nearest-neighbor distance),
//   - the mean ratio isolation range / critical range,
// in both the bounded square and the boundary-free torus.
//
// Expected: the equality fraction grows with l and is higher on the torus
// (border voids sometimes disconnect whole groups); the ratio tends to 1 —
// the structural fact behind the paper's observation that at r90 the
// network loses only a few isolated nodes.

#include "common/figure_bench.hpp"
#include "sim/deployment.hpp"
#include "support/stats.hpp"
#include "topology/critical_range.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "ext_isolation: critical range vs isolated-node-elimination range");
  if (!options) return 0;

  Rng rng(options->seed);
  const std::size_t deployments = options->scale().stationary_trials;

  TextTable table({"l", "n", "P(rc == r_isolation)", "mean ratio", "q05 ratio"});
  for (double l : experiments::figure_l_values()) {
    const std::size_t n = experiments::paper_node_count(l);
    const Box2 region(l);
    Rng point_rng = rng.split();

    std::size_t equal = 0;
    RunningStats ratio;
    std::vector<double> ratios;
    for (std::size_t t = 0; t < deployments; ++t) {
      const auto points = uniform_deployment(n, region, point_rng);
      const double rc = critical_range<2>(points, region);
      const double iso = isolation_range<2>(points, region);
      if (iso >= rc * (1.0 - 1e-12)) ++equal;
      ratio.add(iso / rc);
      ratios.push_back(iso / rc);
    }
    std::sort(ratios.begin(), ratios.end());

    const std::string l_text = l_label(l);
    table.add_row({l_text, std::to_string(n),
                   TextTable::num(static_cast<double>(equal) /
                                      static_cast<double>(deployments), 3),
                   TextTable::num(ratio.mean(), 3),
                   TextTable::num(quantile_sorted(ratios, 0.05), 3)});
  }
  print_result(table, *options,
               "Extension — Penrose check: does the isolated-node threshold equal the "
               "connectivity threshold?",
               "Extension beyond the paper: Penrose-style check of the isolated-node threshold.\n"
               "See EXPERIMENTS.md.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
