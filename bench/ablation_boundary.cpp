// ABLATION bench: the boundary effect on the critical transmitting range.
//
// The paper deploys nodes in a bounded square [0, l]^2. Near the borders the
// expected number of neighbors halves (quarters in corners), so part of the
// required range pays for border-induced voids rather than intrinsic
// sparsity. Re-measuring the critical radius under the flat-torus metric
// (wrap-around distances, no borders) isolates that cost.
//
// Expected: the Euclidean-over-torus ratio of critical ranges is
// consistently above 1 and grows toward the high quantiles (the worst
// deployments are worst *because* of border voids); the asymptotic theory
// the paper compares against [4, 7] is typically derived in such
// boundary-free settings.

#include "common/figure_bench.hpp"
#include "sim/deployment.hpp"
#include "support/stats.hpp"
#include "topology/critical_range.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "ablation_boundary: Euclidean vs torus critical range");
  if (!options) return 0;

  Rng rng(options->seed);
  const std::size_t deployments = options->scale().stationary_trials;

  TextTable table({"l", "n", "mean rc (euclid)", "mean rc (torus)", "mean ratio",
                   "q95 ratio"});
  for (double l : experiments::figure_l_values()) {
    const std::size_t n = experiments::paper_node_count(l);
    const Box2 region(l);
    Rng point_rng = rng.split();

    RunningStats euclid;
    RunningStats torus;
    std::vector<double> euclid_values;
    std::vector<double> torus_values;
    for (std::size_t t = 0; t < deployments; ++t) {
      const auto points = uniform_deployment(n, region, point_rng);
      const double rc_euclid = critical_range<2>(points, region);
      const double rc_torus = torus_critical_range<2>(points, l);
      euclid.add(rc_euclid);
      torus.add(rc_torus);
      euclid_values.push_back(rc_euclid);
      torus_values.push_back(rc_torus);
    }
    std::sort(euclid_values.begin(), euclid_values.end());
    std::sort(torus_values.begin(), torus_values.end());
    const double q95_ratio =
        quantile_sorted(euclid_values, 0.95) / quantile_sorted(torus_values, 0.95);

    const std::string l_text = l_label(l);
    table.add_row({l_text, std::to_string(n), TextTable::num(euclid.mean(), 1),
                   TextTable::num(torus.mean(), 1),
                   TextTable::num(euclid.mean() / torus.mean(), 3),
                   TextTable::num(q95_ratio, 3)});
  }
  print_result(table, *options,
               "Ablation — boundary effect: critical range, bounded square vs torus",
               "Ablation beyond the paper: bounded square vs flat torus. See EXPERIMENTS.md.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
