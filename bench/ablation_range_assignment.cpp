// ABLATION bench: homogeneous vs per-node range assignment.
//
// The paper motivates MTR through energy ("determining an appropriate
// transmitting range ... is essential to minimize energy consumption") and
// points at topology-control protocols [6, 9, 10] that adjust ranges
// per-node at run time. This ablation quantifies what the homogeneous-range
// assumption costs: for the paper's (l, n = sqrt(l)) deployments it compares
// the total energy of (a) every node at the critical range (the paper's
// model) against (b) the MST-based per-node assignment, at path-loss
// exponents alpha = 2 and 4.
//
// Expected: per-node assignment saves a large, l-stable fraction (~60-75% at
// alpha = 2), because the homogeneous range is dictated by the single worst
// MST bottleneck while most nodes only need much shorter links.

#include "common/figure_bench.hpp"
#include "sim/deployment.hpp"
#include "support/stats.hpp"
#include "topology/range_assignment.hpp"

int main(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv,
      "ablation_range_assignment: homogeneous vs MST per-node range energy");
  if (!options) return 0;

  Rng rng(options->seed);
  const std::size_t deployments = options->scale().stationary_trials;

  TextTable table({"l", "n", "savings a=2 (mean)", "savings a=2 (min)", "savings a=4 (mean)",
                   "max-range ratio"});
  for (double l : experiments::figure_l_values()) {
    const std::size_t n = experiments::paper_node_count(l);
    const Box2 region(l);
    Rng point_rng = rng.split();

    RunningStats savings2;
    RunningStats savings4;
    RunningStats max_range_ratio;
    for (std::size_t t = 0; t < deployments; ++t) {
      const auto points = uniform_deployment(n, region, point_rng);
      savings2.add(per_node_assignment_savings<2>(points, region, 2.0));
      savings4.add(per_node_assignment_savings<2>(points, region, 4.0));
      const auto per_node = mst_assignment<2>(points, region);
      const auto homogeneous = homogeneous_assignment<2>(points, region);
      max_range_ratio.add(per_node.max_range() / homogeneous.max_range());
    }

    const std::string l_text = l_label(l);
    table.add_row({l_text, std::to_string(n), TextTable::num(savings2.mean(), 3),
                   TextTable::num(savings2.min(), 3), TextTable::num(savings4.mean(), 3),
                   TextTable::num(max_range_ratio.mean(), 3)});
  }
  print_result(table, *options,
               "Ablation — energy saved by per-node (MST) ranges vs the paper's "
               "homogeneous range",
               "Ablation beyond the paper: per-node (MST) vs homogeneous ranges. See EXPERIMENTS.md.");
  return 0;
}
