// Figure 4 of the paper: average size of the largest connected component
// (fraction of n) at r90, r10 and r0 for increasing l, RANDOM WAYPOINT model.
//
// The average is taken over the steps where the network is disconnected
// ("averaged over the runs that yield a disconnected graph").
//
// Expected shape: all three series grow with l; at r90 the fraction
// approaches ~0.98 (disconnections are caused by a few isolated nodes); at
// r10 a ~0.9n component persists; dropping to r0 collapses it to ~0.5n.

#include "common/figure_bench.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv,
      "fig4_waypoint_component: mean largest component at r90/r10/r0, random waypoint");
  if (!options) return 0;

  // Digitized from the published Figure 4 (approximate).
  const std::vector<PaperSeries> paper = {
      {"LCC@r90", {0.90, 0.94, 0.97, 0.98}},
      {"LCC@r10", {0.75, 0.82, 0.87, 0.90}},
      {"LCC@r0", {0.45, 0.48, 0.50, 0.50}},
  };
  const auto executor = make_sweep_executor(*options);
  run_component_figure(*options, /*drunkard=*/false,
                       "Figure 4 — mean largest-component fraction (random waypoint)",
                       paper, *executor);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
