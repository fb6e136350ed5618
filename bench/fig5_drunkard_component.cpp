// Figure 5 of the paper: average size of the largest connected component
// (fraction of n) at r90, r10 and r0 for increasing l, DRUNKARD model.
//
// Expected shape: nearly identical to Figure 4 — the paper's point is that
// the two mobility models are statistically indistinguishable here too.

#include "common/figure_bench.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv,
      "fig5_drunkard_component: mean largest component at r90/r10/r0, drunkard");
  if (!options) return 0;

  // Digitized from the published Figure 5 (approximate).
  const std::vector<PaperSeries> paper = {
      {"LCC@r90", {0.90, 0.94, 0.97, 0.98}},
      {"LCC@r10", {0.74, 0.81, 0.86, 0.90}},
      {"LCC@r0", {0.44, 0.47, 0.50, 0.50}},
  };
  const auto executor = make_sweep_executor(*options);
  run_component_figure(*options, /*drunkard=*/true,
                       "Figure 5 — mean largest-component fraction (drunkard)", paper,
                       *executor);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
