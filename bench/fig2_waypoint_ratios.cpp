// Figure 2 of the paper: values of r100/r90/r10/r0 relative to r_stationary
// for increasing system size l in the RANDOM WAYPOINT model.
//
// Setup (Section 4.2): l in {256, 1K, 4K, 16K}, n = sqrt(l), p_stationary=0,
// v_min = 0.1, v_max = 0.01*l, t_pause = 2000; ranges averaged over
// iterations of mobility steps (50 x 10000 at --preset paper).
//
// Expected shape: all ratios grow slowly with l; r100/rs ends ~1.2 (a modest
// ~21% premium keeps the moving network always connected); r90 is 35-40%
// below r100; r10 another big step down; r0 around 0.25-0.40 of rs.

#include "common/figure_bench.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "fig2_waypoint_ratios: r_x / r_stationary vs l, random waypoint model",
      /*with_campaign=*/true);
  if (!options) return 0;

  // Digitized from the published Figure 2 (approximate).
  const std::vector<PaperSeries> paper = {
      {"r100/rs", {1.05, 1.10, 1.15, 1.21}},
      {"r90/rs", {0.62, 0.66, 0.70, 0.75}},
      {"r10/rs", {0.40, 0.42, 0.44, 0.47}},
      {"r0/rs", {0.25, 0.28, 0.31, 0.35}},
  };
  const auto executor = make_sweep_executor(*options);
  run_ratio_figure(*options, /*drunkard=*/false,
                   "Figure 2 — r_x / r_stationary vs l (random waypoint)", paper, *executor);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
