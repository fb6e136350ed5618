// Figure 3 of the paper: values of r100/r90/r10/r0 relative to r_stationary
// for increasing system size l in the DRUNKARD model.
//
// Setup (Section 4.2): l in {256, 1K, 4K, 16K}, n = sqrt(l),
// p_stationary = 0.1, p_pause = 0.3, m = 0.01*l.
//
// Expected shape: same qualitative behaviour as Figure 2 with slightly
// higher ratios (the paper reads ~25% premium for r100 at l = 16K) — the
// headline observation being how similar the two mobility models are.

#include "common/figure_bench.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "fig3_drunkard_ratios: r_x / r_stationary vs l, drunkard model");
  if (!options) return 0;

  // Digitized from the published Figure 3 (approximate).
  const std::vector<PaperSeries> paper = {
      {"r100/rs", {1.06, 1.12, 1.18, 1.25}},
      {"r90/rs", {0.64, 0.68, 0.72, 0.78}},
      {"r10/rs", {0.41, 0.43, 0.45, 0.48}},
      {"r0/rs", {0.26, 0.29, 0.32, 0.36}},
  };
  const auto executor = make_sweep_executor(*options);
  run_ratio_figure(*options, /*drunkard=*/true,
                   "Figure 3 — r_x / r_stationary vs l (drunkard)", paper, *executor);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
