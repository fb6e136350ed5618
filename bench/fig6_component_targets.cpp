// Figure 6 of the paper: the ranges rl90 / rl75 / rl50 (mean largest
// component = 0.9n / 0.75n / 0.5n) relative to r_stationary for increasing
// l, RANDOM WAYPOINT model.
//
// Expected shape: rl90/rs decreases with l toward ~0.52; rl75/rs (~0.46)
// and rl50/rs (~0.40) are almost flat; the three curves converge as l
// grows ("for large networks the savings are not as great if the
// requirement is only 50% of the nodes").

#include "common/figure_bench.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "fig6_component_targets: rl90/rl75/rl50 over r_stationary vs l");
  if (!options) return 0;

  // Digitized from the published Figure 6 (approximate).
  const std::vector<PaperSeries> paper = {
      {"rl90/rs", {0.75, 0.64, 0.57, 0.52}},
      {"rl75/rs", {0.50, 0.47, 0.46, 0.46}},
      {"rl50/rs", {0.35, 0.38, 0.39, 0.40}},
  };

  // The Figure 2 sweep: the same configs, streams and r_stationary, so
  // Figures 2 and 6 read one set of simulations, as in the paper.
  const auto executor = make_sweep_executor(*options);
  const LSweep sweep =
      solve_l_sweep(*options, /*drunkard=*/false, /*with_stationary_reference=*/true, *executor);
  TextTable table({"l", "n", "rl90/rs", "paper", "rl75/rs", "paper", "rl50/rs", "paper"});

  const auto l_values = experiments::figure_l_values();
  for (std::size_t li = 0; li < l_values.size(); ++li) {
    const double l = l_values[li];
    const double rs = sweep.rs[li];
    const MtrmResult& result = sweep.results[li];
    table.add_row({l_label(l), std::to_string(experiments::paper_node_count(l)),
                   TextTable::num(result.range_for_component[0].mean() / rs, 3),
                   TextTable::num(paper[0].values[li], 2),
                   TextTable::num(result.range_for_component[1].mean() / rs, 3),
                   TextTable::num(paper[1].values[li], 2),
                   TextTable::num(result.range_for_component[2].mean() / rs, 3),
                   TextTable::num(paper[2].values[li], 2)});
  }
  print_result(table, *options,
               "Figure 6 — rl_phi / r_stationary vs l (random waypoint)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
