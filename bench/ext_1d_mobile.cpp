// EXTENSION bench: MTRM on a 1-dimensional (freeway) network.
//
// The paper analyses d = 1 only in the stationary case (Section 3) and
// simulates mobility only for d = 2, noting that "further investigation ...
// is a matter of ongoing research". The library's stack is dimension-
// generic, so this bench runs the mobile experiment on the freeway: cars on
// [0, l] under 1-D random waypoint motion, reporting the same
// r_x/r_stationary ratios as Figure 2 plus the Theorem 5 prediction for the
// stationary reference.
//
// Expected: the same qualitative structure as in 2-D (r100 above
// r_stationary, large savings at r90/r10), with the stationary reference
// tracking the Theorem 5 scale c * l * ln(l) / n.

#include <cmath>

#include "common/figure_bench.hpp"
#include "core/theory.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "ext_1d_mobile: MTRM for a 1-D freeway network (extension)");
  if (!options) return 0;

  Rng rng(options->seed);
  const ScaleParams scale = options->scale();

  TextTable table({"l", "n", "rs (measured)", "rs / (l ln l / n)", "r100/rs", "r90/rs",
                   "r10/rs", "r0/rs"});
  for (double l : experiments::figure_l_values()) {
    const std::size_t n = experiments::paper_node_count(l);
    const Box1 line(l);
    Rng point_rng = rng.split();

    // Stationary reference (same convention as the 2-D benches).
    MtrOptions mtr_options;
    mtr_options.trials = scale.stationary_trials;
    mtr_options.target_probability = options->rs_quantile;
    const double rs = estimate_mtr<1>(n, line, mtr_options, point_rng).range;

    MtrmConfig config;
    config.node_count = n;
    config.side = l;
    config.mobility = MobilityConfig::paper_waypoint(l);
    config.component_fractions.clear();
    apply_scale(config, *options);
    const MtrmResult result = solve_mtrm<1>(config, point_rng);

    const double theorem5 =
        theory::connectivity_threshold_range_1d(l, static_cast<double>(n));
    const std::string l_text = l_label(l);
    table.add_row({l_text, std::to_string(n), TextTable::num(rs, 1),
                   TextTable::num(rs / theorem5, 3),
                   TextTable::num(result.range_for_time[0].mean() / rs, 3),
                   TextTable::num(result.range_for_time[1].mean() / rs, 3),
                   TextTable::num(result.range_for_time[2].mean() / rs, 3),
                   TextTable::num(result.range_never_connected.mean() / rs, 3)});
  }
  print_result(table, *options, "Extension — MTRM on the 1-D freeway (random waypoint)",
               "Extension beyond the paper (1-D mobile case). rs column is checked against the\n"
               "Theorem 5 scale l*ln(l)/n. See EXPERIMENTS.md.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
