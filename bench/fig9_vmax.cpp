// Figure 9 of the paper: r100 / r_stationary as a function of v_max (from
// 0.01*l to 0.5*l) in the random waypoint model (l = 4096, n = 64).
//
// Expected shape: NEARLY FLAT — "the value of r100 is almost independent of
// v_max: except for low velocities (v_max below 0.1*l), r100 is slightly
// above r_stationary". Counter-intuitively, larger v_max can reduce the
// quantity of mobility because nodes reach their destinations quickly and
// then pause for t_pause = 2000 steps.

#include "common/figure_bench.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "fig9_vmax: r100/r_stationary vs v_max (random waypoint)",
      /*with_campaign=*/true);
  if (!options) return 0;

  Rng rng(options->seed);
  const ScaleParams scale = options->scale();

  Rng stationary_rng = rng.split();
  const double l = 4096.0;
  const std::size_t n = experiments::paper_node_count(l);
  const double rs = stationary_reference_range(l, n, scale.stationary_trials, options->rs_quantile, stationary_rng);

  // Approximate published curve: ~1.15 at the slowest sweep point, settling
  // to a flat ~1.05 for v_max >= 0.1*l.
  const auto paper_value = [](double fraction) {
    if (fraction < 0.1) return 1.15 - (fraction - 0.01) / 0.09 * 0.10;
    return 1.05;
  };

  // Per-data-point fan-out: one config per v_max, solved through the
  // parallel trial engine (bit-identical at any thread count).
  const auto fractions = experiments::figure9_vmax_fractions();
  std::vector<MtrmConfig> configs;
  configs.reserve(fractions.size());
  for (double fraction : fractions) {
    MtrmConfig config = experiments::sweep_base_config(options->preset);
    apply_scale(config, *options);
    config.mobility.waypoint.v_max = fraction * l;
    config.component_fractions.clear();
    config.time_fractions = {1.0};
    configs.push_back(config);
  }
  const auto executor = make_sweep_executor(*options);
  const auto results = experiments::solve_mtrm_sweep(configs, options->seed, executor.get());

  TextTable table({"v_max/l", "v_max", "r100/rs", "paper (approx)"});
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    table.add_row({TextTable::num(fractions[i], 2), TextTable::num(fractions[i] * l, 1),
                   TextTable::num(results[i].range_for_time[0].mean() / rs, 3),
                   TextTable::num(paper_value(fractions[i]), 2)});
  }
  print_result(table, *options, "Figure 9 — r100 / r_stationary vs v_max");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
