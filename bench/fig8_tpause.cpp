// Figure 8 of the paper: r100 / r_stationary as a function of the pause
// time t_pause in the random waypoint model (l = 4096, n = 64).
//
// Expected shape: a mild DOWNWARD TREND as t_pause grows (longer pauses make
// the system more stationary), with a visible softening in the 4000-6000
// window but — unlike Figure 7 — NO sharp threshold ("although the trend
// can be observed, no sharp threshold actually exists").

#include "common/figure_bench.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "fig8_tpause: r100/r_stationary vs t_pause (random waypoint)",
      /*with_campaign=*/true);
  if (!options) return 0;

  Rng rng(options->seed);
  const ScaleParams scale = options->scale();

  Rng stationary_rng = rng.split();
  const double l = 4096.0;
  const std::size_t n = experiments::paper_node_count(l);
  const double rs = stationary_reference_range(l, n, scale.stationary_trials, options->rs_quantile, stationary_rng);

  // Approximate published curve: ~1.17 at t_pause = 0 easing to ~1.02 at
  // 10000, steepest between 4000 and 6000.
  const auto paper_value = [](double t) {
    if (t <= 4000.0) return 1.17 - 0.05 * t / 4000.0;
    if (t <= 6000.0) return 1.12 - 0.07 * (t - 4000.0) / 2000.0;
    return 1.05 - 0.03 * (t - 6000.0) / 4000.0;
  };

  // Per-data-point fan-out: one config per t_pause, solved through the
  // parallel trial engine (bit-identical at any thread count).
  const auto t_values = experiments::figure8_tpause_values();
  std::vector<MtrmConfig> configs;
  configs.reserve(t_values.size());
  for (double t_pause : t_values) {
    MtrmConfig config = experiments::sweep_base_config(options->preset);
    apply_scale(config, *options);
    config.mobility.waypoint.pause_steps = static_cast<std::size_t>(t_pause);
    config.component_fractions.clear();
    config.time_fractions = {1.0};
    configs.push_back(config);
  }
  const auto executor = make_sweep_executor(*options);
  const auto results = experiments::solve_mtrm_sweep(configs, options->seed, executor.get());

  TextTable table({"t_pause", "r100/rs", "paper (approx)"});
  for (std::size_t i = 0; i < t_values.size(); ++i) {
    table.add_row({TextTable::num(t_values[i], 0),
                   TextTable::num(results[i].range_for_time[0].mean() / rs, 3),
                   TextTable::num(paper_value(t_values[i]), 2)});
  }
  print_result(table, *options, "Figure 8 — r100 / r_stationary vs t_pause");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
