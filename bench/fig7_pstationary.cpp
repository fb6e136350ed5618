// Figure 7 of the paper: r100 / r_stationary as a function of p_stationary
// in the random waypoint model (l = 4096, n = 64; other parameters at their
// Section 4.2 defaults), with the paper's finer 0.02-step exploration of the
// [0.4, 0.6] window.
//
// Expected shape: a distinct THRESHOLD at p_stationary ~ 0.5 — with about
// n/2 or more nodes permanently stationary the network behaves like a
// stationary one (ratio ~= 1), below that the full mobility premium
// (~1.1-1.15) applies.

#include "common/figure_bench.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "fig7_pstationary: r100/r_stationary vs p_stationary (random waypoint)",
      /*with_campaign=*/true);
  if (!options) return 0;

  Rng rng(options->seed);
  const ScaleParams scale = options->scale();

  // One stationary reference for the whole sweep (it does not depend on the
  // mobility parameters).
  Rng stationary_rng = rng.split();
  const double l = 4096.0;
  const std::size_t n = experiments::paper_node_count(l);
  const double rs = stationary_reference_range(l, n, scale.stationary_trials, options->rs_quantile, stationary_rng);

  // Approximate published curve: ~1.12 flat, sharp drop across [0.4, 0.6],
  // ~1.0 beyond.
  const auto paper_value = [](double p) {
    if (p < 0.4) return 1.12;
    if (p < 0.6) return 1.12 - 0.12 * (p - 0.4) / 0.2;
    return 1.0;
  };

  // Per-data-point fan-out: one config per p, solved through the parallel
  // trial engine (bit-identical at any thread count, results in p order).
  const auto p_values = experiments::figure7_pstationary_values();
  std::vector<MtrmConfig> configs;
  configs.reserve(p_values.size());
  for (double p : p_values) {
    MtrmConfig config = experiments::sweep_base_config(options->preset);
    apply_scale(config, *options);
    config.mobility.waypoint.p_stationary = p;
    config.component_fractions.clear();  // only r100 is needed here
    config.time_fractions = {1.0};
    configs.push_back(config);
  }
  const auto executor = make_sweep_executor(*options);
  const auto results = experiments::solve_mtrm_sweep(configs, options->seed, executor.get());

  TextTable table({"p_stationary", "r100/rs", "paper (approx)"});
  for (std::size_t i = 0; i < p_values.size(); ++i) {
    table.add_row({TextTable::num(p_values[i], 2),
                   TextTable::num(results[i].range_for_time[0].mean() / rs, 3),
                   TextTable::num(paper_value(p_values[i]), 2)});
  }
  print_result(table, *options, "Figure 7 — r100 / r_stationary vs p_stationary");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
