// EXTENSION bench (beyond the paper): a three-way mobility-model comparison.
//
// The paper's Section 4.2 headline is that random waypoint (intentional) and
// drunkard (random) motion yield almost the same connectivity statistics —
// "it is more the existence of mobility than the precise details of how
// nodes move that is significant". This bench stresses that claim with a
// third, structurally different pattern (random direction with boundary
// reflection, no pausing), printing all r_x/r_stationary series side by
// side at l = 4096, n = 64.
//
// Expected: the random-direction column lands in the same band as the other
// two if the paper's claim generalizes; its "quantity of mobility" is higher
// (no pause time), so mild upward deviations of r100 are expected.

#include <array>
#include <vector>

#include "common/figure_bench.hpp"

namespace {

using namespace manet;
using namespace manet::bench;

MobilityConfig model_config(MobilityKind kind, double l) {
  switch (kind) {
    case MobilityKind::kRandomWaypoint:
      return MobilityConfig::paper_waypoint(l);
    case MobilityKind::kDrunkard:
      return MobilityConfig::paper_drunkard(l);
    case MobilityKind::kRandomDirection: {
      MobilityConfig config;
      config.kind = MobilityKind::kRandomDirection;
      config.direction.v_min = 0.1;
      config.direction.v_max = 0.01 * l;  // match the waypoint speed band
      config.direction.p_turn = 0.01;
      config.direction.p_stationary = 0.0;
      return config;
    }
    case MobilityKind::kStationary:
      return MobilityConfig::stationary();
  }
  return MobilityConfig::stationary();
}

int run(int argc, char** argv) {
  const auto options = parse_figure_options(
      argc, argv,
      "ext_mobility_models: r_x/r_stationary for waypoint vs drunkard vs "
      "random-direction (extension)");
  if (!options) return 0;

  Rng rng(options->seed);
  const ScaleParams scale = options->scale();
  const double l = 4096.0;
  const std::size_t n = experiments::paper_node_count(l);

  Rng stationary_rng = rng.split();
  const double rs =
      stationary_reference_range(l, n, scale.stationary_trials, options->rs_quantile,
                                 stationary_rng);

  const std::array kinds = {MobilityKind::kRandomWaypoint, MobilityKind::kDrunkard,
                            MobilityKind::kRandomDirection};
  std::vector<MtrmConfig> configs;
  for (const MobilityKind kind : kinds) {
    MtrmConfig config;
    config.node_count = n;
    config.side = l;
    config.mobility = model_config(kind, l);
    config.component_fractions = {0.5};
    apply_scale(config, *options);
    configs.push_back(config);
  }
  const auto results = experiments::solve_mtrm_sweep(configs, options->seed);

  TextTable table({"model", "r100/rs", "r90/rs", "r10/rs", "r0/rs", "rl50/rs"});
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const MtrmResult& result = results[i];
    table.add_row({mobility_kind_name(kinds[i]),
                   TextTable::num(result.range_for_time[0].mean() / rs, 3),
                   TextTable::num(result.range_for_time[1].mean() / rs, 3),
                   TextTable::num(result.range_for_time[2].mean() / rs, 3),
                   TextTable::num(result.range_never_connected.mean() / rs, 3),
                   TextTable::num(result.range_for_component[0].mean() / rs, 3)});
  }
  print_result(table, *options,
               "Extension — mobility-model independence stress test (l=4096, n=64)",
               "Extension beyond the paper: no published reference series. See EXPERIMENTS.md.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
