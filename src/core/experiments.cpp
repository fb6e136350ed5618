#include "core/experiments.hpp"

#include <cmath>

#include "core/energy.hpp"
#include "sim/stationary_sample.hpp"
#include "geometry/box.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace manet {

const char* preset_name(Preset preset) {
  switch (preset) {
    case Preset::kQuick:
      return "quick";
    case Preset::kDefault:
      return "default";
    case Preset::kPaper:
      return "paper";
  }
  return "?";
}

Preset parse_preset(const std::string& text) {
  if (text == "quick") return Preset::kQuick;
  if (text == "default") return Preset::kDefault;
  if (text == "paper") return Preset::kPaper;
  throw ConfigError("unknown preset '" + text + "' (expected quick|default|paper)");
}

ScaleParams scale_for(Preset preset) {
  switch (preset) {
    case Preset::kQuick:
      return {/*iterations=*/4, /*steps=*/500, /*stationary_trials=*/100};
    case Preset::kDefault:
      return {/*iterations=*/10, /*steps=*/2000, /*stationary_trials=*/250};
    case Preset::kPaper:
      return {/*iterations=*/50, /*steps=*/10000, /*stationary_trials=*/1000};
  }
  throw ConfigError("unknown preset");
}

std::vector<MtrmResult> InProcessSweepExecutor::run_points(std::vector<MtrmSweepPoint> points) {
  // Each point carries its own root; the engine's per-point stream goes unused.
  return parallel_for_trials(points.size(), 0, [&points](std::size_t point, Rng&) {
    return solve_mtrm_point<2>(points[point].config, points[point].trial_root);
  });
}

namespace experiments {

std::vector<MtrmResult> solve_mtrm_sweep(const std::vector<MtrmConfig>& configs,
                                         std::uint64_t seed,
                                         MtrmSweepExecutor* executor) {
  std::vector<MtrmSweepPoint> points;
  points.reserve(configs.size());
  for (std::size_t point = 0; point < configs.size(); ++point) {
    points.push_back(MtrmSweepPoint{configs[point], substream(seed, point).next_u64()});
  }
  InProcessSweepExecutor in_process;
  return (executor != nullptr ? *executor : in_process).run_points(std::move(points));
}

std::vector<double> figure_l_values() { return {256.0, 1024.0, 4096.0, 16384.0}; }

std::size_t paper_node_count(double l) {
  MANET_EXPECTS(l >= 1.0);
  return static_cast<std::size_t>(std::floor(std::sqrt(l)));
}

namespace {

MtrmConfig base_config(double l, Preset preset) {
  const ScaleParams scale = scale_for(preset);
  MtrmConfig config;
  config.node_count = paper_node_count(l);
  config.side = l;
  config.steps = scale.steps;
  config.iterations = scale.iterations;
  return config;
}

}  // namespace

MtrmConfig waypoint_experiment(double l, Preset preset) {
  MtrmConfig config = base_config(l, preset);
  config.mobility = MobilityConfig::paper_waypoint(l);
  return config;
}

MtrmConfig drunkard_experiment(double l, Preset preset) {
  MtrmConfig config = base_config(l, preset);
  config.mobility = MobilityConfig::paper_drunkard(l);
  return config;
}

MtrmConfig sweep_base_config(Preset preset) {
  // Section 4.3: "the random waypoint model with l = 4096 and n = sqrt(l) =
  // 64. The default values of the mobility parameters were set as above."
  return waypoint_experiment(4096.0, preset);
}

std::vector<double> figure7_pstationary_values() {
  std::vector<double> values = {0.0, 0.2};
  for (double p = 0.4; p <= 0.6 + 1e-9; p += 0.02) values.push_back(p);
  values.push_back(0.8);
  values.push_back(1.0);
  return values;
}

std::vector<double> figure8_tpause_values() {
  std::vector<double> values;
  for (double t = 0.0; t <= 10000.0 + 1e-9; t += 1000.0) values.push_back(t);
  return values;
}

std::vector<double> figure9_vmax_fractions() {
  return {0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5};
}

void LinkModelTradeoffConfig::validate() const {
  if (node_count < 2) throw ConfigError("LinkModelTradeoffConfig: node_count must be >= 2");
  if (!(side > 0.0)) throw ConfigError("LinkModelTradeoffConfig: side must be > 0");
  if (!region_side_in_range(side)) {
    throw ConfigError(
        "LinkModelTradeoffConfig: side must be finite with 3*side^2 a finite, normal double");
  }
  if (trials == 0) throw ConfigError("LinkModelTradeoffConfig: trials must be >= 1");
  static_cast<void>(EnergyModel(alpha));  // throws ConfigError unless 1 <= alpha < inf
  if (!(p_full > 0.0 && p_full <= 1.0)) {
    throw ConfigError("LinkModelTradeoffConfig: p_full must lie in (0, 1]");
  }
  if (!(p_tolerant > 0.0 && p_tolerant <= p_full)) {
    throw ConfigError("LinkModelTradeoffConfig: p_tolerant must lie in (0, p_full]");
  }
}

std::vector<LinkModelTradeoffRow> link_model_energy_tradeoff(
    const LinkModelTradeoffConfig& config, const std::vector<const LinkModelFamily*>& families,
    std::uint64_t seed) {
  config.validate();
  for (const LinkModelFamily* family : families) {
    if (family == nullptr) throw ConfigError("link_model_energy_tradeoff: null family");
  }

  const EnergyModel energy(config.alpha);
  const Box<2> region(config.side);
  std::vector<LinkModelTradeoffRow> rows;
  rows.reserve(families.size());
  for (std::size_t f = 0; f < families.size(); ++f) {
    // One substream root per family: rows are pure functions of (seed, f),
    // independent of how many families the sweep includes or their order.
    Rng family_rng = substream(seed, f);
    const StationaryRangeSample sample = sample_link_model_critical_ranges<2>(
        config.node_count, region, config.trials, family_rng, *families[f]);

    LinkModelTradeoffRow row;
    row.model = families[f]->name();
    row.r_full = sample.range_for_probability(config.p_full);
    row.r_tolerant = sample.range_for_probability(config.p_tolerant);
    row.mean_critical_range = sample.mean_critical_range();
    // Order statistics are monotone in p, so r_tolerant <= r_full; both are
    // positive for n >= 2 nodes at distinct positions, but guard the
    // degenerate all-coincident sample rather than divide by zero.
    if (row.r_full > 0.0) {
      row.range_reduction = 1.0 - row.r_tolerant / row.r_full;
      row.energy_savings = energy.savings(row.r_full, row.r_tolerant);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace experiments
}  // namespace manet
