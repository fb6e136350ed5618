#include "core/mtrm.hpp"

#include <string>

#include "geometry/box.hpp"
#include "support/error.hpp"
#include "support/numeric.hpp"

namespace manet {

MtrmResult fold_mtrm_outcomes(const MtrmConfig& config,
                              std::span<const MtrmIterationOutcome> outcomes) {
  MtrmResult result;
  result.time_fractions = config.time_fractions;
  result.component_fractions = config.component_fractions;
  result.range_for_time.resize(config.time_fractions.size());
  result.range_for_component.resize(config.component_fractions.size());
  result.lcc_at_range_for_time.resize(config.time_fractions.size());
  result.min_lcc_at_range_for_time.resize(config.time_fractions.size());

  for (const MtrmIterationOutcome& outcome : outcomes) {
    for (std::size_t i = 0; i < config.time_fractions.size(); ++i) {
      result.range_for_time[i].add(outcome.range_for_time[i]);
      result.lcc_at_range_for_time[i].add(outcome.lcc_at_range_for_time[i]);
      result.min_lcc_at_range_for_time[i].add(outcome.min_lcc_at_range_for_time[i]);
    }
    result.range_never_connected.add(outcome.range_never_connected);
    result.lcc_at_range_never.add(outcome.lcc_at_range_never);
    for (std::size_t j = 0; j < config.component_fractions.size(); ++j) {
      result.range_for_component[j].add(outcome.range_for_component[j]);
    }
    result.mean_critical_range.add(outcome.mean_critical_range);
  }
  return result;
}

std::vector<double> flatten_mtrm_result(const MtrmResult& result) {
  std::vector<double> values;
  for (const RunningStats& stats : result.range_for_time) {
    values.push_back(stats.mean());
    values.push_back(stats.variance());
  }
  values.push_back(result.range_never_connected.mean());
  values.push_back(result.lcc_at_range_never.mean());
  for (const RunningStats& stats : result.range_for_component) values.push_back(stats.mean());
  for (const RunningStats& stats : result.lcc_at_range_for_time) values.push_back(stats.mean());
  for (const RunningStats& stats : result.min_lcc_at_range_for_time) {
    values.push_back(stats.mean());
  }
  values.push_back(result.mean_critical_range.mean());
  return values;
}

std::vector<std::string> flatten_mtrm_labels(std::size_t time_fraction_count,
                                             std::size_t component_fraction_count) {
  // Must mirror flatten_mtrm_result's push order exactly — both are pinned
  // against each other by MtrmTest.FlattenLabelsMatchFlattenLayout.
  std::vector<std::string> labels;
  const auto indexed = [](const char* base, std::size_t i, const char* stat) {
    return std::string(base) + "[" + format_u64(i) + "]." + stat;
  };
  for (std::size_t i = 0; i < time_fraction_count; ++i) {
    labels.push_back(indexed("range_for_time", i, "mean"));
    labels.push_back(indexed("range_for_time", i, "variance"));
  }
  labels.push_back("range_never_connected.mean");
  labels.push_back("lcc_at_range_never.mean");
  for (std::size_t j = 0; j < component_fraction_count; ++j) {
    labels.push_back(indexed("range_for_component", j, "mean"));
  }
  for (std::size_t i = 0; i < time_fraction_count; ++i) {
    labels.push_back(indexed("lcc_at_range_for_time", i, "mean"));
  }
  for (std::size_t i = 0; i < time_fraction_count; ++i) {
    labels.push_back(indexed("min_lcc_at_range_for_time", i, "mean"));
  }
  labels.push_back("mean_critical_range.mean");
  return labels;
}

void MtrmConfig::validate() const {
  if (node_count < 2) throw ConfigError("MtrmConfig: node_count must be >= 2");
  if (!(side > 0.0)) throw ConfigError("MtrmConfig: side must be > 0");
  if (!region_side_in_range(side)) {
    throw ConfigError("MtrmConfig: side must be finite with 3*side^2 a finite, normal double");
  }
  if (steps == 0) throw ConfigError("MtrmConfig: steps must be >= 1");
  if (iterations == 0) throw ConfigError("MtrmConfig: iterations must be >= 1");
  if (time_fractions.empty() && component_fractions.empty()) {
    throw ConfigError("MtrmConfig: nothing to solve (no fractions requested)");
  }
  for (double f : time_fractions) {
    if (!(f > 0.0 && f <= 1.0)) {
      throw ConfigError("MtrmConfig: time fractions must be in (0, 1]");
    }
  }
  for (double phi : component_fractions) {
    if (!(phi > 0.0 && phi <= 1.0)) {
      throw ConfigError("MtrmConfig: component fractions must be in (0, 1]");
    }
  }
}

}  // namespace manet
