#include "core/mtrm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

MtrmConfig small_config() {
  MtrmConfig config;
  config.node_count = 12;
  config.side = 144.0;
  config.steps = 60;
  config.iterations = 4;
  config.mobility = MobilityConfig::paper_drunkard(144.0);
  return config;
}

TEST(MtrmConfig, Validation) {
  MtrmConfig config = small_config();
  EXPECT_NO_THROW(config.validate());

  config.node_count = 1;
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();

  config.side = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();

  config.steps = 0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();

  config.iterations = 0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();

  config.time_fractions = {1.5};
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();

  config.component_fractions = {0.0};
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();

  config.time_fractions.clear();
  config.component_fractions.clear();
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(MtrmConfig, RejectsSidesWhoseSquaredDistancesOverflowOrUnderflow) {
  // inf passed the old `side > 0` check and read r100 = 0; 1e160 squared to
  // inf (NaN radix keys, r100 = inf); 1e-170 squared to 0 (a zero radius).
  MtrmConfig config = small_config();
  for (const double side : {std::numeric_limits<double>::infinity(), 1e160, 1e-170,
                            std::numeric_limits<double>::quiet_NaN()}) {
    config.side = side;
    EXPECT_THROW(config.validate(), ConfigError) << "side " << side;
  }
  // The accepted range is [sqrt(DBL_MIN), sqrt(DBL_MAX / 3)]: both ends of
  // it still validate, one step outside does not.
  const double lo = std::sqrt(std::numeric_limits<double>::min()) * (1.0 + 1e-15);
  const double hi = std::sqrt(std::numeric_limits<double>::max() / 3.0) * (1.0 - 1e-15);
  config.side = lo;
  EXPECT_NO_THROW(config.validate());
  config.side = hi;
  EXPECT_NO_THROW(config.validate());
  config.side = lo * (1.0 - 1e-6);
  EXPECT_THROW(config.validate(), ConfigError);
  config.side = hi * (1.0 + 1e-6);
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(SolveMtrm, PopulatesEveryRequestedStatistic) {
  Rng rng(1);
  const MtrmConfig config = small_config();
  const MtrmResult result = solve_mtrm<2>(config, rng);

  ASSERT_EQ(result.range_for_time.size(), 3u);
  ASSERT_EQ(result.range_for_component.size(), 3u);
  ASSERT_EQ(result.lcc_at_range_for_time.size(), 3u);
  ASSERT_EQ(result.min_lcc_at_range_for_time.size(), 3u);
  for (const auto& stats : result.range_for_time) {
    EXPECT_EQ(stats.count(), config.iterations);
  }
  EXPECT_EQ(result.range_never_connected.count(), config.iterations);
  EXPECT_EQ(result.mean_critical_range.count(), config.iterations);
  EXPECT_EQ(result.time_fractions, config.time_fractions);
  EXPECT_EQ(result.component_fractions, config.component_fractions);
}

TEST(SolveMtrm, RangeOrderingMatchesTimeFractions) {
  // r100 >= r90 >= r10 >= r0 must hold per construction.
  Rng rng(2);
  const MtrmResult result = solve_mtrm<2>(small_config(), rng);
  const double r100 = result.range_for_time[0].mean();
  const double r90 = result.range_for_time[1].mean();
  const double r10 = result.range_for_time[2].mean();
  const double r0 = result.range_never_connected.mean();
  EXPECT_GE(r100, r90);
  EXPECT_GE(r90, r10);
  EXPECT_GE(r10, r0);
  EXPECT_GT(r0, 0.0);
}

TEST(SolveMtrm, ComponentRangesOrderedByFraction) {
  Rng rng(3);
  const MtrmResult result = solve_mtrm<2>(small_config(), rng);
  const double rl90 = result.range_for_component[0].mean();
  const double rl75 = result.range_for_component[1].mean();
  const double rl50 = result.range_for_component[2].mean();
  EXPECT_GE(rl90, rl75);
  EXPECT_GE(rl75, rl50);
  EXPECT_GT(rl50, 0.0);
}

TEST(SolveMtrm, ComponentRangesBelowFullConnectivityRange) {
  // Keeping 90% of nodes connected on average never needs more range than
  // keeping 100% connected 100% of the time.
  Rng rng(4);
  const MtrmResult result = solve_mtrm<2>(small_config(), rng);
  EXPECT_LE(result.range_for_component[0].mean(), result.range_for_time[0].mean());
}

TEST(SolveMtrm, IsDeterministicPerSeed) {
  const MtrmConfig config = small_config();
  Rng a(5);
  Rng b(5);
  const MtrmResult ra = solve_mtrm<2>(config, a);
  const MtrmResult rb = solve_mtrm<2>(config, b);
  EXPECT_DOUBLE_EQ(ra.range_for_time[0].mean(), rb.range_for_time[0].mean());
  EXPECT_DOUBLE_EQ(ra.range_never_connected.mean(), rb.range_never_connected.mean());
  EXPECT_DOUBLE_EQ(ra.range_for_component[2].mean(), rb.range_for_component[2].mean());
}

TEST(SolveMtrm, StationaryMobilityCollapsesTimeFractions) {
  // Without movement every step has the same critical radius, so
  // r100 == r90 == r10 == r0 within each iteration.
  MtrmConfig config = small_config();
  config.mobility = MobilityConfig::stationary();
  Rng rng(6);
  const MtrmResult result = solve_mtrm<2>(config, rng);
  EXPECT_DOUBLE_EQ(result.range_for_time[0].mean(), result.range_for_time[2].mean());
  EXPECT_DOUBLE_EQ(result.range_for_time[0].mean(), result.range_never_connected.mean());
}

TEST(SolveMtrm, LccFractionsAreInUnitInterval) {
  Rng rng(7);
  const MtrmResult result = solve_mtrm<2>(small_config(), rng);
  for (const auto& stats : result.lcc_at_range_for_time) {
    EXPECT_GE(stats.mean(), 0.0);
    EXPECT_LE(stats.mean(), 1.0);
  }
  EXPECT_GE(result.lcc_at_range_never.mean(), 0.0);
  EXPECT_LE(result.lcc_at_range_never.mean(), 1.0);
  for (const auto& stats : result.min_lcc_at_range_for_time) {
    EXPECT_GE(stats.mean(), 0.0);
    EXPECT_LE(stats.mean(), 1.0);
  }
}

TEST(SolveMtrm, WaypointModelRuns) {
  MtrmConfig config = small_config();
  config.mobility = MobilityConfig::paper_waypoint(config.side);
  // Speed up arrival for the small test region.
  config.mobility.waypoint.pause_steps = 5;
  Rng rng(8);
  const MtrmResult result = solve_mtrm<2>(config, rng);
  EXPECT_GT(result.range_for_time[0].mean(), 0.0);
}

TEST(SolveMtrm, CustomFractionsAreHonored) {
  MtrmConfig config = small_config();
  config.time_fractions = {0.5};
  config.component_fractions = {0.25, 1.0};
  Rng rng(9);
  const MtrmResult result = solve_mtrm<2>(config, rng);
  ASSERT_EQ(result.range_for_time.size(), 1u);
  ASSERT_EQ(result.range_for_component.size(), 2u);
  // rl at phi=1.0 requires the mean LCC to be n: at least the per-iteration
  // r100, hence >= rl at 0.25.
  EXPECT_GE(result.range_for_component[1].mean(), result.range_for_component[0].mean());
}

TEST(MtrmTest, FlattenLabelsMatchFlattenLayout) {
  MtrmConfig config = small_config();
  config.time_fractions = {1.0, 0.9, 0.1};
  config.component_fractions = {0.5, 0.9};
  Rng rng(10);
  const MtrmResult result = solve_mtrm<2>(config, rng);
  const std::vector<double> flattened = flatten_mtrm_result(result);
  const std::vector<std::string> labels =
      flatten_mtrm_labels(config.time_fractions.size(), config.component_fractions.size());

  // One label per slot, no duplicates — the addressing manetd relies on.
  ASSERT_EQ(labels.size(), flattened.size());
  EXPECT_EQ(std::set<std::string>(labels.begin(), labels.end()).size(), labels.size());

  // Spot-check the anchors of the layout against the struct fields.
  const auto index_of = [&](const std::string& label) {
    const auto it = std::find(labels.begin(), labels.end(), label);
    EXPECT_NE(it, labels.end()) << label;
    return static_cast<std::size_t>(it - labels.begin());
  };
  EXPECT_EQ(index_of("range_for_time[0].mean"), 0u);
  EXPECT_EQ(flattened[index_of("range_for_time[1].mean")], result.range_for_time[1].mean());
  EXPECT_EQ(flattened[index_of("range_never_connected.mean")],
            result.range_never_connected.mean());
  EXPECT_EQ(flattened[index_of("range_for_component[1].mean")],
            result.range_for_component[1].mean());
  EXPECT_EQ(flattened[index_of("lcc_at_range_for_time[2].mean")],
            result.lcc_at_range_for_time[2].mean());
  EXPECT_EQ(flattened[index_of("mean_critical_range.mean")],
            result.mean_critical_range.mean());
  EXPECT_EQ(index_of("mean_critical_range.mean"), labels.size() - 1);
}

}  // namespace
}  // namespace manet
