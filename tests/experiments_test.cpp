#include "core/experiments.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/error.hpp"

namespace manet {
namespace {

TEST(Preset, ParseAndNameRoundTrip) {
  for (Preset preset : {Preset::kQuick, Preset::kDefault, Preset::kPaper}) {
    EXPECT_EQ(parse_preset(preset_name(preset)), preset);
  }
  EXPECT_THROW(parse_preset("huge"), ConfigError);
}

TEST(Preset, PaperScaleMatchesThePaper) {
  const ScaleParams scale = scale_for(Preset::kPaper);
  EXPECT_EQ(scale.iterations, 50u);
  EXPECT_EQ(scale.steps, 10000u);
}

TEST(Preset, ScalesAreOrdered) {
  const ScaleParams quick = scale_for(Preset::kQuick);
  const ScaleParams normal = scale_for(Preset::kDefault);
  const ScaleParams paper = scale_for(Preset::kPaper);
  EXPECT_LT(quick.iterations * quick.steps, normal.iterations * normal.steps);
  EXPECT_LT(normal.iterations * normal.steps, paper.iterations * paper.steps);
}

TEST(Experiments, FigureLValuesArePowersOfFour) {
  const auto ls = experiments::figure_l_values();
  ASSERT_EQ(ls.size(), 4u);
  EXPECT_DOUBLE_EQ(ls[0], 256.0);
  EXPECT_DOUBLE_EQ(ls[1], 1024.0);
  EXPECT_DOUBLE_EQ(ls[2], 4096.0);
  EXPECT_DOUBLE_EQ(ls[3], 16384.0);
}

TEST(Experiments, NodeCountIsSqrtL) {
  EXPECT_EQ(experiments::paper_node_count(256.0), 16u);
  EXPECT_EQ(experiments::paper_node_count(1024.0), 32u);
  EXPECT_EQ(experiments::paper_node_count(4096.0), 64u);
  EXPECT_EQ(experiments::paper_node_count(16384.0), 128u);
}

TEST(Experiments, WaypointConfigUsesPaperParameters) {
  const MtrmConfig config = experiments::waypoint_experiment(4096.0, Preset::kPaper);
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.node_count, 64u);
  EXPECT_DOUBLE_EQ(config.side, 4096.0);
  EXPECT_EQ(config.steps, 10000u);
  EXPECT_EQ(config.iterations, 50u);
  EXPECT_EQ(config.mobility.kind, MobilityKind::kRandomWaypoint);
  EXPECT_DOUBLE_EQ(config.mobility.waypoint.v_max, 40.96);
  EXPECT_EQ(config.mobility.waypoint.pause_steps, 2000u);
}

TEST(Experiments, DrunkardConfigUsesPaperParameters) {
  const MtrmConfig config = experiments::drunkard_experiment(1024.0, Preset::kQuick);
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.node_count, 32u);
  EXPECT_EQ(config.mobility.kind, MobilityKind::kDrunkard);
  EXPECT_DOUBLE_EQ(config.mobility.drunkard.p_stationary, 0.1);
  EXPECT_DOUBLE_EQ(config.mobility.drunkard.p_pause, 0.3);
  EXPECT_DOUBLE_EQ(config.mobility.drunkard.step_radius, 10.24);
}

TEST(Experiments, SweepBaseIsL4096Waypoint) {
  const MtrmConfig config = experiments::sweep_base_config(Preset::kQuick);
  EXPECT_DOUBLE_EQ(config.side, 4096.0);
  EXPECT_EQ(config.node_count, 64u);
  EXPECT_EQ(config.mobility.kind, MobilityKind::kRandomWaypoint);
}

TEST(Experiments, Figure7SweepRefinesThresholdWindow) {
  const auto values = experiments::figure7_pstationary_values();
  ASSERT_GE(values.size(), 10u);
  EXPECT_DOUBLE_EQ(values.front(), 0.0);
  EXPECT_DOUBLE_EQ(values.back(), 1.0);
  // Fine 0.02 steps inside [0.4, 0.6].
  int fine_points = 0;
  for (double v : values) {
    if (v > 0.39 && v < 0.61) ++fine_points;
  }
  EXPECT_GE(fine_points, 10);
  // Sorted ascending.
  for (std::size_t i = 1; i < values.size(); ++i) EXPECT_GT(values[i], values[i - 1]);
}

TEST(Experiments, Figure8SweepCoversZeroToTenThousand) {
  const auto values = experiments::figure8_tpause_values();
  EXPECT_DOUBLE_EQ(values.front(), 0.0);
  EXPECT_DOUBLE_EQ(values.back(), 10000.0);
  EXPECT_GE(values.size(), 6u);
}

TEST(Experiments, Figure9SweepSpansPaperVelocities) {
  const auto fractions = experiments::figure9_vmax_fractions();
  EXPECT_DOUBLE_EQ(fractions.front(), 0.01);
  EXPECT_DOUBLE_EQ(fractions.back(), 0.5);
  for (double f : fractions) {
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 0.5);
  }
}

TEST(LinkModelTradeoffConfig, RejectsSidesWhoseSquaredDistancesOverflowOrUnderflow) {
  experiments::LinkModelTradeoffConfig config;
  EXPECT_NO_THROW(config.validate());
  for (const double side : {std::numeric_limits<double>::infinity(), 1e160, 1e-170,
                            std::numeric_limits<double>::quiet_NaN()}) {
    config.side = side;
    EXPECT_THROW(config.validate(), ConfigError) << "side " << side;
  }
  config.side = 1e150;
  EXPECT_NO_THROW(config.validate());
  config.side = 1e-150;
  EXPECT_NO_THROW(config.validate());
}

TEST(LinkModelTradeoffConfig, RejectsAlphaBelowOneOrNonFinite) {
  experiments::LinkModelTradeoffConfig config;
  for (const double alpha : {0.5, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    config.alpha = alpha;
    EXPECT_THROW(config.validate(), ConfigError) << "alpha " << alpha;
  }
  config.alpha = 1.0;
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace manet
