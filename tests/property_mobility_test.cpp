// Statistical property suites for the mobility models and the geometric
// primitives they rest on — distributional facts rather than single-path
// checks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "geometry/torus.hpp"
#include "mobility/factory.hpp"
#include "sim/deployment.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "topology/critical_range.hpp"

namespace manet {
namespace {

// ---------------------------------------------------------------------------
// Random waypoint: the center-density bias. A waypoint node in steady flight
// crosses the middle of the region more often than the border — the known
// non-uniform stationary distribution of the model. With long pauses the
// bias washes out (nodes park at uniform destinations).
// ---------------------------------------------------------------------------

double mean_center_distance(const std::vector<Point2>& positions, double side) {
  const Point2 center{{side / 2.0, side / 2.0}};
  double total = 0.0;
  for (const auto& p : positions) total += distance(p, center);
  return total / static_cast<double>(positions.size());
}

TEST(WaypointDistribution, NoPauseFlightConcentratesTowardTheCenter) {
  Rng rng(1);
  const double side = 100.0;
  const Box2 box(side);
  RandomWaypointParams params;
  params.v_min = 1.0;
  params.v_max = 2.0;
  params.pause_steps = 0;  // permanent flight: maximal center bias
  RandomWaypointModel<2> model(box, params);

  auto positions = uniform_deployment(400, box, rng);
  model.initialize(positions, rng);
  // Burn in past the initial uniform placement.
  for (int s = 0; s < 400; ++s) model.step(positions, rng);

  RunningStats biased;
  for (int s = 0; s < 200; ++s) {
    model.step(positions, rng);
    biased.add(mean_center_distance(positions, side));
  }

  // Uniform reference: E[dist to center] ~ 0.3826 * side for the unit
  // square.
  const double uniform_expectation = 0.3826 * side;
  EXPECT_LT(biased.mean(), uniform_expectation * 0.95);
}

TEST(WaypointDistribution, LongPausesStayNearUniform) {
  Rng rng(2);
  const double side = 100.0;
  const Box2 box(side);
  RandomWaypointParams params;
  params.v_min = 5.0;
  params.v_max = 10.0;   // fast travel ...
  params.pause_steps = 200;  // ... then long parking at a uniform waypoint
  RandomWaypointModel<2> model(box, params);

  auto positions = uniform_deployment(400, box, rng);
  model.initialize(positions, rng);
  for (int s = 0; s < 400; ++s) model.step(positions, rng);

  RunningStats parked;
  for (int s = 0; s < 200; ++s) {
    model.step(positions, rng);
    parked.add(mean_center_distance(positions, side));
  }
  const double uniform_expectation = 0.3826 * side;
  EXPECT_NEAR(parked.mean(), uniform_expectation, uniform_expectation * 0.06);
}

// ---------------------------------------------------------------------------
// Drunkard: the step displacement statistics match a uniform-disk draw.
// ---------------------------------------------------------------------------

TEST(DrunkardDistribution, StepLengthMatchesUniformDiskRadialLaw) {
  // For a uniform draw in a disk of radius m, E[step length] = 2m/3.
  Rng rng(3);
  const double side = 1000.0;
  const Box2 box(side);
  DrunkardParams params;
  params.step_radius = 10.0;
  params.p_pause = 0.0;
  DrunkardModel<2> model(box, params);

  // Keep nodes away from the border so clipping cannot skew the law.
  std::vector<Point2> positions(300, Point2{{side / 2.0, side / 2.0}});
  model.initialize(positions, rng);

  RunningStats lengths;
  auto previous = positions;
  for (int s = 0; s < 50; ++s) {
    model.step(positions, rng);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      lengths.add(distance(previous[i], positions[i]));
    }
    previous = positions;
  }
  EXPECT_NEAR(lengths.mean(), 2.0 * params.step_radius / 3.0, 0.15);
}

TEST(DrunkardDistribution, IsDiffusive) {
  // Mean squared displacement after t steps grows ~ linearly in t (random
  // walk), far from ballistic motion.
  Rng rng(4);
  const double side = 10000.0;  // large enough to avoid border clipping
  const Box2 box(side);
  DrunkardParams params;
  params.step_radius = 10.0;
  DrunkardModel<2> model(box, params);

  std::vector<Point2> positions(200, Point2{{side / 2.0, side / 2.0}});
  const auto origin = positions;
  model.initialize(positions, rng);

  const auto msd = [&]() {
    double total = 0.0;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      total += squared_distance(origin[i], positions[i]);
    }
    return total / static_cast<double>(positions.size());
  };

  for (int s = 0; s < 100; ++s) model.step(positions, rng);
  const double msd_100 = msd();
  for (int s = 0; s < 300; ++s) model.step(positions, rng);
  const double msd_400 = msd();

  // Linear diffusion predicts a factor 4; ballistic motion a factor 16.
  EXPECT_NEAR(msd_400 / msd_100, 4.0, 1.2);
}

// ---------------------------------------------------------------------------
// covering_radius: the exact-threshold guarantee that underpins every
// critical-range computation.
// ---------------------------------------------------------------------------

class CoveringRadiusProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoveringRadiusProperty, SquareIsNeverBelowInput) {
  Rng rng(GetParam());
  for (int i = 0; i < 10000; ++i) {
    const double d2 = rng.uniform(0.0, 1e12);
    const double r = covering_radius(d2);
    EXPECT_GE(r * r, d2);
    // Tight: one ulp below fails the inclusion test or equals sqrt rounding.
    const double below = std::nextafter(r, 0.0);
    EXPECT_LT(below * below, d2 + d2 * 1e-15 + 1e-300);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, CoveringRadiusProperty,
                         ::testing::Values<std::uint64_t>(1, 2, 3));

// ---------------------------------------------------------------------------
// Torus metric: shift invariance (the whole point of the torus).
// ---------------------------------------------------------------------------

class TorusShiftProperty : public ::testing::TestWithParam<double> {};

TEST_P(TorusShiftProperty, DistanceIsInvariantUnderCyclicShift) {
  const double shift = GetParam();
  Rng rng(5);
  const double side = 50.0;
  const Box2 box(side);
  const auto points = uniform_deployment(20, box, rng);

  const auto wrap = [&](double x) {
    double w = std::fmod(x + shift, side);
    if (w < 0.0) w += side;
    return w;
  };

  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const Point2 a{{wrap(points[i][0]), wrap(points[i][1])}};
      const Point2 b{{wrap(points[j][0]), wrap(points[j][1])}};
      EXPECT_NEAR(torus_distance(a, b, side),
                  torus_distance(points[i], points[j], side), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, TorusShiftProperty,
                         ::testing::Values(0.0, 7.3, 25.0, 49.9, -13.7));

// ---------------------------------------------------------------------------
// Deployment + connectivity probability is monotone in n (the dimensioning
// assumption): statistical check over a small grid.
// ---------------------------------------------------------------------------

TEST(ConnectivityMonotonicity, ProbabilityGrowsWithNodeCount) {
  const double side = 100.0;
  const Box2 box(side);
  const double range = 30.0;

  double previous = -1.0;
  for (std::size_t n : {10u, 20u, 40u, 80u}) {
    Rng rng(6);
    int connected = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
      const auto points = uniform_deployment(n, box, rng);
      if (critical_range<2>(points, box) <= range) ++connected;
    }
    const double p = static_cast<double>(connected) / trials;
    EXPECT_GE(p, previous - 0.05) << "n=" << n;  // allow small MC noise
    previous = p;
  }
  EXPECT_GT(previous, 0.9);  // densest case is almost surely connected
}

}  // namespace
}  // namespace manet
