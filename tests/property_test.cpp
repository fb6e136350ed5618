#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "mobility/factory.hpp"
#include "occupancy/gap_pattern.hpp"
#include "occupancy/occupancy.hpp"
#include "sim/deployment.hpp"
#include "sim/mobile_trace.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

// ---------------------------------------------------------------------------
// Property: connectivity is monotone in the transmitting range, and the
// critical range is the exact flip point — swept over node counts and seeds.
// ---------------------------------------------------------------------------

class CriticalRangeProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(CriticalRangeProperty, ConnectivityIsMonotoneAndFlipsAtCriticalRange) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Box2 box(100.0);
  const auto points = uniform_deployment(n, box, rng);
  const double rc = critical_range<2>(points, box);

  if (n <= 1) {
    EXPECT_DOUBLE_EQ(rc, 0.0);
    return;
  }
  EXPECT_GT(rc, 0.0);
  EXPECT_TRUE(analyze_link_components<2>(points, box, UnitDiskLinkModel(rc)).connected());
  EXPECT_FALSE(
      analyze_link_components<2>(points, box, UnitDiskLinkModel(rc * 0.999)).connected());

  // Monotonicity over a geometric ladder of ranges.
  bool was_connected = false;
  for (double r = rc / 8.0; r <= rc * 4.0; r *= 1.5) {
    const bool connected =
        analyze_link_components<2>(points, box, UnitDiskLinkModel(r)).connected();
    if (was_connected) {
      EXPECT_TRUE(connected) << "connectivity lost as r grew";
    }
    was_connected = connected;
  }
}

TEST_P(CriticalRangeProperty, LargestComponentCurveIsConsistentWithDirectAnalysis) {
  const auto [n, seed] = GetParam();
  if (n == 0) return;
  Rng rng(seed + 1000);
  const Box2 box(100.0);
  const auto points = uniform_deployment(n, box, rng);
  const LargestComponentCurve curve(points.size(), euclidean_mst<2>(points));
  const double rc = curve.critical_range();

  for (double r : {rc * 0.25, rc * 0.5, rc * 0.75, rc, rc * 1.5}) {
    if (r <= 0.0) continue;
    const auto summary = analyze_link_components<2>(points, box, UnitDiskLinkModel(r));
    EXPECT_EQ(curve.largest_component_at(r), summary.largest_size) << "r=" << r;
  }
}

TEST_P(CriticalRangeProperty, MstEdgeCountAndBottleneckInvariants) {
  const auto [n, seed] = GetParam();
  Rng rng(seed + 2000);
  const Box2 box(100.0);
  const auto points = uniform_deployment(n, box, rng);
  const auto mst = euclidean_mst<2>(points);
  EXPECT_EQ(mst.size(), n <= 1 ? 0u : n - 1);
  // The bottleneck never exceeds the region diagonal and never drops below
  // the tightest packing bound.
  EXPECT_LE(tree_bottleneck(mst), box.diagonal());
  for (const auto& e : mst) EXPECT_GE(e.weight, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    NodeCountAndSeedSweep, CriticalRangeProperty,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 3, 5, 10, 25, 60),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

// ---------------------------------------------------------------------------
// Property: isometries (translation, rotation, reflection) preserve the
// critical range — swept over seeds.
// ---------------------------------------------------------------------------

class IsometryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsometryProperty, CriticalRangeIsIsometryInvariant) {
  Rng rng(GetParam());
  const Box2 box(50.0);
  const auto points = uniform_deployment(20, box, rng);
  const double rc = critical_range<2>(points, box);

  // Rotation by 90 degrees inside a containing box plus translation.
  std::vector<Point2> rotated;
  std::vector<Point2> reflected;
  for (const auto& p : points) {
    rotated.push_back({{50.0 - p[1], p[0]}});
    reflected.push_back({{50.0 - p[0], p[1]}});
  }
  // Both images stay inside the same box.
  EXPECT_NEAR(critical_range<2>(rotated, box), rc, 1e-9);
  EXPECT_NEAR(critical_range<2>(reflected, box), rc, 1e-9);
}

TEST_P(IsometryProperty, CriticalRangeScalesLinearly) {
  Rng rng(GetParam() + 77);
  const Box2 box(50.0);
  const auto points = uniform_deployment(15, box, rng);
  const double rc = critical_range<2>(points, box);

  std::vector<Point2> scaled;
  for (const auto& p : points) scaled.push_back(p * 3.0);
  EXPECT_NEAR(critical_range<2>(scaled, Box2(3.0 * box.side())), 3.0 * rc, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, IsometryProperty,
                         ::testing::Values<std::uint64_t>(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Property: mobility models keep nodes inside the region and the trace
// quantities respect their defining inequalities — swept over models.
// ---------------------------------------------------------------------------

struct TraceCase {
  MobilityKind kind;
  std::uint64_t seed;
};

class TraceProperty : public ::testing::TestWithParam<TraceCase> {};

MobilityConfig config_for(MobilityKind kind, double l) {
  switch (kind) {
    case MobilityKind::kStationary:
      return MobilityConfig::stationary();
    case MobilityKind::kRandomWaypoint: {
      auto config = MobilityConfig::paper_waypoint(l);
      config.waypoint.pause_steps = 10;  // keep the toy trace lively
      return config;
    }
    case MobilityKind::kDrunkard:
      return MobilityConfig::paper_drunkard(l);
    case MobilityKind::kRandomDirection: {
      MobilityConfig config;
      config.kind = MobilityKind::kRandomDirection;
      config.direction.v_min = 0.1;
      config.direction.v_max = 0.01 * l;
      config.direction.p_turn = 0.05;
      return config;
    }
  }
  return MobilityConfig::stationary();
}

TEST_P(TraceProperty, QuantileInequalitiesHold) {
  const auto [kind, seed] = GetParam();
  const double l = 128.0;
  Rng rng(seed);
  const Box2 box(l);
  auto model = make_mobility_model<2>(config_for(kind, l), box);
  const auto trace = run_mobile_trace<2>(14, box, 120, *model, rng);

  const double r100 = trace.range_for_time_fraction(1.0);
  const double r90 = trace.range_for_time_fraction(0.9);
  const double r10 = trace.range_for_time_fraction(0.1);
  const double r0 = trace.largest_never_connected_range();
  EXPECT_GE(r100, r90);
  EXPECT_GE(r90, r10);
  EXPECT_GE(r10, r0);
  EXPECT_GT(r0, 0.0);

  // The promise of each quantile.
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_connected(r100), 1.0);
  EXPECT_GE(trace.fraction_of_time_connected(r90), 0.9);
  EXPECT_GE(trace.fraction_of_time_connected(r10), 0.1);
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_connected(r0 * (1.0 - 1e-12)), 0.0);
}

TEST_P(TraceProperty, ComponentCurveQuantitiesAreMonotone) {
  const auto [kind, seed] = GetParam();
  const double l = 128.0;
  Rng rng(seed + 5000);
  const Box2 box(l);
  auto model = make_mobility_model<2>(config_for(kind, l), box);
  const auto trace = run_mobile_trace<2>(14, box, 120, *model, rng);

  double previous_range = 0.0;
  for (double phi : {0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double r = trace.range_for_mean_component_fraction(phi);
    EXPECT_GE(r, previous_range) << "phi=" << phi;
    previous_range = r;
    EXPECT_GE(trace.mean_largest_fraction_at(r), phi - 1e-12);
  }

  // Mean LCC fraction is nondecreasing in r.
  const double rmax = trace.range_for_time_fraction(1.0);
  double previous_fraction = 0.0;
  for (double r = rmax / 16.0; r <= rmax; r *= 2.0) {
    const double fraction = trace.mean_largest_fraction_at(r);
    EXPECT_GE(fraction, previous_fraction);
    previous_fraction = fraction;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TraceProperty,
    ::testing::Values(TraceCase{MobilityKind::kStationary, 1},
                      TraceCase{MobilityKind::kRandomWaypoint, 2},
                      TraceCase{MobilityKind::kRandomWaypoint, 3},
                      TraceCase{MobilityKind::kDrunkard, 4},
                      TraceCase{MobilityKind::kDrunkard, 5},
                      TraceCase{MobilityKind::kRandomDirection, 6}),
    [](const ::testing::TestParamInfo<TraceCase>& info) {
      std::string name = mobility_kind_name(info.param.kind);
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest parameter names must be identifiers
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Property: occupancy PMF is a valid distribution and its first two moments
// match the closed forms — swept over (n, C).
// ---------------------------------------------------------------------------

class OccupancyMomentsProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(OccupancyMomentsProperty, PmfIsADistributionWithMatchingMoments) {
  const auto [n, C] = GetParam();
  double total = 0.0;
  double mean = 0.0;
  double second = 0.0;
  for (std::uint64_t k = 0; k <= C; ++k) {
    const double p = occupancy::empty_cells_pmf(n, C, k);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    total += p;
    mean += static_cast<double>(k) * p;
    second += static_cast<double>(k * k) * p;
  }
  EXPECT_NEAR(total, 1.0, 1e-7) << "n=" << n << " C=" << C;
  EXPECT_NEAR(mean, occupancy::expected_empty_cells(n, C), 1e-6);
  EXPECT_NEAR(second - mean * mean, occupancy::variance_empty_cells(n, C), 1e-5);
}

TEST_P(OccupancyMomentsProperty, GapPatternProbabilityIsValid) {
  const auto [n, C] = GetParam();
  const double p = gap_pattern::pattern_probability(n, C);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    BallsAndCellsSweep, OccupancyMomentsProperty,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 5, 12, 30, 80),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 8, 20, 40)));

// ---------------------------------------------------------------------------
// Property: dimension sweep — the full pipeline runs identically in 1-D,
// 2-D and 3-D and the critical range flips connectivity in each.
// ---------------------------------------------------------------------------

template <int D>
void check_dimension(std::uint64_t seed) {
  Rng rng(seed);
  const Box<D> box(64.0);
  const auto points = uniform_deployment<D>(12, box, rng);
  const double rc = critical_range<D>(points, box);
  EXPECT_GT(rc, 0.0);
  EXPECT_TRUE(analyze_link_components<D>(points, box, UnitDiskLinkModel(rc)).connected());
  EXPECT_FALSE(
      analyze_link_components<D>(points, box, UnitDiskLinkModel(rc * 0.999)).connected());
}

TEST(DimensionSweep, CriticalRangeFlipsConnectivityInAllDimensions) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    check_dimension<1>(seed);
    check_dimension<2>(seed);
    check_dimension<3>(seed);
  }
}

TEST(DimensionSweep, HigherDimensionNeedsLargerRangeAtEqualDensity) {
  // With n nodes in side-l regions, typical critical ranges grow with d
  // (volume to cover grows). Statistical check over repetitions.
  Rng rng(9);
  double sum_1d = 0.0;
  double sum_3d = 0.0;
  for (int t = 0; t < 40; ++t) {
    const Box1 line(64.0);
    const Box3 cube(64.0);
    sum_1d += critical_range<1>(uniform_deployment<1>(16, line, rng), line);
    sum_3d += critical_range<3>(uniform_deployment<3>(16, cube, rng), cube);
  }
  EXPECT_LT(sum_1d, sum_3d);
}

}  // namespace
}  // namespace manet
