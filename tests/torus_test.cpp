#include "geometry/torus.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geometry/box.hpp"
#include "sim/deployment.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

TEST(TorusDistance, AgreesWithEuclideanForNearbyPoints) {
  const Point2 a{{1.0, 1.0}};
  const Point2 b{{2.0, 3.0}};
  EXPECT_DOUBLE_EQ(torus_squared_distance(a, b, 100.0), squared_distance(a, b));
  EXPECT_DOUBLE_EQ(torus_distance(a, b, 100.0), distance(a, b));
}

TEST(TorusDistance, WrapsAroundTheBoundary) {
  const Point1 left{{0.5}};
  const Point1 right{{9.5}};
  EXPECT_DOUBLE_EQ(torus_distance(left, right, 10.0), 1.0);  // not 9.0

  const Point2 corner_a{{0.0, 0.0}};
  const Point2 corner_b{{10.0, 10.0}};
  EXPECT_DOUBLE_EQ(torus_distance(corner_a, corner_b, 10.0), 0.0);  // same point mod l
}

TEST(TorusDistance, NeverExceedsEuclidean) {
  Rng rng(1);
  const Box2 box(50.0);
  const auto points = uniform_deployment(30, box, rng);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      EXPECT_LE(torus_squared_distance(points[i], points[j], 50.0),
                squared_distance(points[i], points[j]) + 1e-12);
    }
  }
}

TEST(TorusDistance, MaximumIsHalfDiagonal) {
  // On the torus no pair is farther than l/2 per axis.
  Rng rng(2);
  const Box2 box(20.0);
  const auto points = uniform_deployment(50, box, rng);
  const double max_possible = torus_distance(Point2{{0.0, 0.0}}, Point2{{10.0, 10.0}}, 20.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      EXPECT_LE(torus_distance(points[i], points[j], 20.0), max_possible + 1e-12);
    }
  }
}

TEST(TorusDistance, RejectsNonPositiveSide) {
  EXPECT_THROW(torus_squared_distance(Point1{{0.0}}, Point1{{1.0}}, 0.0),
               ContractViolation);
}

TEST(MstWithMetric, EuclideanInstanceMatchesEuclideanMst) {
  Rng rng(3);
  const Box2 box(40.0);
  const auto points = uniform_deployment(25, box, rng);
  const auto direct = euclidean_mst<2>(points);
  const auto via_metric =
      mst_with_metric<2>(points, [](const Point2& a, const Point2& b) {
        return squared_distance(a, b);
      });
  EXPECT_NEAR(tree_total_weight(direct), tree_total_weight(via_metric), 1e-9);
  EXPECT_NEAR(tree_bottleneck(direct), tree_bottleneck(via_metric), 1e-9);
}

TEST(TorusCriticalRange, NeverExceedsEuclideanCriticalRange) {
  Rng rng(4);
  const Box2 box(64.0);
  for (int trial = 0; trial < 20; ++trial) {
    const auto points = uniform_deployment(20, box, rng);
    EXPECT_LE(torus_critical_range<2>(points, 64.0),
              critical_range<2>(points, box) + 1e-12)
        << "trial " << trial;
  }
}

TEST(TorusCriticalRange, HealsBoundaryGap) {
  // Two clusters pressed against opposite edges: Euclidean needs to bridge
  // the whole region, the torus wraps around cheaply.
  const std::vector<Point1> points = {{{0.1}}, {{0.2}}, {{99.8}}, {{99.9}}};
  const double euclid = critical_range<1>(points, Box1(100.0));
  const double torus = torus_critical_range<1>(points, 100.0);
  EXPECT_NEAR(euclid, 99.6, 1e-9);
  // Circular gaps are 0.1, 0.1, 0.2 (wrap) and 99.6; the MST drops the
  // largest, so the torus bottleneck is the 0.2 wrap edge.
  EXPECT_NEAR(torus, 0.2, 1e-9);
}

TEST(TorusCriticalRange, EqualsEuclideanForCentralCluster) {
  // A cluster far from every border can't benefit from wrapping.
  const std::vector<Point2> points = {
      {{40.0, 40.0}}, {{42.0, 41.0}}, {{44.0, 39.0}}, {{41.0, 43.0}}};
  EXPECT_NEAR(torus_critical_range<2>(points, 100.0), critical_range<2>(points, Box2(100.0)),
              1e-12);
}

TEST(TorusCriticalRange, TrivialInputs) {
  const std::vector<Point2> none;
  EXPECT_DOUBLE_EQ(torus_critical_range<2>(none, 10.0), 0.0);
  const std::vector<Point2> one = {{{5.0, 5.0}}};
  EXPECT_DOUBLE_EQ(torus_critical_range<2>(one, 10.0), 0.0);
}

}  // namespace
}  // namespace manet
