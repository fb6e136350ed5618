#include "topology/critical_range.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "sim/deployment.hpp"
#include "support/reference_mst.hpp"
#include "support/rng.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

TEST(CriticalRange, TrivialPointSets) {
  const Box2 box(10.0);
  const std::vector<Point2> none;
  EXPECT_DOUBLE_EQ(critical_range<2>(none, box), 0.0);
  const std::vector<Point2> one = {{{3.0, 3.0}}};
  EXPECT_DOUBLE_EQ(critical_range<2>(one, box), 0.0);
}

TEST(CriticalRange, OneDimensionEqualsLargestGap) {
  const std::vector<Point1> points = {{{0.0}}, {{1.0}}, {{4.0}}, {{4.5}}, {{10.0}}};
  EXPECT_DOUBLE_EQ(critical_range<1>(points, Box1(10.0)), 5.5);  // gap 4.5 -> 10.0
}

TEST(CriticalRange, OneDimensionUnsortedInput) {
  const std::vector<Point1> points = {{{10.0}}, {{0.0}}, {{4.5}}, {{4.0}}, {{1.0}}};
  EXPECT_DOUBLE_EQ(critical_range<1>(points, Box1(10.0)), 5.5);
}

TEST(CriticalRange, TwoDimensionHandComputed) {
  // Three collinear points: critical range is the larger adjacent distance.
  const std::vector<Point2> points = {{{0.0, 0.0}}, {{2.0, 0.0}}, {{7.0, 0.0}}};
  EXPECT_DOUBLE_EQ(critical_range<2>(points, Box2(10.0)), 5.0);
}

TEST(CriticalRange, ConnectivityFlipsExactlyAtCriticalRange) {
  Rng rng(1);
  const Box2 box(100.0);
  for (int trial = 0; trial < 20; ++trial) {
    const auto points = uniform_deployment(40, box, rng);
    const double rc = critical_range<2>(points, box);
    EXPECT_TRUE(analyze_link_components<2>(points, box, UnitDiskLinkModel(rc)).connected());
    EXPECT_FALSE(analyze_link_components<2>(points, box, UnitDiskLinkModel(rc * (1.0 - 1e-9)))
                     .connected());
  }
}

TEST(CriticalRange, InvariantUnderTranslationWithinBox) {
  const Box2 box(30.0);
  const std::vector<Point2> points = {{{1.0, 1.0}}, {{2.0, 3.0}}, {{5.0, 2.0}}};
  const double rc = critical_range<2>(points, box);
  std::vector<Point2> shifted;
  for (const auto& p : points) shifted.push_back(p + Point2{{10.0, 20.0}});
  EXPECT_NEAR(critical_range<2>(shifted, box), rc, 1e-12);
}

TEST(CriticalRange, MatchesMstBottleneckIn1D) {
  Rng rng(2);
  const Box1 line(1000.0);
  for (int trial = 0; trial < 10; ++trial) {
    const auto points = uniform_deployment(50, line, rng);
    const auto mst = euclidean_mst<1>(points);
    EXPECT_NEAR(critical_range<1>(points, line), tree_bottleneck(mst), 1e-9);
  }
}

TEST(IsolationRange, TrivialPointSets) {
  const Box2 box(10.0);
  const std::vector<Point2> none;
  EXPECT_DOUBLE_EQ(isolation_range<2>(none, box), 0.0);
  const std::vector<Point2> one = {{{1.0, 1.0}}};
  EXPECT_DOUBLE_EQ(isolation_range<2>(one, box), 0.0);
}

TEST(IsolationRange, HandComputed) {
  // Points at 0, 1, 5: nearest-neighbor distances are 1, 1, 4.
  const std::vector<Point1> points = {{{0.0}}, {{1.0}}, {{5.0}}};
  EXPECT_DOUBLE_EQ(isolation_range<1>(points, Box1(10.0)), 4.0);
}

TEST(IsolationRange, IsALowerBoundOnCriticalRange) {
  Rng rng(7);
  const Box2 box(100.0);
  for (int trial = 0; trial < 20; ++trial) {
    const auto points = uniform_deployment(30, box, rng);
    EXPECT_LE(isolation_range<2>(points, box), critical_range<2>(points, box) + 1e-12);
  }
}

TEST(IsolationRange, NoIsolatedNodeAtThatRange) {
  Rng rng(8);
  const Box2 box(100.0);
  const auto points = uniform_deployment(25, box, rng);
  const double iso = isolation_range<2>(points, box);
  const ComponentSummary at = analyze_link_components<2>(points, box, UnitDiskLinkModel(iso));
  EXPECT_EQ(at.isolated_count, 0u);
  // Just below, at least one node is isolated.
  const ComponentSummary below =
      analyze_link_components<2>(points, box, UnitDiskLinkModel(iso * (1.0 - 1e-9)));
  EXPECT_GE(below.isolated_count, 1u);
}

TEST(IsolationRange, EqualsCriticalRangeWhenLastObstacleIsALoneNode) {
  // Chain plus one distant node: the critical range is set by reaching the
  // stray node, which is also the isolation range.
  const Box1 line(10.0);
  const std::vector<Point1> points = {{{0.0}}, {{1.0}}, {{2.0}}, {{10.0}}};
  EXPECT_DOUBLE_EQ(isolation_range<1>(points, line), 8.0);
  EXPECT_DOUBLE_EQ(critical_range<1>(points, line), 8.0);
}

TEST(IsolationRange, StrictlyBelowCriticalRangeForSplitClusters) {
  // Two pairs far apart: nobody is isolated at range 1, but connectivity
  // needs the big bridge.
  const Box1 line(64.0);
  const std::vector<Point1> points = {{{0.0}}, {{1.0}}, {{50.0}}, {{51.0}}};
  EXPECT_DOUBLE_EQ(isolation_range<1>(points, line), 1.0);
  EXPECT_DOUBLE_EQ(critical_range<1>(points, line), 49.0);
}

TEST(LargestComponentCurve, SingletonAndEmpty) {
  const LargestComponentCurve empty(0, {});
  EXPECT_EQ(empty.largest_component_at(1.0), 0u);
  EXPECT_DOUBLE_EQ(empty.largest_fraction_at(5.0), 1.0);
  EXPECT_DOUBLE_EQ(empty.critical_range(), 0.0);

  const LargestComponentCurve single(1, {});
  EXPECT_EQ(single.largest_component_at(0.0), 1u);
  EXPECT_DOUBLE_EQ(single.critical_range(), 0.0);
  EXPECT_DOUBLE_EQ(single.range_for_size(1), 0.0);
}

TEST(LargestComponentCurve, RejectsWrongEdgeCount) {
  const std::vector<WeightedEdge> one_edge = {{0, 1, 1.0}};
  EXPECT_THROW(LargestComponentCurve(5, one_edge), ContractViolation);
}

TEST(LargestComponentCurve, StepFunctionOfCollinearPoints) {
  // Points at 0, 1, 3, 6 on a line: MST edges 1, 2, 3.
  const std::vector<Point1> points = {{{0.0}}, {{1.0}}, {{3.0}}, {{6.0}}};
  const LargestComponentCurve curve(points.size(), euclidean_mst<1>(points));

  EXPECT_EQ(curve.largest_component_at(0.0), 1u);
  EXPECT_EQ(curve.largest_component_at(0.99), 1u);
  EXPECT_EQ(curve.largest_component_at(1.0), 2u);
  EXPECT_EQ(curve.largest_component_at(2.0), 3u);
  EXPECT_EQ(curve.largest_component_at(2.5), 3u);
  EXPECT_EQ(curve.largest_component_at(3.0), 4u);
  EXPECT_EQ(curve.largest_component_at(100.0), 4u);

  EXPECT_DOUBLE_EQ(curve.range_for_size(1), 0.0);
  EXPECT_DOUBLE_EQ(curve.range_for_size(2), 1.0);
  EXPECT_DOUBLE_EQ(curve.range_for_size(3), 2.0);
  EXPECT_DOUBLE_EQ(curve.range_for_size(4), 3.0);
  EXPECT_DOUBLE_EQ(curve.critical_range(), 3.0);
}

TEST(LargestComponentCurve, EqualWeightMergesCollapse) {
  // Equally spaced points: all MST edges have the same weight; the curve
  // must jump straight from 1 to n at that weight.
  const std::vector<Point1> points = {{{0.0}}, {{2.0}}, {{4.0}}, {{6.0}}};
  const LargestComponentCurve curve(points.size(), euclidean_mst<1>(points));
  EXPECT_EQ(curve.largest_component_at(1.999), 1u);
  EXPECT_EQ(curve.largest_component_at(2.0), 4u);
  ASSERT_EQ(curve.breakpoints().size(), 2u);
}

TEST(LargestComponentCurve, MatchesDirectComponentAnalysis) {
  Rng rng(3);
  const Box2 box(100.0);
  for (int trial = 0; trial < 10; ++trial) {
    const auto points = uniform_deployment(35, box, rng);
    const LargestComponentCurve curve(points.size(), euclidean_mst<2>(points));
    for (double r : {5.0, 10.0, 20.0, 40.0, 80.0}) {
      const ComponentSummary summary =
          analyze_link_components<2>(points, box, UnitDiskLinkModel(r));
      EXPECT_EQ(curve.largest_component_at(r), summary.largest_size)
          << "trial=" << trial << " r=" << r;
    }
  }
}

TEST(LargestComponentCurve, RangeForSizeIsExactThreshold) {
  Rng rng(4);
  const Box2 box(50.0);
  const auto points = uniform_deployment(30, box, rng);
  const LargestComponentCurve curve(points.size(), euclidean_mst<2>(points));
  for (std::size_t target : {5u, 15u, 25u, 30u}) {
    const double r = curve.range_for_size(target);
    EXPECT_GE(curve.largest_component_at(r), target);
    if (r > 0.0) {
      EXPECT_LT(curve.largest_component_at(r * (1.0 - 1e-9)), target);
    }
  }
}

TEST(LargestComponentCurve, RangeForSizeRejectsBadTargets) {
  const std::vector<Point1> points = {{{0.0}}, {{1.0}}};
  const LargestComponentCurve curve(points.size(), euclidean_mst<1>(points));
  EXPECT_THROW(curve.range_for_size(0), ContractViolation);
  EXPECT_THROW(curve.range_for_size(3), ContractViolation);
}

TEST(LargestComponentCurve, CriticalRangeMatchesStandalone) {
  Rng rng(5);
  const Box2 box(80.0);
  for (int trial = 0; trial < 10; ++trial) {
    const auto points = uniform_deployment(25, box, rng);
    const LargestComponentCurve curve(points.size(), euclidean_mst<2>(points));
    EXPECT_NEAR(curve.critical_range(), critical_range<2>(points, box), 1e-9);
  }
}

TEST(LargestComponentCurve, BreakpointsAreMonotone) {
  Rng rng(6);
  const Box2 box(60.0);
  const auto points = uniform_deployment(40, box, rng);
  const LargestComponentCurve curve(points.size(), euclidean_mst<2>(points));
  const auto bps = curve.breakpoints();
  for (std::size_t i = 1; i < bps.size(); ++i) {
    EXPECT_GT(bps[i].range, bps[i - 1].range);
    EXPECT_GT(bps[i].size, bps[i - 1].size);
  }
  EXPECT_EQ(bps.back().size, 40u);
}

}  // namespace
}  // namespace manet
