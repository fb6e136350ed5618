#include "topology/critical_range.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "sim/deployment.hpp"
#include "support/reference_mst.hpp"
#include "support/rng.hpp"
#include "topology/emst_grid.hpp"
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

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

using PrimRuns = std::vector<std::pair<std::size_t, double>>;

/// The (span, key) records of for_each_prim_run, in emission order.
PrimRuns prim_runs(const std::vector<double>& keys) {
  std::vector<detail::PrimRun> stack;
  PrimRuns runs;
  detail::for_each_prim_run(std::span<const double>(keys), stack,
                            [&](std::size_t span, double key) { runs.emplace_back(span, key); });
  return runs;
}

TEST(LargestComponentCurve, PrimOrderRunsAreReportedOnce) {
  // One record per component that forms, the first in the order its run
  // closes: a strictly larger key closes a run, an equal key extends it.
  EXPECT_EQ(prim_runs({}), PrimRuns{});
  EXPECT_EQ(prim_runs({4.0}), (PrimRuns{{2, 4.0}}));
  EXPECT_EQ(prim_runs({1.0, 3.0, 2.0}), (PrimRuns{{2, 1.0}, {2, 2.0}, {4, 3.0}}));
  // Collinear equal gaps: one component of all n, once.
  EXPECT_EQ(prim_runs({1.0, 1.0, 1.0}), (PrimRuns{{4, 1.0}}));
  EXPECT_EQ(prim_runs({2.0, 1.0, 2.0}), (PrimRuns{{2, 1.0}, {4, 2.0}}));
  EXPECT_EQ(prim_runs({3.0, 1.0, 3.0, 2.0, 3.0}), (PrimRuns{{2, 1.0}, {2, 2.0}, {6, 3.0}}));
  // Coincident points: zero keys, two runs at range 0.
  EXPECT_EQ(prim_runs({0.0, 5.0, 0.0, 0.0}), (PrimRuns{{2, 0.0}, {3, 0.0}, {5, 5.0}}));
}

TEST(LargestComponentCurve, FromPrimOrderMatchesAPathOfTheSameKeys) {
  // Prim order 0, 1, 2, 3 with keys 1, 3, 2: the path 0-1-2-3 with those
  // squared lengths is a tree with the same curve. A size reached at a
  // smaller key than a smaller size (the run of span 2 at key 2 after the
  // one at key 1) adds no breakpoint.
  LargestComponentCurve::PrimOrderScratch work;
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  const std::vector<double> keys = {1.0, 3.0, 2.0};
  const auto curve = LargestComponentCurve::from_prim_order(4, keys, work, scratch);
  const LargestComponentCurve path(
      4, {{0, 1, covering_radius(1.0)}, {1, 2, covering_radius(3.0)}, {2, 3, covering_radius(2.0)}});
  ASSERT_EQ(curve.breakpoints().size(), 3u);
  ASSERT_EQ(path.breakpoints().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(bits_equal(curve.breakpoints()[i].range, path.breakpoints()[i].range));
    EXPECT_EQ(curve.breakpoints()[i].size, path.breakpoints()[i].size);
  }
  EXPECT_EQ(curve.largest_component_at(1.0), 2u);
  EXPECT_EQ(curve.largest_component_at(1.5), 2u);
  EXPECT_EQ(curve.range_for_size(3), covering_radius(3.0));

  const auto empty = LargestComponentCurve::from_prim_order(0, {}, work, scratch);
  EXPECT_EQ(empty.breakpoints().size(), 1u);
  EXPECT_EQ(empty.largest_component_at(1.0), 0u);
  const auto single = LargestComponentCurve::from_prim_order(1, {}, work, scratch);
  EXPECT_EQ(single.largest_component_at(0.0), 1u);
  EXPECT_THROW(LargestComponentCurve::from_prim_order(5, keys, work, scratch),
               ContractViolation);
}

/// The inputs of the Prim-order differential: uniform points, coincident
/// pairs, collinear points at equal gaps (in shuffled order) and all points
/// equal, in a region of side `side` (at least n / 16).
template <int D>
std::vector<std::vector<Point<D>>> prim_order_inputs(std::size_t n, double side, Rng& rng) {
  const Box<D> box(side);
  std::vector<std::vector<Point<D>>> inputs;
  inputs.push_back(uniform_deployment(n, box, rng));
  const std::vector<Point<D>> half = uniform_deployment((n + 1) / 2, box, rng);
  std::vector<Point<D>> pairs = half;
  pairs.insert(pairs.end(), half.begin(), half.end());
  pairs.resize(n);
  inputs.push_back(pairs);
  // A gap of 1/16 keeps every coordinate exact, so all gaps are equal.
  std::vector<Point<D>> line(n, Point<D>{});
  for (std::size_t i = 0; i < n; ++i) line[i].coords[0] = static_cast<double>(i) / 16.0;
  for (std::size_t i = n; i > 1; --i) std::swap(line[i - 1], line[rng.next_u64() % i]);
  inputs.push_back(line);
  inputs.push_back(std::vector<Point<D>>(n, Point<D>{}));
  return inputs;
}

/// The dense path's Prim-order curve must equal the Kruskal curve of the
/// reference MST bit for bit, and (D >= 2) critical_range its bottleneck.
template <int D>
void check_prim_order_curves() {
  Rng rng(0x9817u + static_cast<unsigned>(D));
  EmstEngine<D> engine;
  LargestComponentCurve::PrimOrderScratch work;
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  const double side = 100.0;
  for (const std::size_t n : {0u, 1u, 2u, 3u, 16u, 128u, 896u}) {
    ASSERT_TRUE(EmstEngine<D>::dense_path(n));
    const auto inputs = prim_order_inputs<D>(n, side, rng);
    for (std::size_t input = 0; input < inputs.size(); ++input) {
      SCOPED_TRACE(::testing::Message() << "D=" << D << " n=" << n << " input=" << input);
      const auto& points = inputs[input];
      const auto keys = engine.template prim_order_keys<1>({points})[0];
      ASSERT_EQ(keys.size(), n > 0 ? n - 1 : 0);
      const auto curve = LargestComponentCurve::from_prim_order(n, keys, work, scratch);
      const auto reference_tree = euclidean_mst<D>(points);
      const LargestComponentCurve reference(n, reference_tree);
      const auto got = curve.breakpoints();
      const auto expected = reference.breakpoints();
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(bits_equal(got[i].range, expected[i].range)) << "breakpoint " << i;
        EXPECT_EQ(got[i].size, expected[i].size) << "breakpoint " << i;
      }
      if constexpr (D >= 2) {
        EXPECT_TRUE(bits_equal(critical_range<D>(points, Box<D>(side)),
                               tree_bottleneck(reference_tree)));
      }
    }
  }
}

TEST(LargestComponentCurve, FromPrimOrderMatchesKruskalCurve1D) { check_prim_order_curves<1>(); }
TEST(LargestComponentCurve, FromPrimOrderMatchesKruskalCurve2D) { check_prim_order_curves<2>(); }
TEST(LargestComponentCurve, FromPrimOrderMatchesKruskalCurve3D) { check_prim_order_curves<3>(); }

TEST(CriticalRange, MatchesReferenceBottleneckOnBothPaths) {
  // Dense side (the largest Prim key) and grid side (the sorted tree's last
  // edge) against the reference MST, bit for bit.
  Rng rng(0xB0771u);
  const Box2 box(64.0);
  const Box3 cube(16.0);
  for (const std::size_t n : {128u, 896u, 1000u}) {
    const auto plane = uniform_deployment(n, box, rng);
    EXPECT_TRUE(bits_equal(critical_range<2>(plane, box), tree_bottleneck(euclidean_mst<2>(plane))))
        << "n=" << n;
    const auto space = uniform_deployment(n, cube, rng);
    EXPECT_TRUE(
        bits_equal(critical_range<3>(space, cube), tree_bottleneck(euclidean_mst<3>(space))))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace manet
