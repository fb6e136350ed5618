#include "sim/mobile_trace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geometry/box.hpp"
#include "mobility/factory.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

/// Builds a trace whose step s is a 1-D placement with a known critical
/// radius: nodes at {0, gap[s]} so rc(s) = gap[s].
MobileConnectivityTrace trace_with_critical_radii(const std::vector<double>& gaps) {
  std::vector<LargestComponentCurve> curves;
  for (double gap : gaps) {
    const std::vector<Point1> points = {{{0.0}}, {{gap}}};
    curves.emplace_back(points.size(), euclidean_mst<1>(points));
  }
  return MobileConnectivityTrace(2, std::move(curves));
}

TEST(MobileConnectivityTrace, RejectsEmptyAndMismatchedCurves) {
  EXPECT_THROW(MobileConnectivityTrace(2, {}), ContractViolation);

  std::vector<LargestComponentCurve> wrong_n;
  const std::vector<Point1> three = {{{0.0}}, {{1.0}}, {{2.0}}};
  wrong_n.emplace_back(three.size(), euclidean_mst<1>(three));
  EXPECT_THROW(MobileConnectivityTrace(2, std::move(wrong_n)), ContractViolation);
}

TEST(MobileConnectivityTrace, FractionOfTimeConnected) {
  const auto trace = trace_with_critical_radii({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_connected(0.5), 0.0);
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_connected(1.0), 0.25);
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_connected(2.5), 0.5);
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_connected(4.0), 1.0);
}

TEST(MobileConnectivityTrace, RangeForTimeFractionIsOrderStatistic) {
  const auto trace = trace_with_critical_radii({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(trace.range_for_time_fraction(1.0), 4.0);    // r100
  EXPECT_DOUBLE_EQ(trace.range_for_time_fraction(0.75), 3.0);
  EXPECT_DOUBLE_EQ(trace.range_for_time_fraction(0.5), 2.0);
  EXPECT_DOUBLE_EQ(trace.range_for_time_fraction(0.25), 1.0);
  EXPECT_DOUBLE_EQ(trace.range_for_time_fraction(0.1), 1.0);    // rounds up
  EXPECT_THROW(trace.range_for_time_fraction(0.0), ContractViolation);
  EXPECT_THROW(trace.range_for_time_fraction(1.5), ContractViolation);
}

TEST(MobileConnectivityTrace, RangeForTimeFractionSatisfiesItsPromise) {
  const auto trace = trace_with_critical_radii({5.0, 1.0, 3.0, 2.0, 4.0});
  for (double f : {0.2, 0.4, 0.6, 0.8, 0.9, 1.0}) {
    EXPECT_GE(trace.fraction_of_time_connected(trace.range_for_time_fraction(f)), f - 1e-12);
  }
}

TEST(MobileConnectivityTrace, LargestNeverConnectedRange) {
  const auto trace = trace_with_critical_radii({3.0, 1.5, 2.0});
  EXPECT_DOUBLE_EQ(trace.largest_never_connected_range(), 1.5);
  // Just below r0: nothing connected; at r0 the first step connects.
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_connected(1.5 * (1 - 1e-12)), 0.0);
  EXPECT_GT(trace.fraction_of_time_connected(1.5), 0.0);
}

TEST(MobileConnectivityTrace, MeanCriticalRange) {
  const auto trace = trace_with_critical_radii({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(trace.mean_critical_range(), 2.0);
}

TEST(MobileConnectivityTrace, MeanLargestFractionSteps) {
  // Two steps over 2 nodes with rc 1.0 and 3.0:
  //  r < 1   : both steps have LCC 1 -> mean fraction 0.5
  //  1<=r<3  : LCC 2 and 1          -> mean fraction 0.75
  //  r >= 3  : both 2               -> 1.0
  const auto trace = trace_with_critical_radii({1.0, 3.0});
  EXPECT_DOUBLE_EQ(trace.mean_largest_fraction_at(0.5), 0.5);
  EXPECT_DOUBLE_EQ(trace.mean_largest_fraction_at(1.0), 0.75);
  EXPECT_DOUBLE_EQ(trace.mean_largest_fraction_at(2.9), 0.75);
  EXPECT_DOUBLE_EQ(trace.mean_largest_fraction_at(3.0), 1.0);
}

TEST(MobileConnectivityTrace, RangeForMeanComponentFraction) {
  const auto trace = trace_with_critical_radii({1.0, 3.0});
  // mean fraction: 0.5 below 1, 0.75 in [1,3), 1.0 at 3.
  EXPECT_DOUBLE_EQ(trace.range_for_mean_component_fraction(0.5), 0.0);
  EXPECT_DOUBLE_EQ(trace.range_for_mean_component_fraction(0.6), 1.0);
  EXPECT_DOUBLE_EQ(trace.range_for_mean_component_fraction(0.75), 1.0);
  EXPECT_DOUBLE_EQ(trace.range_for_mean_component_fraction(0.9), 3.0);
  EXPECT_DOUBLE_EQ(trace.range_for_mean_component_fraction(1.0), 3.0);
}

TEST(MobileConnectivityTrace, MeanComponentFractionPromiseHolds) {
  Rng rng(1);
  const Box2 box(64.0);
  auto model = make_mobility_model<2>(MobilityConfig::paper_drunkard(64.0), box);
  const auto trace = run_mobile_trace<2>(12, box, 50, *model, rng);
  for (double phi : {0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double r = trace.range_for_mean_component_fraction(phi);
    EXPECT_GE(trace.mean_largest_fraction_at(r), phi - 1e-12);
    if (r > 0.0) {
      EXPECT_LT(trace.mean_largest_fraction_at(r * (1.0 - 1e-9)), phi);
    }
  }
}

TEST(MobileConnectivityTrace, MeanLargestFractionWhenDisconnected) {
  // At r in [1,3) only the rc=3 step is disconnected, with LCC fraction 0.5.
  const auto trace = trace_with_critical_radii({1.0, 3.0});
  EXPECT_DOUBLE_EQ(trace.mean_largest_fraction_when_disconnected(1.0), 0.5);
  // At r >= 3 everything is connected -> convention 1.0.
  EXPECT_DOUBLE_EQ(trace.mean_largest_fraction_when_disconnected(3.0), 1.0);
  // Below both rc, both steps disconnected with fraction 0.5.
  EXPECT_DOUBLE_EQ(trace.mean_largest_fraction_when_disconnected(0.5), 0.5);
}

TEST(MobileConnectivityTrace, MinLargestFraction) {
  const auto trace = trace_with_critical_radii({1.0, 3.0});
  EXPECT_DOUBLE_EQ(trace.min_largest_fraction_at(0.5), 0.5);
  EXPECT_DOUBLE_EQ(trace.min_largest_fraction_at(1.5), 0.5);
  EXPECT_DOUBLE_EQ(trace.min_largest_fraction_at(3.0), 1.0);
}

TEST(MobileConnectivityTrace, FractionOfTimeComponentAtLeast) {
  const auto trace = trace_with_critical_radii({1.0, 3.0});
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_component_at_least(0.5, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_component_at_least(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_component_at_least(1.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(trace.fraction_of_time_component_at_least(3.0, 1.0), 1.0);
  EXPECT_THROW(trace.fraction_of_time_component_at_least(1.0, 0.0), ContractViolation);
}

TEST(RunMobileTrace, ProducesOneCurvePerStep) {
  Rng rng(2);
  const Box2 box(32.0);
  auto model = make_mobility_model<2>(MobilityConfig::paper_waypoint(32.0), box);
  const auto trace = run_mobile_trace<2>(8, box, 25, *model, rng);
  EXPECT_EQ(trace.steps(), 25u);
  EXPECT_EQ(trace.node_count(), 8u);
  EXPECT_EQ(trace.sorted_critical_radii().size(), 25u);
}

TEST(RunMobileTrace, SingleStepEqualsStationaryCase) {
  Rng rng(3);
  const Box2 box(32.0);
  StationaryModel<2> model;
  const auto trace = run_mobile_trace<2>(10, box, 1, model, rng);
  EXPECT_EQ(trace.steps(), 1u);
  // With one step, every range question collapses to that placement.
  EXPECT_DOUBLE_EQ(trace.range_for_time_fraction(1.0),
                   trace.largest_never_connected_range());
}

TEST(RunMobileTrace, StationaryModelGivesConstantCriticalRadius) {
  Rng rng(4);
  const Box2 box(32.0);
  StationaryModel<2> model;
  const auto trace = run_mobile_trace<2>(10, box, 20, model, rng);
  const auto radii = trace.sorted_critical_radii();
  for (double r : radii) EXPECT_DOUBLE_EQ(r, radii.front());
}

TEST(RunMobileTrace, IsDeterministicPerSeed) {
  const Box2 box(64.0);
  const MobilityConfig config = MobilityConfig::paper_drunkard(64.0);
  Rng a(5);
  Rng b(5);
  auto model_a = make_mobility_model<2>(config, box);
  auto model_b = make_mobility_model<2>(config, box);
  const auto ta = run_mobile_trace<2>(10, box, 30, *model_a, a);
  const auto tb = run_mobile_trace<2>(10, box, 30, *model_b, b);
  ASSERT_EQ(ta.sorted_critical_radii().size(), tb.sorted_critical_radii().size());
  for (std::size_t i = 0; i < ta.sorted_critical_radii().size(); ++i) {
    EXPECT_EQ(ta.sorted_critical_radii()[i], tb.sorted_critical_radii()[i]);
  }
}

TEST(RunMobileTrace, RejectsZeroSteps) {
  Rng rng(6);
  const Box2 box(10.0);
  StationaryModel<2> model;
  EXPECT_THROW(run_mobile_trace<2>(5, box, 0, model, rng), ContractViolation);
}

}  // namespace
}  // namespace manet
