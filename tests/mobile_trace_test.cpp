#include "sim/mobile_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "geometry/box.hpp"
#include "mobility/factory.hpp"
#include "support/error.hpp"
#include "support/reference_mst.hpp"
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

/// The merged-mean-curve algorithm, kept as the brute-force reference for
/// the histogram selection of MobileConnectivityTrace: every breakpoint of
/// every step becomes a merge event, the events are sorted by range and
/// folded into the mean largest-component curve, and the queries are a
/// lower_bound / upper_bound over that curve.
class MergedMeanCurve {
 public:
  struct Point {
    double range;
    double mean_size;
  };

  MergedMeanCurve(std::size_t n, const std::vector<LargestComponentCurve>& curves) : n_(n) {
    struct Event {
      double range;
      double delta;
    };
    std::vector<Event> events;
    double total = 0.0;
    for (const auto& curve : curves) {
      const auto breakpoints = curve.breakpoints();
      total += static_cast<double>(breakpoints.front().size);
      for (std::size_t i = 1; i < breakpoints.size(); ++i) {
        events.push_back({breakpoints[i].range, static_cast<double>(breakpoints[i].size) -
                                                    static_cast<double>(breakpoints[i - 1].size)});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.range < b.range; });
    const double steps = static_cast<double>(curves.size());
    curve_.push_back({0.0, total / steps});
    for (const Event& event : events) {
      total += event.delta;
      if (curve_.back().range == event.range) {
        curve_.back().mean_size = total / steps;
      } else {
        curve_.push_back({event.range, total / steps});
      }
    }
  }

  const std::vector<Point>& points() const { return curve_; }

  double range_for_mean_component_fraction(double phi) const {
    const double target = phi * static_cast<double>(n_);
    const auto it = std::lower_bound(
        curve_.begin(), curve_.end(), target,
        [](const Point& point, double t) { return point.mean_size < t; });
    if (it == curve_.end()) {
      ADD_FAILURE() << "the merged mean never reaches phi * n";
      return std::numeric_limits<double>::quiet_NaN();
    }
    return it->range;
  }

  double mean_largest_fraction_at(double range) const {
    const auto it =
        std::upper_bound(curve_.begin(), curve_.end(), range,
                         [](double r, const Point& point) { return r < point.range; });
    const double mean_size = std::prev(it)->mean_size;
    if (n_ == 0) return 1.0;
    return mean_size / static_cast<double>(n_);
  }

 private:
  std::size_t n_;
  std::vector<Point> curve_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Component curve of a random recursive spanning tree on n nodes (node v
/// attaches to a uniform earlier node) whose edge weights come from
/// `weight()`. Equal weights give several merges at one range.
template <typename WeightFn>
LargestComponentCurve random_tree_curve(std::size_t n, Rng& rng, WeightFn&& weight) {
  std::vector<WeightedEdge> edges;
  for (std::size_t v = 1; v < n; ++v) edges.push_back({rng.uniform_index(v), v, weight()});
  return LargestComponentCurve(n, std::move(edges));
}

/// Component curve of a star on weights.size() + 1 nodes: every edge grows
/// the largest component, so each distinct weight is one breakpoint.
LargestComponentCurve star_curve(const std::vector<double>& weights) {
  std::vector<WeightedEdge> edges;
  for (std::size_t v = 0; v < weights.size(); ++v) edges.push_back({0, v + 1, weights[v]});
  return LargestComponentCurve(weights.size() + 1, std::move(edges));
}

/// Checks both mean-component queries of a trace over `curves` against the
/// merged-mean-curve reference, bit for bit: rl_phi at the paper's phi, at
/// 1e-9, at every phi where some mean size equals phi * n exactly and one
/// ulp either side of it; the mean fraction at every distinct breakpoint
/// range and one ulp either side of it.
void expect_matches_merged_mean_curve(std::size_t n, std::vector<LargestComponentCurve> curves,
                                      const std::string& label) {
  SCOPED_TRACE(label);
  const MergedMeanCurve reference(n, curves);
  const MobileConnectivityTrace trace(n, std::move(curves));

  std::vector<double> phis = {1e-9, 0.5, 0.75, 0.9, 1.0};
  std::size_t exact_ties = 0;
  for (const auto& point : reference.points()) {
    if (n == 0) break;
    const double phi = point.mean_size / static_cast<double>(n);
    for (const double candidate : {std::nextafter(phi, 0.0), phi, std::nextafter(phi, 2.0)}) {
      if (!(candidate > 0.0 && candidate <= 1.0)) continue;
      phis.push_back(candidate);
      if (candidate * static_cast<double>(n) == point.mean_size) ++exact_ties;
    }
  }
  if (n > 0) {
    EXPECT_GT(exact_ties, 0u);
  }
  for (const double phi : phis) {
    ASSERT_EQ(bits(trace.range_for_mean_component_fraction(phi)),
              bits(reference.range_for_mean_component_fraction(phi)))
        << "phi = " << phi;
  }

  for (const auto& point : reference.points()) {
    const double inf = std::numeric_limits<double>::infinity();
    for (const double r : {std::nextafter(point.range, -inf), point.range,
                           std::nextafter(point.range, inf)}) {
      if (r < 0.0) continue;
      ASSERT_EQ(bits(trace.mean_largest_fraction_at(r)),
                bits(reference.mean_largest_fraction_at(r)))
          << "range = " << r;
    }
  }
}

TEST(MobileConnectivityTrace, MeanComponentQueriesMatchMergedMeanCurveOnRandomCurves) {
  Rng rng(18);
  for (std::size_t trial = 0; trial < 40; ++trial) {
    // 1-3000 steps, n in 2..300; the last trials pin the extremes.
    std::size_t steps =
        1 + rng.uniform_index(std::min<std::size_t>(3000, std::size_t{3} << (2 * (trial % 6))));
    std::size_t n = 2 + rng.uniform_index(299);
    if (trial == 37) {
      steps = 3000;
      n = 40;
    } else if (trial == 38) {
      steps = 400;
      n = 300;
    } else if (trial == 39) {
      steps = 1;
      n = 300;
    }
    // Weights: a shared pool of `pool` values (duplicate ranges within and
    // across steps) or, for small sets, continuous; 5% are 0 (coincident).
    const std::size_t pools[] = {1, 2, 7, 100, 1000, 0};
    std::size_t pool = pools[rng.uniform_index(6)];
    steps = std::min<std::size_t>(steps, std::max<std::size_t>(1, 600'000 / n));
    if (pool == 0 && steps * steps * n > 3'000'000) pool = 1000;
    std::vector<double> values(pool);
    for (double& v : values) v = rng.uniform(0.0, 8.0);
    const auto weight = [&] {
      if (rng.bernoulli(0.05)) return 0.0;
      return pool == 0 ? rng.uniform(0.0, 8.0) : values[rng.uniform_index(pool)];
    };
    std::vector<LargestComponentCurve> curves;
    for (std::size_t s = 0; s < steps; ++s) curves.push_back(random_tree_curve(n, rng, weight));
    expect_matches_merged_mean_curve(n, std::move(curves),
                                     "trial " + std::to_string(trial) + ": steps " +
                                         std::to_string(steps) + ", n " + std::to_string(n) +
                                         ", pool " + std::to_string(pool));
    if (HasFatalFailure()) return;
  }
}

TEST(MobileConnectivityTrace, MeanComponentQueriesMatchMergedMeanCurveOnEdgeCases) {
  Rng rng(1802);
  const auto repeat = [](std::size_t steps, const LargestComponentCurve& curve) {
    return std::vector<LargestComponentCurve>(steps, curve);
  };

  // Every node coincident: r_max = 0, every merge at range 0.
  expect_matches_merged_mean_curve(20, repeat(5, random_tree_curve(20, rng, [] { return 0.0; })),
                                   "coincident");

  // Subnormal r_max: the bin map divides by a subnormal.
  {
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<LargestComponentCurve> curves;
    for (std::size_t s = 0; s < 30; ++s) {
      curves.push_back(random_tree_curve(
          40, rng, [&] { return tiny * static_cast<double>(rng.uniform_index(60)); }));
    }
    expect_matches_merged_mean_curve(40, std::move(curves), "subnormal r_max");
  }

  // A single step.
  expect_matches_merged_mean_curve(
      100, repeat(1, random_tree_curve(100, rng, [&] { return rng.uniform(0.0, 3.0); })),
      "single step");

  // n = 0 and n = 1: no breakpoint beyond the first.
  expect_matches_merged_mean_curve(0, repeat(4, LargestComponentCurve(0, {})), "n = 0");
  expect_matches_merged_mean_curve(1, repeat(4, LargestComponentCurve(1, {})), "n = 1");

  // One distinct positive range.
  {
    std::vector<LargestComponentCurve> curves;
    for (std::size_t s = 0; s < 50; ++s) {
      curves.push_back(random_tree_curve(30, rng, [] { return 2.5; }));
    }
    expect_matches_merged_mean_curve(30, std::move(curves), "one distinct range");
  }

  // Every event in the top bin: ranges within 200 ulps below r_max = 1, so
  // the one gathered bin holds every breakpoint of the trace.
  {
    std::vector<LargestComponentCurve> curves;
    for (std::size_t s = 0; s < 100; ++s) {
      std::vector<double> weights(63);
      for (double& w : weights) {
        w = 1.0;
        for (std::size_t k = rng.uniform_index(200); k > 0; --k) w = std::nextafter(w, 0.0);
      }
      weights[0] = 1.0;
      curves.push_back(star_curve(weights));
    }
    expect_matches_merged_mean_curve(64, std::move(curves), "one bin");
  }

  // Breakpoints exactly at every bin boundary b / 4096 (r_max = 1, a power of
  // two, so every boundary of up to 4096 bins is on this grid) and one ulp
  // below each, shuffled over 256 star steps of 32 edges.
  {
    std::vector<double> ranges;
    for (std::size_t b = 1; b <= 4096; ++b) {
      const double boundary = static_cast<double>(b) / 4096.0;
      ranges.push_back(boundary);
      ranges.push_back(std::nextafter(boundary, 0.0));
    }
    for (std::size_t i = ranges.size() - 1; i > 0; --i) {
      std::swap(ranges[i], ranges[rng.uniform_index(i + 1)]);
    }
    std::vector<LargestComponentCurve> curves;
    for (std::size_t s = 0; s < 256; ++s) {
      curves.push_back(star_curve(std::vector<double>(ranges.begin() + 32 * s,
                                                      ranges.begin() + 32 * (s + 1))));
    }
    expect_matches_merged_mean_curve(33, std::move(curves), "bin boundaries");
  }
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
