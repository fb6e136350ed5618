#include "occupancy/exact_1d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/theory.hpp"
#include "geometry/box.hpp"
#include "sim/deployment.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"

namespace manet {
namespace {

using exact_1d::expected_critical_range;
using exact_1d::probability_connected;
using exact_1d::range_for_probability;

double monte_carlo_connected(std::uint64_t n, double r, double l, std::size_t trials,
                             Rng& rng) {
  const Box1 line(l);
  std::size_t connected = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto points = uniform_deployment(n, line, rng);
    if (critical_range<1>(points, line) <= r) ++connected;
  }
  return static_cast<double>(connected) / static_cast<double>(trials);
}

TEST(ProbabilityConnected1D, BoundaryCases) {
  EXPECT_DOUBLE_EQ(probability_connected(1, 0.0, 10.0), 1.0);  // single node
  EXPECT_DOUBLE_EQ(probability_connected(5, 10.0, 10.0), 1.0);  // r = l
  EXPECT_DOUBLE_EQ(probability_connected(5, 20.0, 10.0), 1.0);  // r > l
  EXPECT_DOUBLE_EQ(probability_connected(5, 0.0, 10.0), 0.0);   // r = 0
}

TEST(ProbabilityConnected1D, TwoNodesClosedForm) {
  // Two uniform points on [0, 1]: P(|X - Y| <= r) = 1 - (1 - r)^2 = 2r - r^2.
  for (double r : {0.1, 0.3, 0.5, 0.9}) {
    EXPECT_NEAR(probability_connected(2, r, 1.0), 2.0 * r - r * r, 1e-12) << "r=" << r;
  }
}

TEST(ProbabilityConnected1D, ThreeNodesClosedForm) {
  // n = 3 on [0, 1]: P = sum_j (-1)^j C(2, j)(1 - j r)_+^3.
  const double r = 0.4;
  const double expected = 1.0 - 2.0 * std::pow(1.0 - r, 3) + std::pow(1.0 - 2.0 * r, 3);
  EXPECT_NEAR(probability_connected(3, r, 1.0), expected, 1e-12);
}

TEST(ProbabilityConnected1D, ScaleInvariance) {
  // Only r / l matters.
  EXPECT_NEAR(probability_connected(10, 0.2, 1.0), probability_connected(10, 200.0, 1000.0),
              1e-12);
}

TEST(ProbabilityConnected1D, IsMonotoneInRange) {
  double previous = -1.0;
  for (double r = 0.0; r <= 1.0; r += 0.02) {
    const double p = probability_connected(30, r, 1.0);
    EXPECT_GE(p, previous - 1e-12);
    previous = p;
  }
}

TEST(ProbabilityConnected1D, MatchesMonteCarloAcrossRegimes) {
  Rng rng(1);
  const double l = 1000.0;
  for (std::uint64_t n : {5u, 16u, 64u, 128u}) {
    for (double fraction : {0.2, 0.5, 1.0, 2.0}) {
      // Ranges as multiples of the coverage scale l ln(n) / n.
      const double r = fraction * l * std::log(static_cast<double>(n)) /
                       static_cast<double>(n);
      if (r >= l) continue;
      const double exact = probability_connected(n, r, l);
      const double simulated = monte_carlo_connected(n, r, l, 4000, rng);
      EXPECT_NEAR(exact, simulated, 0.03) << "n=" << n << " fraction=" << fraction;
    }
  }
}

TEST(ProbabilityConnected1D, DeepSubcriticalIsZero) {
  // Far below the coverage threshold the probability is numerically zero
  // (this exercises the cancellation guard on huge alternating terms).
  EXPECT_DOUBLE_EQ(probability_connected(128, 1.0, 1000.0), 0.0);
  EXPECT_DOUBLE_EQ(probability_connected(500, 0.5, 1000.0), 0.0);
}

TEST(ProbabilityConnected1D, ValidatesInput) {
  EXPECT_THROW(probability_connected(0, 1.0, 10.0), ContractViolation);
  EXPECT_THROW(probability_connected(5, 1.0, 0.0), ContractViolation);
  EXPECT_THROW(probability_connected(5, -1.0, 10.0), ContractViolation);
}

TEST(RangeForProbability1D, InvertsTheClosedForm) {
  for (std::uint64_t n : {4u, 16u, 64u}) {
    for (double p : {0.1, 0.5, 0.9, 0.99}) {
      const double r = range_for_probability(n, p, 1.0);
      EXPECT_NEAR(probability_connected(n, r, 1.0), p, 1e-6)
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(RangeForProbability1D, TracksTheoremFiveScale) {
  // The exact threshold range at p = 0.5 should scale as l ln(l) / n for
  // n = sqrt(l): the ratio to the Theorem 5 prediction stays order 1.
  for (double l : {256.0, 4096.0, 65536.0}) {
    const auto n = static_cast<std::uint64_t>(std::sqrt(l));
    const double exact = range_for_probability(n, 0.5, l);
    const double theorem5 =
        theory::connectivity_threshold_range_1d(l, static_cast<double>(n));
    const double ratio = exact / theorem5;
    EXPECT_GT(ratio, 0.2) << "l=" << l;
    EXPECT_LT(ratio, 1.5) << "l=" << l;
  }
}

TEST(RangeForProbability1D, ValidatesInput) {
  EXPECT_THROW(range_for_probability(1, 0.5, 1.0), ContractViolation);
  EXPECT_THROW(range_for_probability(5, 0.0, 1.0), ContractViolation);
  EXPECT_THROW(range_for_probability(5, 1.0, 1.0), ContractViolation);
}

TEST(ExpectedCriticalRange1D, TwoNodesClosedForm) {
  // E|X - Y| for two uniform points on [0, l] is l / 3.
  EXPECT_NEAR(expected_critical_range(2, 1.0), 1.0 / 3.0, 1e-4);
  EXPECT_NEAR(expected_critical_range(2, 30.0), 10.0, 1e-3);
}

TEST(ExpectedCriticalRange1D, MatchesMonteCarlo) {
  Rng rng(2);
  const double l = 100.0;
  const std::uint64_t n = 20;
  const Box1 line(l);
  struct { double total; int count; } sum{0.0, 0};
  for (int t = 0; t < 20000; ++t) {
    const auto points = uniform_deployment(n, line, rng);
    sum.total += critical_range<1>(points, line);
    ++sum.count;
  }
  EXPECT_NEAR(expected_critical_range(n, l), sum.total / sum.count, 0.15);
}

TEST(ExpectedCriticalRange1D, DecreasesWithDensity) {
  EXPECT_GT(expected_critical_range(10, 100.0), expected_critical_range(40, 100.0));
}

}  // namespace
}  // namespace manet
