#include "core/mtr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "sim/deployment.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

TEST(MtrOptions, Validation) {
  MtrOptions zero_trials;
  zero_trials.trials = 0;
  EXPECT_THROW(zero_trials.validate(), ConfigError);

  MtrOptions bad_prob;
  bad_prob.target_probability = 0.0;
  EXPECT_THROW(bad_prob.validate(), ConfigError);
  bad_prob.target_probability = 1.5;
  EXPECT_THROW(bad_prob.validate(), ConfigError);

  MtrOptions ok;
  EXPECT_NO_THROW(ok.validate());
}

TEST(EstimateMtr, ResultConnectsTheTargetFraction) {
  Rng rng(1);
  const Box2 box(100.0);
  MtrOptions options;
  options.trials = 300;
  options.target_probability = 0.9;
  const MtrEstimate estimate = estimate_mtr<2>(30, box, options, rng);

  // Fresh deployments: the estimated range must connect roughly 90%.
  Rng check_rng(2);
  int connected = 0;
  const int checks = 300;
  for (int t = 0; t < checks; ++t) {
    const auto points = uniform_deployment(30, box, check_rng);
    const UnitDiskLinkModel link(estimate.range);
    if (analyze_link_components<2>(points, box, link).connected()) ++connected;
  }
  const double fraction = static_cast<double>(connected) / checks;
  EXPECT_NEAR(fraction, 0.9, 0.07);
}

TEST(EstimateMtr, HigherTargetNeedsLargerRange) {
  Rng rng(3);
  const Box2 box(100.0);
  MtrOptions median;
  median.trials = 400;
  median.target_probability = 0.5;
  MtrOptions strict;
  strict.trials = 400;
  strict.target_probability = 0.99;
  const double r_median = estimate_mtr<2>(25, box, median, rng).range;
  const double r_strict = estimate_mtr<2>(25, box, strict, rng).range;
  EXPECT_LT(r_median, r_strict);
}

TEST(EstimateMtr, MeanIsBelowHighQuantile) {
  Rng rng(4);
  const Box2 box(100.0);
  MtrOptions options;
  options.trials = 200;
  const MtrEstimate estimate = estimate_mtr<2>(20, box, options, rng);
  EXPECT_LT(estimate.mean_critical_range, estimate.range);
  EXPECT_EQ(estimate.trials, 200u);
  EXPECT_DOUBLE_EQ(estimate.target_probability, 0.99);
}

TEST(EstimateMtr, ScalesDownWithDensityIn2D) {
  // Denser networks need shorter ranges: r ~ sqrt(l^2 log n / n) in 2-D.
  Rng rng(5);
  const Box2 box(100.0);
  MtrOptions options;
  options.trials = 150;
  const double r_sparse = estimate_mtr<2>(10, box, options, rng).range;
  const double r_dense = estimate_mtr<2>(160, box, options, rng).range;
  EXPECT_LT(r_dense, r_sparse);
}

TEST(EstimateMtr, OneDimensionTracksTheoremFiveShape) {
  // For fixed n = sqrt(l), r_stationary should grow roughly like
  // l log l / n; check the ratio between two sizes is closer to the
  // Theorem 5 prediction than to a linear-in-l prediction.
  Rng rng(6);
  MtrOptions options;
  options.trials = 400;

  const double l_small = 256.0;
  const double l_large = 4096.0;
  const Box1 small_box(l_small);
  const Box1 large_box(l_large);
  const auto n_small = static_cast<std::size_t>(std::sqrt(l_small));
  const auto n_large = static_cast<std::size_t>(std::sqrt(l_large));

  const double r_small = estimate_mtr<1>(n_small, small_box, options, rng).range;
  const double r_large = estimate_mtr<1>(n_large, large_box, options, rng).range;

  const double measured_ratio = r_large / r_small;
  const double theorem5_ratio = (l_large * std::log(l_large) / n_large) /
                                (l_small * std::log(l_small) / n_small);
  const double linear_ratio = l_large / l_small;
  EXPECT_LT(std::abs(measured_ratio - theorem5_ratio),
            std::abs(measured_ratio - linear_ratio));
}

TEST(EstimateMtr, RejectsZeroNodes) {
  Rng rng(7);
  const Box2 box(10.0);
  EXPECT_THROW(estimate_mtr<2>(0, box, MtrOptions{}, rng), ContractViolation);
}

}  // namespace
}  // namespace manet
