#include "common/figure_bench.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace manet::bench {
namespace {

std::optional<FigureOptions> parse(std::vector<const char*> args) {
  args.insert(args.begin(), "fig_test");
  return parse_figure_options(static_cast<int>(args.size()), args.data(),
                              "fig_test: flag parsing fixture");
}

TEST(FigureOptions, UnknownFlagThrows) {
  EXPECT_THROW(parse({"--bogus"}), ConfigError);
}

TEST(FigureOptions, RsQuantileOutsideUnitIntervalThrows) {
  EXPECT_THROW(parse({"--rs-quantile", "2"}), ConfigError);
  EXPECT_THROW(parse({"--rs-quantile", "0"}), ConfigError);
}

TEST(FigureOptions, HelpReturnsNullopt) {
  testing::internal::CaptureStdout();
  const auto options = parse({"--help"});
  testing::internal::GetCapturedStdout();
  EXPECT_FALSE(options.has_value());
}

TEST(FigureOptions, ValidArgvParses) {
  const auto options =
      parse({"--preset", "quick", "--seed", "7", "--rs-quantile", "0.9", "--steps", "12", "--csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->preset, Preset::kQuick);
  EXPECT_EQ(options->seed, 7u);
  EXPECT_EQ(options->rs_quantile, 0.9);
  EXPECT_EQ(options->steps, std::optional<std::size_t>{12});
  EXPECT_FALSE(options->iterations.has_value());
  EXPECT_TRUE(options->csv);
  EXPECT_FALSE(options->metrics);
  EXPECT_FALSE(options->campaign);
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Figure 2's sweep at a scale a unit test can afford: the quick preset's
/// stationary reference, 2 iterations of 20 steps per point.
FigureOptions tiny_figure_options() {
  FigureOptions options;
  options.preset = Preset::kQuick;
  options.iterations = 2;
  options.steps = 20;
  return options;
}

TEST(FigureSweep, CampaignAndInProcessAgree) {
  const FigureOptions options = tiny_figure_options();
  InProcessSweepExecutor in_process;
  const LSweep expected =
      solve_l_sweep(options, /*drunkard=*/false, /*with_stationary_reference=*/true, in_process);

  const auto root = std::filesystem::path(::testing::TempDir()) / "figure_sweep_campaign";
  std::filesystem::remove_all(root);
  campaign::CampaignOptions campaign_options;
  campaign_options.dir = (root / "campaign").string();
  campaign_options.store_dir = (root / "store").string();
  campaign_options.quiet = true;
  campaign::CampaignRunner runner("fig_test", campaign_options);
  const LSweep actual =
      solve_l_sweep(options, /*drunkard=*/false, /*with_stationary_reference=*/true, runner);
  std::filesystem::remove_all(root);

  const auto l_values = experiments::figure_l_values();
  ASSERT_EQ(expected.rs.size(), l_values.size());
  ASSERT_EQ(expected.results.size(), l_values.size());
  ASSERT_EQ(actual.results.size(), l_values.size());
  EXPECT_TRUE(bit_identical(expected.rs, actual.rs));
  for (std::size_t li = 0; li < l_values.size(); ++li) {
    EXPECT_TRUE(bit_identical(flatten_mtrm_result(expected.results[li]),
                              flatten_mtrm_result(actual.results[li])))
        << "point " << li;
  }

  // Every point is solve_mtrm on substream(seed, i), with or without the
  // r_stationary draw (Figures 4-5 make none).
  const LSweep drunkard =
      solve_l_sweep(options, /*drunkard=*/true, /*with_stationary_reference=*/false, in_process);
  EXPECT_TRUE(drunkard.rs.empty());
  ASSERT_EQ(drunkard.results.size(), l_values.size());
  for (std::size_t li = 0; li < l_values.size(); ++li) {
    MtrmConfig waypoint_config = experiments::waypoint_experiment(l_values[li], options.preset);
    MtrmConfig drunkard_config = experiments::drunkard_experiment(l_values[li], options.preset);
    apply_scale(waypoint_config, options);
    apply_scale(drunkard_config, options);
    Rng waypoint_rng = substream(options.seed, li);
    Rng drunkard_rng = substream(options.seed, li);
    EXPECT_TRUE(bit_identical(flatten_mtrm_result(solve_mtrm<2>(waypoint_config, waypoint_rng)),
                              flatten_mtrm_result(expected.results[li])))
        << "waypoint point " << li;
    EXPECT_TRUE(bit_identical(flatten_mtrm_result(solve_mtrm<2>(drunkard_config, drunkard_rng)),
                              flatten_mtrm_result(drunkard.results[li])))
        << "drunkard point " << li;
  }
}

}  // namespace
}  // namespace manet::bench
