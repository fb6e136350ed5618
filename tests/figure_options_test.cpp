#include "common/figure_bench.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "support/error.hpp"

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

}  // namespace
}  // namespace manet::bench
