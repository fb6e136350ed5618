#include "core/energy.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/error.hpp"

namespace manet {
namespace {

TEST(EnergyModel, DefaultIsQuadratic) {
  const EnergyModel model;
  EXPECT_DOUBLE_EQ(model.alpha(), 2.0);
  EXPECT_DOUBLE_EQ(model.transmit_power(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.transmit_power(1.0), 1.0);
  EXPECT_DOUBLE_EQ(model.transmit_power(3.0), 9.0);
}

TEST(EnergyModel, CustomPathLossExponent) {
  const EnergyModel model(4.0);
  EXPECT_DOUBLE_EQ(model.transmit_power(2.0), 16.0);
}

TEST(EnergyModel, RejectsAlphaBelowOne) {
  EXPECT_THROW(EnergyModel(0.5), ConfigError);
  // Non-finite exponents: !(inf >= 1) is false, so inf needs its own check.
  EXPECT_THROW(EnergyModel(std::numeric_limits<double>::infinity()), ConfigError);
  EXPECT_THROW(EnergyModel(std::numeric_limits<double>::quiet_NaN()), ConfigError);
}

TEST(EnergyModel, NetworkPowerScalesWithNodes) {
  const EnergyModel model;
  EXPECT_DOUBLE_EQ(model.network_power(10, 2.0), 40.0);
  EXPECT_DOUBLE_EQ(model.network_power(0, 2.0), 0.0);
}

TEST(EnergyModel, SavingsMatchPaperScenarios) {
  const EnergyModel model;
  // Section 4.2: r90 is "about 35-40% smaller" than r100 -> at 0.62 of
  // r100 the energy drops by ~62%.
  EXPECT_NEAR(model.savings(1.0, 0.62), 1.0 - 0.62 * 0.62, 1e-12);
  // r10 ~55-60% smaller -> at 0.42 the saving is ~82%.
  EXPECT_NEAR(model.savings(1.0, 0.42), 1.0 - 0.42 * 0.42, 1e-12);
}

TEST(EnergyModel, SavingsBounds) {
  const EnergyModel model;
  EXPECT_DOUBLE_EQ(model.savings(5.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(model.savings(5.0, 0.0), 1.0);
  // ConfigError, not a contract: these are user-facing measured quantities,
  // and the validation must fire in Release builds too (this test runs in
  // every CI build mode — it is the Release regression, not a death test).
  EXPECT_THROW(model.savings(0.0, 0.0), ConfigError);
  EXPECT_THROW(model.savings(0.0, 1.0), ConfigError);
  EXPECT_THROW(model.savings(1.0, 2.0), ConfigError);
  EXPECT_THROW(model.savings(1.0, -0.1), ConfigError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(model.savings(nan, 0.5), ConfigError);
  EXPECT_THROW(model.savings(1.0, nan), ConfigError);
}

TEST(EnergyModel, TransmitPowerRejectsNegativeRange) {
  const EnergyModel model;
  EXPECT_THROW(model.transmit_power(-1.0), ConfigError);
  EXPECT_THROW(model.transmit_power(std::numeric_limits<double>::quiet_NaN()), ConfigError);
}

}  // namespace
}  // namespace manet
