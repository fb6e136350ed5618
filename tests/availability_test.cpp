#include "core/availability.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/error.hpp"
#include "support/reference_mst.hpp"
#include "topology/critical_range.hpp"

namespace manet {
namespace {

MobileConnectivityTrace two_step_trace() {
  // Step A: 3 nodes at 0, 1, 2 (rc = 1); step B: 3 nodes at 0, 1, 5 (rc = 4).
  std::vector<LargestComponentCurve> curves;
  const std::vector<Point1> step_a = {{{0.0}}, {{1.0}}, {{2.0}}};
  const std::vector<Point1> step_b = {{{0.0}}, {{1.0}}, {{5.0}}};
  curves.emplace_back(step_a.size(), euclidean_mst<1>(step_a));
  curves.emplace_back(step_b.size(), euclidean_mst<1>(step_b));
  return MobileConnectivityTrace(3, std::move(curves));
}

TEST(EvaluateAvailability, FullConnectivityAtLargeRange) {
  const auto trace = two_step_trace();
  const AvailabilityReport report = evaluate_availability(trace, 4.0, 0.5);
  EXPECT_DOUBLE_EQ(report.full_availability, 1.0);
  EXPECT_DOUBLE_EQ(report.degraded_availability, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_component_when_down, 1.0);
}

TEST(EvaluateAvailability, IntermediateRangeSplitsModes) {
  // At r = 1: step A connected; step B has components {0,1} and {5}.
  const auto trace = two_step_trace();
  const AvailabilityReport report = evaluate_availability(trace, 1.0, 0.6);
  EXPECT_DOUBLE_EQ(report.full_availability, 0.5);
  // Step B's largest component is 2/3 >= 0.6 -> degraded availability 1.
  EXPECT_DOUBLE_EQ(report.degraded_availability, 1.0);
  EXPECT_NEAR(report.mean_component_when_down, 2.0 / 3.0, 1e-12);
}

TEST(EvaluateAvailability, DegradedStricterThanComponentFraction) {
  const auto trace = two_step_trace();
  // phi = 0.9: step B's 2/3 component no longer qualifies.
  const AvailabilityReport report = evaluate_availability(trace, 1.0, 0.9);
  EXPECT_DOUBLE_EQ(report.degraded_availability, 0.5);
}

TEST(EvaluateAvailability, DegradedAtLeastFull) {
  const auto trace = two_step_trace();
  for (double r : {0.5, 1.0, 2.0, 4.0}) {
    for (double phi : {0.3, 0.6, 0.9, 1.0}) {
      const AvailabilityReport report = evaluate_availability(trace, r, phi);
      EXPECT_GE(report.degraded_availability, report.full_availability)
          << "r=" << r << " phi=" << phi;
    }
  }
}

TEST(EvaluateAvailability, EchoesInputs) {
  const auto trace = two_step_trace();
  const AvailabilityReport report = evaluate_availability(trace, 2.0, 0.7);
  EXPECT_DOUBLE_EQ(report.range, 2.0);
  EXPECT_DOUBLE_EQ(report.phi, 0.7);
}

TEST(EvaluateAvailability, ValidatesArguments) {
  const auto trace = two_step_trace();
  EXPECT_THROW(evaluate_availability(trace, -1.0, 0.5), ContractViolation);
  EXPECT_THROW(evaluate_availability(trace, 1.0, 0.0), ContractViolation);
  EXPECT_THROW(evaluate_availability(trace, 1.0, 1.5), ContractViolation);
}

}  // namespace
}  // namespace manet
