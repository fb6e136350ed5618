#include "topology/range_assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "geometry/box.hpp"
#include "sim/deployment.hpp"
#include "support/error.hpp"
#include "support/reference_mst.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/emst_grid.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

TEST(RangeAssignment, CostAndMaxRange) {
  const RangeAssignment assignment({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(assignment.cost(2.0), 1.0 + 4.0 + 9.0);
  EXPECT_DOUBLE_EQ(assignment.cost(1.0), 6.0);
  EXPECT_DOUBLE_EQ(assignment.max_range(), 3.0);
  EXPECT_EQ(assignment.node_count(), 3u);
  EXPECT_DOUBLE_EQ(assignment.range(1), 2.0);
}

TEST(RangeAssignment, RejectsNegativeRangesAndBadAlpha) {
  // ConfigError (thrown in every build mode): ranges and alpha arrive
  // straight from user configuration. This is the Release-build regression
  // for the validation — no death tests involved.
  EXPECT_THROW(RangeAssignment({1.0, -0.5}), ConfigError);
  EXPECT_THROW(RangeAssignment({-1.0}), ConfigError);
  EXPECT_THROW(RangeAssignment({std::numeric_limits<double>::quiet_NaN()}), ConfigError);
  const RangeAssignment ok({1.0});
  EXPECT_THROW(ok.cost(0.5), ConfigError);
  EXPECT_THROW(ok.cost(std::numeric_limits<double>::infinity()), ConfigError);
  EXPECT_THROW(ok.cost(std::numeric_limits<double>::quiet_NaN()), ConfigError);
  // Out-of-bounds node index stays a programmer contract, not user config.
  EXPECT_THROW(ok.range(1), ContractViolation);
}

TEST(RangeAssignment, EmptyAssignment) {
  const RangeAssignment empty{std::vector<double>{}};
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_DOUBLE_EQ(empty.cost(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max_range(), 0.0);
}

TEST(HomogeneousAssignment, EveryNodeGetsTheCriticalRange) {
  const std::vector<Point1> points = {{{0.0}}, {{1.0}}, {{4.0}}};
  const RangeAssignment assignment = homogeneous_assignment<1>(points, Box1(4.0));
  ASSERT_EQ(assignment.node_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(assignment.range(i), 3.0);
}

TEST(MstAssignment, HandComputedLine) {
  // Points at 0, 1, 4: MST edges (0-1, w=1), (1-2, w=3).
  const std::vector<Point1> points = {{{0.0}}, {{1.0}}, {{4.0}}};
  const RangeAssignment assignment = mst_assignment<1>(points, Box1(4.0));
  EXPECT_DOUBLE_EQ(assignment.range(0), 1.0);  // incident: edge of weight 1
  EXPECT_DOUBLE_EQ(assignment.range(1), 3.0);  // incident: weights 1 and 3
  EXPECT_DOUBLE_EQ(assignment.range(2), 3.0);
}

TEST(MstAssignment, SymmetricGraphIsAlwaysConnected) {
  Rng rng(1);
  const Box2 box(100.0);
  for (int trial = 0; trial < 20; ++trial) {
    const auto points = uniform_deployment(30, box, rng);
    const RangeAssignment assignment = mst_assignment<2>(points, box);
    EXPECT_TRUE(symmetric_graph_connected<2>(points, assignment)) << "trial " << trial;
  }
}

TEST(MstAssignment, NeverCostsMoreThanHomogeneous) {
  Rng rng(2);
  const Box2 box(100.0);
  for (int trial = 0; trial < 20; ++trial) {
    const auto points = uniform_deployment(25, box, rng);
    const double homogeneous = homogeneous_assignment<2>(points, box).cost();
    const double per_node = mst_assignment<2>(points, box).cost();
    EXPECT_LE(per_node, homogeneous + 1e-9);
  }
}

TEST(MstAssignment, MaxRangeEqualsCriticalRange) {
  Rng rng(3);
  const Box2 box(80.0);
  const auto points = uniform_deployment(20, box, rng);
  const RangeAssignment assignment = mst_assignment<2>(points, box);
  EXPECT_NEAR(assignment.max_range(), critical_range<2>(points, box), 1e-12);
}

// The boxed assignments solve through EmstEngine; their ranges must be
// bit-equal to assignments built from the dense reference MST, on both the
// engine's dense path (n < kDenseCutoff) and its grid path. A per-node range
// depends on which tree was chosen, not only on its weights, so the last
// dense-size trial is a lattice whose MSTs differ in their per-node ranges:
// in 1-D every site holds two coincident nodes (which of the two carries
// the edge to the next site is a tie), in 2-D rows 0.5 apart along x and
// 0.75 apart along y (which column carries each 0.75 edge is a tie). Only
// the reference's tie rule (smallest vertex id) gives the same ranges.
template <int D>
void expect_assignments_match_dense_reference(std::uint64_t seed) {
  Rng rng(seed);
  const Box<D> box(100.0);
  constexpr std::size_t kCutoff = EmstEngine<D>::kDenseCutoff;
  for (std::size_t n : {std::size_t{2}, kCutoff - 1, kCutoff, 4 * kCutoff}) {
    for (int trial = 0; trial < 6; ++trial) {
      const bool lattice = trial == 5;
      if (lattice && n >= kCutoff) continue;
      auto points = uniform_deployment<D>(n, box, rng);
      if (lattice) {
        for (std::size_t i = 0; i < n; ++i) {
          if constexpr (D == 1) {
            points[i].coords[0] = 0.5 * static_cast<double>(i / 2);
          } else {
            points[i].coords[0] = 0.5 * static_cast<double>(i % 12);
            points[i].coords[1] = 0.75 * static_cast<double>(i / 12);
          }
        }
      }
      const auto reference = euclidean_mst<D>(points);
      std::vector<double> per_node(n, 0.0);
      for (const WeightedEdge& e : reference) {
        per_node[e.u] = std::max(per_node[e.u], e.weight);
        per_node[e.v] = std::max(per_node[e.v], e.weight);
      }
      const RangeAssignment mst = mst_assignment<D>(points, box);
      const RangeAssignment common = homogeneous_assignment<D>(points, box);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(mst.range(i), per_node[i]) << "D=" << D << " n=" << n << " node " << i;
        EXPECT_EQ(common.range(i), tree_bottleneck(reference)) << "D=" << D << " n=" << n;
      }
    }
  }
}

TEST(MstAssignment, BoxedAssignmentsMatchDenseReferenceBitwise) {
  expect_assignments_match_dense_reference<1>(61);
  expect_assignments_match_dense_reference<2>(62);
}

TEST(SymmetricGraphConnected, ShrinkingOneRangeBreaksConnectivity) {
  // Chain 0-1-2: shrink the middle node's range below the long edge.
  const std::vector<Point1> points = {{{0.0}}, {{1.0}}, {{4.0}}};
  RangeAssignment ok({1.0, 3.0, 3.0});
  EXPECT_TRUE(symmetric_graph_connected<1>(points, ok));

  RangeAssignment broken({1.0, 2.0, 3.0});  // min(2,3) = 2 < 3 on edge 1-2
  EXPECT_FALSE(symmetric_graph_connected<1>(points, broken));
}

TEST(SymmetricGraphConnected, TrivialSizes) {
  const std::vector<Point2> none;
  EXPECT_TRUE(symmetric_graph_connected<2>(none, RangeAssignment{std::vector<double>{}}));
  const std::vector<Point2> one = {{{1.0, 1.0}}};
  EXPECT_TRUE(symmetric_graph_connected<2>(one, RangeAssignment({0.0})));
}

TEST(SymmetricGraphConnected, RejectsSizeMismatch) {
  const std::vector<Point2> two = {{{0.0, 0.0}}, {{1.0, 1.0}}};
  EXPECT_THROW(symmetric_graph_connected<2>(two, RangeAssignment({1.0})),
               ContractViolation);
}

struct SavingsAccumulator {
  double sum;
  int count;
};

TEST(PerNodeAssignmentSavings, PositiveForRandomDeployments) {
  Rng rng(4);
  const Box2 box(100.0);
  SavingsAccumulator total{0.0, 0};
  for (int trial = 0; trial < 20; ++trial) {
    const auto points = uniform_deployment(30, box, rng);
    const double savings = per_node_assignment_savings<2>(points, box);
    EXPECT_GE(savings, 0.0);
    EXPECT_LT(savings, 1.0);
    total.sum += savings;
    ++total.count;
  }
  // Per-node ranges should save a substantial fraction of the homogeneous
  // energy on average (typically 40-70% at alpha = 2).
  EXPECT_GT(total.sum / total.count, 0.2);
}

TEST(PerNodeAssignmentSavings, ZeroForTrivialInputs) {
  const std::vector<Point2> one = {{{1.0, 1.0}}};
  EXPECT_DOUBLE_EQ(per_node_assignment_savings<2>(one, Box2(10.0)), 0.0);
}

TEST(PerNodeAssignmentSavings, GrowWithPathLossExponent) {
  Rng rng(5);
  const Box2 box(100.0);
  const auto points = uniform_deployment(30, box, rng);
  const double at_2 = per_node_assignment_savings<2>(points, box, 2.0);
  const double at_4 = per_node_assignment_savings<2>(points, box, 4.0);
  EXPECT_GT(at_4, at_2);
}

}  // namespace
}  // namespace manet
