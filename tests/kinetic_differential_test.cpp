// Differential harness pinning the kinetic engine to the batch engine: on
// every step of every trajectory, KineticEmstEngine must produce the SAME
// tree as EmstEngine — same edges, same order, same weight bits — and
// therefore the same bottleneck, weight multiset, breakpoint curve and
// largest-component curve. The sweep covers D in {1,2,3}, waypoint and
// drunkard mobility, clustered / duplicate / boundary-straddling
// configurations, and the engine's fallback paths (radius growth, mass
// cell-crossing steps, hysteresis shrink). run_mobile_trace itself is checked
// against a trace rebuilt from per-step batch solves, and the golden MTRM
// checksums are re-pinned here at 1 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/experiments.hpp"
#include "core/mtrm.hpp"
#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "graph/union_find.hpp"
#include "mobility/factory.hpp"
#include "sim/deployment.hpp"
#include "sim/mobile_trace.hpp"
#include "sim/trace_workspace.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/emst_grid.hpp"
#include "topology/emst_kinetic.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

struct ParallelismGuard {
  ~ParallelismGuard() { set_max_parallelism(0); }
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The strongest possible comparison: the kinetic tree must equal the batch
/// tree element-wise — endpoints AND weight bit patterns — because both run
/// filtered Kruskal under the same strict (d2, u, v) total order (dense
/// inputs are delegated to the identical batch code).
void expect_trees_identical(std::span<const WeightedEdge> batch,
                            std::span<const WeightedEdge> kinetic, std::size_t step) {
  ASSERT_EQ(batch.size(), kinetic.size()) << "step " << step;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].u, kinetic[i].u) << "step " << step << " edge " << i;
    EXPECT_EQ(batch[i].v, kinetic[i].v) << "step " << step << " edge " << i;
    EXPECT_TRUE(bits_equal(batch[i].weight, kinetic[i].weight))
        << "step " << step << " edge " << i << ": " << batch[i].weight
        << " != " << kinetic[i].weight;
  }
  if (!batch.empty()) {
    EXPECT_TRUE(bits_equal(tree_bottleneck(batch), tree_bottleneck(kinetic)));
  }
}

/// Breakpoint curves from both trees must agree bit-for-bit as well (the
/// quantity every MTRM statistic is derived from).
template <int D>
void expect_curves_identical(std::size_t n, std::span<const WeightedEdge> batch,
                             std::span<const WeightedEdge> kinetic, std::size_t step) {
  UnionFind dsu(0);
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  const LargestComponentCurve batch_curve(n, batch, dsu, scratch);
  const LargestComponentCurve kinetic_curve(n, kinetic, dsu, scratch);
  const auto b = batch_curve.breakpoints();
  const auto k = kinetic_curve.breakpoints();
  ASSERT_EQ(b.size(), k.size()) << "step " << step;
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_TRUE(bits_equal(b[i].range, k[i].range)) << "step " << step;
    EXPECT_EQ(b[i].size, k[i].size) << "step " << step;
  }
}

/// Below this n both engines run the same dense Prim, so every trace that
/// is meant to exercise the kinetic repair uses at least this many nodes.
constexpr std::size_t kCutoff = KineticEmstEngine<2>::kDenseCutoff;
static_assert(kCutoff == KineticEmstEngine<1>::kDenseCutoff &&
              kCutoff == KineticEmstEngine<3>::kDenseCutoff);
static_assert(kCutoff <= 140, "raise the kinetic-path node counts below with the cutoff");

/// Drives one mobility trajectory through both engines, comparing every
/// step. Returns the kinetic stats for fallback-path assertions.
template <int D>
KineticStats run_differential_trace(std::size_t n, double side, const MobilityConfig& mobility,
                                    std::size_t steps, std::uint64_t seed) {
  const Box<D> box(side);
  Rng rng(seed);
  auto positions = uniform_deployment(n, box, rng);
  const auto model = make_mobility_model<D>(mobility, box);
  model->initialize(positions, rng);

  EmstEngine<D> batch;
  KineticEmstEngine<D> kinetic;
  for (std::size_t s = 0; s < steps; ++s) {
    if (s > 0) model->step(positions, rng);
    const auto batch_tree = batch.euclidean(positions, box);
    const auto kinetic_tree = s == 0 ? kinetic.start(positions, box) : kinetic.advance(positions);
    expect_trees_identical(batch_tree, kinetic_tree, s);
    expect_curves_identical<D>(n, batch_tree, kinetic_tree, s);
  }
  return kinetic.stats();
}

/// A fast waypoint setup (relative to the paper's gentle defaults) so nodes
/// cross cell boundaries every few steps.
MobilityConfig fast_waypoint(double side) {
  MobilityConfig config;
  config.kind = MobilityKind::kRandomWaypoint;
  config.waypoint.v_min = 0.01 * side;
  config.waypoint.v_max = 0.08 * side;
  config.waypoint.pause_steps = 3;
  config.waypoint.p_stationary = 0.1;
  return config;
}

MobilityConfig fast_drunkard(double side) {
  MobilityConfig config;
  config.kind = MobilityKind::kDrunkard;
  config.drunkard.step_radius = 0.05 * side;
  config.drunkard.p_pause = 0.2;
  config.drunkard.p_stationary = 0.1;
  return config;
}

/// Sparse motion: most nodes permanently parked, the movers still fast. The
/// per-step moved fraction stays well under the engine's mass-move
/// threshold, so steps take the INCREMENTAL repair path — the configuration
/// for tests asserting incremental stats.
MobilityConfig sparse_waypoint(double side) {
  MobilityConfig config = fast_waypoint(side);
  config.waypoint.p_stationary = 0.75;
  return config;
}

TEST(KineticDifferential, WaypointBoxMatchesBatch1D) {
  const auto stats = run_differential_trace<1>(160, 64.0, fast_waypoint(64.0), 120, 11);
  EXPECT_FALSE(stats.dense_mode);
}

TEST(KineticDifferential, WaypointBoxMatchesBatch2D) {
  run_differential_trace<2>(200, 64.0, fast_waypoint(64.0), 120, 12);
  const auto stats = run_differential_trace<2>(200, 64.0, sparse_waypoint(64.0), 120, 12);
  EXPECT_FALSE(stats.dense_mode);
  EXPECT_GT(stats.incremental_repairs, 0u);
  EXPECT_GT(stats.boundary_crossings, 0u);
}

TEST(KineticDifferential, WaypointBoxMatchesBatch3D) {
  run_differential_trace<3>(160, 32.0, fast_waypoint(32.0), 80, 13);
}

TEST(KineticDifferential, DrunkardBoxMatchesBatch1D) {
  const auto stats = run_differential_trace<1>(144, 48.0, fast_drunkard(48.0), 120, 21);
  EXPECT_FALSE(stats.dense_mode);
}

TEST(KineticDifferential, DrunkardBoxMatchesBatch2D) {
  run_differential_trace<2>(180, 64.0, fast_drunkard(64.0), 120, 22);
}

TEST(KineticDifferential, DrunkardBoxMatchesBatch3D) {
  run_differential_trace<3>(140, 24.0, fast_drunkard(24.0), 80, 23);
}

TEST(KineticDifferential, PaperMobilityDefaultsMatchBatch2D) {
  // The paper's own Section 4.2 parameters (gentle motion, long pauses):
  // many steps move nothing or almost nothing — the degenerate-delta path.
  const auto waypoint =
      run_differential_trace<2>(160, 256.0, MobilityConfig::paper_waypoint(256.0), 150, 31);
  const auto drunkard =
      run_differential_trace<2>(160, 256.0, MobilityConfig::paper_drunkard(256.0), 150, 32);
  EXPECT_FALSE(waypoint.dense_mode);
  EXPECT_FALSE(drunkard.dense_mode);
  // The same waypoint defaults at n = 1024 in the paper's l = 1024 region,
  // seed 1, 300 steps: the largest kinetic trace of this suite.
  const auto large =
      run_differential_trace<2>(1024, 1024.0, MobilityConfig::paper_waypoint(1024.0), 300, 1);
  EXPECT_FALSE(large.dense_mode);
  EXPECT_GT(large.incremental_repairs, 0u);
}

TEST(KineticDifferential, PaperFigureShapesMatchBatch2D) {
  // The exact shapes of the paper's Figures 2-3 (and perfbench's
  // paper_figs): n = sqrt(l) for l in {1K, 4K, 16K}, under the paper's
  // waypoint and drunkard defaults, plus l = 64K (n = 256), the first shape
  // above the dense cutoff, where the paper's own mobility drives the
  // kinetic repair. 300 steps cover the all-moving start-up transient, where
  // most nodes move every step and the mover scan and delta sort carry the
  // most pairs.
  for (const double side : {1024.0, 4096.0, 16384.0, 65536.0}) {
    const auto n = static_cast<std::size_t>(std::sqrt(side));
    const auto seed = static_cast<std::uint64_t>(side);
    const KineticStats waypoint = run_differential_trace<2>(
        n, side, MobilityConfig::paper_waypoint(side), 300, seed + 1);
    const KineticStats drunkard = run_differential_trace<2>(
        n, side, MobilityConfig::paper_drunkard(side), 300, seed + 2);
    if (n < kCutoff) {
      EXPECT_TRUE(waypoint.dense_mode) << "side " << side;
      EXPECT_TRUE(drunkard.dense_mode) << "side " << side;
      continue;
    }
    EXPECT_FALSE(waypoint.dense_mode);
    EXPECT_GT(waypoint.incremental_repairs, 0u) << "side " << side;
    EXPECT_GT(drunkard.incremental_repairs, 0u) << "side " << side;
  }
}

TEST(KineticDifferential, ClusteredDeploymentForcesRadiusGrowthAndMatches) {
  // Two tight clusters far apart: the connectivity-scale initial radius
  // cannot bridge the gap, so the start() build must double — and when the
  // clusters drift, the incremental path keeps operating at the grown
  // radius. Drive positions directly to control the geometry.
  const double side = 200.0;
  const Box2 box(side);
  Rng rng(51);
  std::vector<Point2> positions;
  for (std::size_t i = 0; i < 80; ++i) {
    positions.push_back({{rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0)}});
  }
  for (std::size_t i = 0; i < 80; ++i) {
    positions.push_back({{rng.uniform(188.0, 200.0), rng.uniform(188.0, 200.0)}});
  }

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  ASSERT_FALSE(kinetic.stats().dense_mode);
  EXPECT_GT(kinetic.stats().radius_growths, 0u);

  for (std::size_t s = 1; s <= 40; ++s) {
    for (auto& p : positions) {
      p.coords[0] = std::clamp(p.coords[0] + rng.uniform(-1.0, 1.0), 0.0, side);
      if (rng.uniform(0.0, 1.0) < 0.5) continue;  // keep some nodes parked
      p.coords[1] = std::clamp(p.coords[1] + rng.uniform(-1.0, 1.0), 0.0, side);
    }
    expect_trees_identical(batch.euclidean(positions, box), kinetic.advance(positions), s);
  }
}

TEST(KineticDifferential, StretchingGapForcesIncrementalRadiusGrowthAndMatches) {
  // Start connected at the initial radius, then pull the two halves apart a
  // little each step: eventually no candidate edge bridges the gap, the
  // incremental Kruskal stops spanning mid-trace, and the engine must take
  // the growth fallback without changing any result.
  const double side = 400.0;
  const Box2 box(side);
  Rng rng(52);
  std::vector<Point2> positions;
  for (std::size_t i = 0; i < 160; ++i) {
    positions.push_back({{rng.uniform(140.0, 260.0), rng.uniform(0.0, side)}});
  }

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  ASSERT_FALSE(kinetic.stats().dense_mode);
  const std::size_t growths_at_start = kinetic.stats().radius_growths;

  for (std::size_t s = 1; s <= 35; ++s) {
    for (auto& p : positions) {
      const double drift = p.coords[0] < 200.0 ? -4.0 : 4.0;
      p.coords[0] = std::clamp(p.coords[0] + drift, 0.0, side);
    }
    expect_trees_identical(batch.euclidean(positions, box), kinetic.advance(positions), s);
  }
  EXPECT_GT(kinetic.stats().radius_growths, growths_at_start)
      << "the separating halves never forced a mid-trace radius growth";
}

TEST(KineticDifferential, OutlierReturnTriggersHysteresisShrinkAndMatches) {
  // One far outlier inflates the spanning radius at start(); after it walks
  // back into the bulk, the maintained radius sits far above the bottleneck
  // and the hysteresis shrink must fire — with bit-identical results before,
  // during and after.
  const double side = 300.0;
  const Box2 box(side);
  Rng rng(53);
  std::vector<Point2> positions;
  for (std::size_t i = 0; i < 160; ++i) {
    positions.push_back({{rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)}});
  }
  positions.push_back({{290.0, 290.0}});

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  ASSERT_FALSE(kinetic.stats().dense_mode);
  EXPECT_GT(kinetic.stats().radius_growths, 0u);

  for (std::size_t s = 1; s <= 30; ++s) {
    auto& outlier = positions.back();
    outlier.coords[0] = std::max(30.0, outlier.coords[0] - 30.0);
    outlier.coords[1] = std::max(30.0, outlier.coords[1] - 30.0);
    // Jiggle a couple of bulk nodes so the steps are not no-ops.
    for (std::size_t j = 0; j < 4; ++j) {
      auto& p = positions[j];
      p.coords[0] = std::clamp(p.coords[0] + rng.uniform(-0.5, 0.5), 0.0, side);
    }
    expect_trees_identical(batch.euclidean(positions, box), kinetic.advance(positions), s);
  }
  EXPECT_GT(kinetic.stats().radius_shrinks, 0u)
      << "returning outlier never triggered the hysteresis shrink";
}

TEST(KineticDifferential, MassTeleportStepsFallBackAndMatch) {
  // Fresh uniform positions every step: every node moves (waypoint-arrival /
  // redeployment scale), which must take the mass-move rebuild path.
  const double side = 64.0;
  const Box2 box(side);
  Rng rng(54);
  const std::size_t n = 160;
  auto positions = uniform_deployment(n, box, rng);

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  ASSERT_FALSE(kinetic.stats().dense_mode);
  for (std::size_t s = 1; s <= 25; ++s) {
    positions = uniform_deployment(n, box, rng);
    const auto b = batch.euclidean(positions, box);
    const auto k = kinetic.advance(positions);
    expect_trees_identical(b, k, s);
    expect_curves_identical<2>(n, b, k, s);
  }
  EXPECT_GT(kinetic.stats().mass_move_rebuilds, 20u);
}

TEST(KineticDifferential, DuplicateAndBoundaryStraddlingPointsMatch) {
  // Coincident nodes (zero-weight edges, maximal tie pressure on the
  // (d2, u, v) order) and nodes pinned to the region boundary, moving on and
  // off it.
  const double side = 50.0;
  const Box2 box(side);
  Rng rng(55);
  std::vector<Point2> positions;
  for (std::size_t i = 0; i < 60; ++i) {
    const Point2 p{{rng.uniform(0.0, side), rng.uniform(0.0, side)}};
    positions.push_back(p);
    positions.push_back(p);  // exact duplicate
  }
  for (std::size_t i = 0; i < 40; ++i) {
    positions.push_back({{rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : side, rng.uniform(0.0, side)}});
  }

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  ASSERT_FALSE(kinetic.stats().dense_mode);
  for (std::size_t s = 1; s <= 40; ++s) {
    for (std::size_t i = 0; i < positions.size(); i += 3) {
      // Snap to the boundary half the time, drift otherwise.
      positions[i].coords[0] =
          rng.uniform(0.0, 1.0) < 0.5
              ? (rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : side)
              : std::clamp(positions[i].coords[0] + rng.uniform(-2.0, 2.0), 0.0, side);
    }
    const auto b = batch.euclidean(positions, box);
    const auto k = kinetic.advance(positions);
    expect_trees_identical(b, k, s);
    expect_curves_identical<2>(positions.size(), b, k, s);
  }
}

TEST(KineticDifferential, RandomizedConfigSweep) {
  // Randomized fuzz over the whole configuration space: dimension, node
  // count (straddling the dense cutoff, mostly above it), region size, model.
  Rng meta(0xD1FFull);
  for (int round = 0; round < 24; ++round) {
    const int d = 1 + static_cast<int>(meta.next_u64() % 3);
    const std::size_t n = kCutoff - 8 + meta.next_u64() % 200;
    const double side = 16.0 + meta.uniform(0.0, 80.0);
    const bool waypoint = (meta.next_u64() & 1) != 0;
    const std::size_t steps = 25 + meta.next_u64() % 30;
    const std::uint64_t seed = meta.next_u64();
    const MobilityConfig mobility = waypoint ? fast_waypoint(side) : fast_drunkard(side);
    SCOPED_TRACE(::testing::Message() << "round=" << round << " d=" << d << " n=" << n
                                      << " side=" << side << " waypoint=" << waypoint);
    if (d == 1) {
      run_differential_trace<1>(n, side, mobility, steps, seed);
    } else if (d == 2) {
      run_differential_trace<2>(n, side, mobility, steps, seed);
    } else {
      run_differential_trace<3>(n, side, mobility, steps, seed);
    }
  }
}

/// Replays run_mobile_trace's deployment and mobility draws for `seed` and
/// builds the trace from a fresh batch EmstEngine solve per step: the
/// reference the kinetic trace must reproduce bit for bit.
template <int D>
MobileConnectivityTrace batch_reference_trace(std::size_t n, const Box<D>& box,
                                              const MobilityConfig& mobility, std::size_t steps,
                                              std::uint64_t seed) {
  Rng rng(seed);
  auto positions = uniform_deployment(n, box, rng);
  const auto model = make_mobility_model<D>(mobility, box);
  model->initialize(positions, rng);
  EmstEngine<D> batch;
  UnionFind dsu(0);
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  std::vector<LargestComponentCurve> curves;
  for (std::size_t s = 0; s < steps; ++s) {
    if (s > 0) model->step(positions, rng);
    curves.emplace_back(n, batch.euclidean(positions, box), dsu, scratch);
  }
  return MobileConnectivityTrace(n, std::move(curves));
}

template <int D>
void check_trace_matches_batch_reference(std::size_t n, double side,
                                         const MobilityConfig& mobility, std::size_t steps,
                                         std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "D=" << D << " n=" << n);
  const Box<D> box(side);
  Rng rng(seed);
  const auto model = make_mobility_model<D>(mobility, box);
  TraceWorkspace<D> ws;
  const auto trace = run_mobile_trace<D>(n, box, steps, *model, rng, &ws);
  const auto reference = batch_reference_trace<D>(n, box, mobility, steps, seed);

  const auto timeline = trace.critical_radius_timeline();
  const auto expected = reference.critical_radius_timeline();
  ASSERT_EQ(timeline.size(), expected.size());
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_TRUE(bits_equal(timeline[i], expected[i])) << "step " << i;
  }
  EXPECT_TRUE(bits_equal(trace.range_for_mean_component_fraction(0.9),
                         reference.range_for_mean_component_fraction(0.9)));
}

TEST(KineticDifferential, RunMobileTraceMatchesPerStepBatchReference) {
  check_trace_matches_batch_reference<1>(160, 64.0, fast_waypoint(64.0), 60, 61);
  check_trace_matches_batch_reference<2>(160, 96.0, fast_waypoint(96.0), 60, 62);
  check_trace_matches_batch_reference<3>(140, 32.0, fast_drunkard(32.0), 60, 63);
  // Below kDenseCutoff the kinetic engine delegates every step to its
  // embedded batch engine.
  static_assert(20 < KineticEmstEngine<2>::kDenseCutoff);
  check_trace_matches_batch_reference<2>(20, 64.0, fast_drunkard(64.0), 60, 64);
}

std::uint64_t mtrm_checksum(const MtrmConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  return fnv1a_bits(flatten_mtrm_result(solve_mtrm<2>(config, rng)));
}

/// Runs one trace of `config` through a TraceWorkspace and returns its
/// kinetic engine's counters.
KineticStats trace_stats(const MtrmConfig& config, std::uint64_t seed) {
  const Box<2> region(config.side);
  const auto model = make_mobility_model<2>(config.mobility, region);
  Rng rng(seed);
  TraceWorkspace<2> ws;
  run_mobile_trace<2>(config.node_count, region, config.steps, *model, rng, &ws);
  return ws.kinetic.stats();
}

// The golden digests of tests/determinism_test.cpp, re-pinned here through
// the kinetic trace path at 1 and 8 threads: a kinetic regression shows up
// in this suite next to the differential tests that localize it. Those
// configs (n = 16) are below kDenseCutoff and solve dense, so two more at
// paper density l = 65536 (n = 256) pin the incremental repair end to end;
// their traces must really have been served by it.
TEST(KineticDifferential, GoldenChecksumsHoldThroughKineticPathAtOneAndEightThreads) {
  const ParallelismGuard parallelism_guard;

  const MtrmConfig waypoint = experiments::waypoint_experiment(256.0, Preset::kQuick);
  const MtrmConfig drunkard = experiments::drunkard_experiment(256.0, Preset::kQuick);
  const MtrmConfig paper_waypoint = experiments::waypoint_experiment(65536.0, Preset::kQuick);
  const MtrmConfig paper_drunkard = experiments::drunkard_experiment(65536.0, Preset::kQuick);
  ASSERT_GE(paper_waypoint.node_count, KineticEmstEngine<2>::kDenseCutoff);
  for (const MtrmConfig* config : {&paper_waypoint, &paper_drunkard}) {
    const KineticStats stats = trace_stats(*config, 77);
    EXPECT_FALSE(stats.dense_mode);
    EXPECT_GT(stats.incremental_repairs, config->steps / 2)
        << "of " << config->steps << " steps";
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    set_max_parallelism(threads);
    EXPECT_EQ(hex_u64(mtrm_checksum(waypoint, 20020623)), hex_u64(0x7f15b5b64209b3a3ull))
        << "threads=" << threads;
    EXPECT_EQ(hex_u64(mtrm_checksum(drunkard, 20020623)), hex_u64(0xca0fd93f2a6598c4ull))
        << "threads=" << threads;
    EXPECT_EQ(hex_u64(mtrm_checksum(paper_waypoint, 20020623)), hex_u64(0xee254c701281b00dull))
        << "threads=" << threads;
    EXPECT_EQ(hex_u64(mtrm_checksum(paper_drunkard, 20020623)), hex_u64(0x6bc6469927fd9da4ull))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace manet
