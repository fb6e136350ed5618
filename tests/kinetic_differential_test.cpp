// Differential harness pinning the mobile-trace engine to the test-only
// reference MST (tests/support/reference_mst.hpp). run_mobile_trace solves
// every step through its workspace's engine (TraceWorkspace::kinetic, one
// EmstEngine::euclidean solve per step; the suite keeps the name of the
// incremental repair that engine replaced). On every step of every
// trajectory the engine's tree must equal the reference tree edge for edge,
// with the same weight bits, and so must the breakpoint curve built from it.
// Trajectories run on both sides of EmstEngine::kDenseCutoff, so the dense
// Prim path and the grid path are both pinned; the sweep covers D in
// {1, 2, 3}, waypoint and drunkard mobility and duplicate /
// boundary-straddling configurations. run_mobile_trace itself is checked
// against a trace rebuilt from per-step reference solves, and the golden
// MTRM checksums are re-pinned here at 1 and 8 threads, next to one
// run_mobile_trace digest above the cutoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
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
#include "support/reference_mst.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/emst_grid.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

struct ParallelismGuard {
  ~ParallelismGuard() { set_max_parallelism(0); }
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The tree as an edge set: endpoints ordered within each edge, edges in
/// (weight, u, v) order. The engine emits (d2, u, v) order and the reference
/// Prim order, and the grid path orients an edge by id where Prim orients it
/// from the tree; the edge sets are what must agree.
std::vector<WeightedEdge> edge_set(std::span<const WeightedEdge> tree) {
  std::vector<WeightedEdge> edges(tree.begin(), tree.end());
  for (WeightedEdge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  return edges;
}

/// The engine's tree must be the reference tree: the same edges with the
/// same weight bits. With distinct pairwise distances the MST is unique, so
/// both paths owe this; ties (coincident points) may let the grid path's
/// filtered Kruskal and the reference Prim pick different, equally minimal
/// trees, so `edge_for_edge = false` compares the weight multiset only.
void expect_trees_identical(std::span<const WeightedEdge> reference,
                            std::span<const WeightedEdge> engine, std::size_t step,
                            bool edge_for_edge = true) {
  const auto expected = edge_set(reference);
  const auto actual = edge_set(engine);
  ASSERT_EQ(expected.size(), actual.size()) << "step " << step;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(bits_equal(expected[i].weight, actual[i].weight))
        << "step " << step << " edge " << i << ": " << expected[i].weight
        << " != " << actual[i].weight;
    if (!edge_for_edge) continue;
    EXPECT_EQ(expected[i].u, actual[i].u) << "step " << step << " edge " << i;
    EXPECT_EQ(expected[i].v, actual[i].v) << "step " << step << " edge " << i;
  }
  // The engine's output contract: ascending weights.
  EXPECT_TRUE(std::is_sorted(engine.begin(), engine.end(),
                             [](const WeightedEdge& a, const WeightedEdge& b) {
                               return a.weight < b.weight;
                             }))
      << "step " << step;
  if (!reference.empty()) {
    EXPECT_TRUE(bits_equal(tree_bottleneck(reference), tree_bottleneck(engine)));
  }
}

/// Breakpoint curves from both trees must agree bit for bit as well (the
/// quantity every MTRM statistic is derived from).
void expect_curves_identical(std::size_t n, std::span<const WeightedEdge> reference,
                             std::span<const WeightedEdge> engine, std::size_t step) {
  UnionFind dsu(0);
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  const LargestComponentCurve reference_curve(n, std::vector<WeightedEdge>(
                                                     reference.begin(), reference.end()));
  const LargestComponentCurve engine_curve(n, engine, dsu, scratch);
  const auto r = reference_curve.breakpoints();
  const auto e = engine_curve.breakpoints();
  ASSERT_EQ(r.size(), e.size()) << "step " << step;
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_TRUE(bits_equal(r[i].range, e[i].range)) << "step " << step;
    EXPECT_EQ(r[i].size, e[i].size) << "step " << step;
  }
}

constexpr std::size_t kCutoff = EmstEngine<2>::kDenseCutoff;
static_assert(kCutoff == EmstEngine<1>::kDenseCutoff && kCutoff == EmstEngine<3>::kDenseCutoff);
static_assert(kCutoff <= 900, "raise the grid-path node counts below with the cutoff");

/// Drives one mobility trajectory through a trace workspace's engine, the
/// way run_mobile_trace does, comparing every step with the reference.
/// Asserts that every step took the path n selects, and returns the
/// engine's counters.
template <int D>
KineticStats run_differential_trace(std::size_t n, double side, const MobilityConfig& mobility,
                                    std::size_t steps, std::uint64_t seed) {
  const Box<D> box(side);
  Rng rng(seed);
  auto positions = uniform_deployment(n, box, rng);
  const auto model = make_mobility_model<D>(mobility, box);
  model->initialize(positions, rng);

  TraceWorkspace<D> ws;
  for (std::size_t s = 0; s < steps; ++s) {
    if (s > 0) model->step(positions, rng);
    const auto reference = euclidean_mst<D>(positions);
    const auto tree = s == 0 ? ws.kinetic.start(positions, box) : ws.kinetic.advance(positions);
    EXPECT_EQ(ws.kinetic.stats().dense_mode, n < kCutoff) << "step " << s;
    expect_trees_identical(reference, tree, s);
    expect_curves_identical(n, reference, tree, s);
  }
  return ws.kinetic.stats();
}

/// A fast waypoint setup (relative to the paper's gentle defaults) so nodes
/// cross grid cells every few steps.
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

TEST(KineticDifferential, WaypointBoxMatchesBatch1D) {
  run_differential_trace<1>(160, 64.0, fast_waypoint(64.0), 120, 11);
  const auto stats = run_differential_trace<1>(1000, 64.0, fast_waypoint(64.0), 60, 11);
  EXPECT_FALSE(stats.dense_mode);
  EXPECT_EQ(stats.full_rebuilds, 60u);
}

TEST(KineticDifferential, WaypointBoxMatchesBatch2D) {
  run_differential_trace<2>(200, 64.0, fast_waypoint(64.0), 120, 12);
  const auto stats = run_differential_trace<2>(1000, 64.0, fast_waypoint(64.0), 60, 12);
  EXPECT_FALSE(stats.dense_mode);
}

TEST(KineticDifferential, WaypointBoxMatchesBatch3D) {
  run_differential_trace<3>(160, 32.0, fast_waypoint(32.0), 80, 13);
  run_differential_trace<3>(960, 32.0, fast_waypoint(32.0), 40, 13);
}

TEST(KineticDifferential, DrunkardBoxMatchesBatch1D) {
  run_differential_trace<1>(144, 48.0, fast_drunkard(48.0), 120, 21);
  const auto stats = run_differential_trace<1>(1000, 48.0, fast_drunkard(48.0), 60, 21);
  EXPECT_FALSE(stats.dense_mode);
}

TEST(KineticDifferential, DrunkardBoxMatchesBatch2D) {
  run_differential_trace<2>(180, 64.0, fast_drunkard(64.0), 120, 22);
  run_differential_trace<2>(1000, 64.0, fast_drunkard(64.0), 60, 22);
}

TEST(KineticDifferential, DrunkardBoxMatchesBatch3D) {
  run_differential_trace<3>(140, 24.0, fast_drunkard(24.0), 80, 23);
  run_differential_trace<3>(960, 24.0, fast_drunkard(24.0), 40, 23);
}

TEST(KineticDifferential, PaperMobilityDefaultsMatchBatch2D) {
  // The paper's own Section 4.2 parameters (gentle motion, long pauses):
  // many steps move nothing or almost nothing.
  const auto waypoint =
      run_differential_trace<2>(160, 256.0, MobilityConfig::paper_waypoint(256.0), 150, 31);
  const auto drunkard =
      run_differential_trace<2>(160, 256.0, MobilityConfig::paper_drunkard(256.0), 150, 32);
  EXPECT_TRUE(waypoint.dense_mode);
  EXPECT_TRUE(drunkard.dense_mode);
  // The same waypoint defaults at n = 1024 in the paper's l = 1024 region,
  // seed 1, 300 steps: the largest trace of this suite, all on the grid path.
  const auto large =
      run_differential_trace<2>(1024, 1024.0, MobilityConfig::paper_waypoint(1024.0), 300, 1);
  EXPECT_FALSE(large.dense_mode);
  EXPECT_EQ(large.full_rebuilds, 300u);
}

TEST(KineticDifferential, PaperFigureShapesMatchBatch2D) {
  // The exact shapes of the paper's Figures 2-3 (and perfbench's
  // paper_figs): n = sqrt(l) for l in {1K, 4K, 16K}, under the paper's
  // waypoint and drunkard defaults, plus l = 64K (n = 256) and l = 1M
  // (n = 1024, the first such shape above the dense cutoff). The traces
  // cover the all-moving start-up transient.
  for (const double side : {1024.0, 4096.0, 16384.0, 65536.0, 1048576.0}) {
    const auto n = static_cast<std::size_t>(std::sqrt(side));
    const auto seed = static_cast<std::uint64_t>(side);
    const std::size_t steps = n < kCutoff ? 300 : 100;
    const KineticStats waypoint = run_differential_trace<2>(
        n, side, MobilityConfig::paper_waypoint(side), steps, seed + 1);
    const KineticStats drunkard = run_differential_trace<2>(
        n, side, MobilityConfig::paper_drunkard(side), steps, seed + 2);
    EXPECT_EQ(waypoint.dense_mode, n < kCutoff) << "side " << side;
    EXPECT_EQ(drunkard.dense_mode, n < kCutoff) << "side " << side;
  }
}

TEST(KineticDifferential, DuplicateAndBoundaryStraddlingPointsMatch) {
  // Coincident nodes (zero-weight edges, maximal tie pressure on the
  // (d2, u, v) order) and nodes pinned to the region boundary, moving on and
  // off it, on both paths. Ties let the grid path pick a different minimal
  // tree than the reference, so the grid-path trees are compared by weight
  // bits and curves.
  for (const std::size_t pairs : {std::size_t{60}, std::size_t{480}}) {
    const double side = 50.0;
    const Box2 box(side);
    Rng rng(55);
    std::vector<Point2> positions;
    for (std::size_t i = 0; i < pairs; ++i) {
      const Point2 p{{rng.uniform(0.0, side), rng.uniform(0.0, side)}};
      positions.push_back(p);
      positions.push_back(p);  // exact duplicate
    }
    for (std::size_t i = 0; i < 40; ++i) {
      positions.push_back({{rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : side, rng.uniform(0.0, side)}});
    }
    const std::size_t n = positions.size();
    SCOPED_TRACE(::testing::Message() << "n=" << n);

    TraceWorkspace<2> ws;
    for (std::size_t s = 0; s <= 40; ++s) {
      if (s > 0) {
        for (std::size_t i = 0; i < n; i += 3) {
          // Snap to the boundary half the time, drift otherwise.
          positions[i].coords[0] =
              rng.uniform(0.0, 1.0) < 0.5
                  ? (rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : side)
                  : std::clamp(positions[i].coords[0] + rng.uniform(-2.0, 2.0), 0.0, side);
        }
      }
      const auto reference = euclidean_mst<2>(positions);
      const auto tree = s == 0 ? ws.kinetic.start(positions, box) : ws.kinetic.advance(positions);
      EXPECT_EQ(ws.kinetic.stats().dense_mode, n < kCutoff);
      expect_trees_identical(reference, tree, s, /*edge_for_edge=*/n < kCutoff);
      expect_curves_identical(n, reference, tree, s);
    }
  }
}

TEST(KineticDifferential, RandomizedConfigSweep) {
  // Randomized fuzz over the whole configuration space: dimension, node
  // count (straddling the dense cutoff), region size, model.
  Rng meta(0xD1FFull);
  for (int round = 0; round < 24; ++round) {
    const int d = 1 + static_cast<int>(meta.next_u64() % 3);
    const std::size_t n = kCutoff - 40 + meta.next_u64() % 120;
    const double side = 16.0 + meta.uniform(0.0, 80.0);
    const bool waypoint = (meta.next_u64() & 1) != 0;
    const std::size_t steps = 10 + meta.next_u64() % 15;
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

/// Replays run_mobile_trace's deployment and mobility draws for `seed`. Each
/// step is solved by a fresh trace workspace's engine and by the reference,
/// whose trees must agree edge for edge; the trace is built from the
/// reference trees: the trace run_mobile_trace must reproduce bit for bit.
template <int D>
MobileConnectivityTrace reference_trace(std::size_t n, const Box<D>& box,
                                        const MobilityConfig& mobility, std::size_t steps,
                                        std::uint64_t seed) {
  Rng rng(seed);
  auto positions = uniform_deployment(n, box, rng);
  const auto model = make_mobility_model<D>(mobility, box);
  model->initialize(positions, rng);
  TraceWorkspace<D> ws;
  std::vector<LargestComponentCurve> curves;
  for (std::size_t s = 0; s < steps; ++s) {
    if (s > 0) model->step(positions, rng);
    auto reference = euclidean_mst<D>(positions);
    expect_trees_identical(reference,
                           s == 0 ? ws.kinetic.start(positions, box) : ws.kinetic.advance(positions),
                           s);
    curves.emplace_back(n, std::move(reference));
  }
  return MobileConnectivityTrace(n, std::move(curves));
}

template <int D>
void check_trace_matches_reference(std::size_t n, double side, const MobilityConfig& mobility,
                                   std::size_t steps, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "D=" << D << " n=" << n);
  const Box<D> box(side);
  Rng rng(seed);
  const auto model = make_mobility_model<D>(mobility, box);
  TraceWorkspace<D> ws;
  const auto trace = run_mobile_trace<D>(n, box, steps, *model, rng, &ws);
  EXPECT_EQ(ws.kinetic.stats().dense_mode, n < kCutoff);
  const auto reference = reference_trace<D>(n, box, mobility, steps, seed);

  const auto timeline = trace.critical_radius_timeline();
  const auto expected = reference.critical_radius_timeline();
  ASSERT_EQ(timeline.size(), expected.size());
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_TRUE(bits_equal(timeline[i], expected[i])) << "step " << i;
  }
  for (const double phi : {0.5, 0.9, 1.0}) {
    EXPECT_TRUE(bits_equal(trace.range_for_mean_component_fraction(phi),
                           reference.range_for_mean_component_fraction(phi)))
        << "phi " << phi;
  }
}

TEST(KineticDifferential, RunMobileTraceMatchesPerStepBatchReference) {
  // Both sides of kDenseCutoff in every dimension.
  check_trace_matches_reference<1>(160, 64.0, fast_waypoint(64.0), 60, 61);
  check_trace_matches_reference<1>(1000, 64.0, fast_waypoint(64.0), 30, 61);
  check_trace_matches_reference<2>(160, 96.0, fast_waypoint(96.0), 60, 62);
  check_trace_matches_reference<2>(1000, 96.0, fast_drunkard(96.0), 30, 62);
  check_trace_matches_reference<3>(140, 32.0, fast_drunkard(32.0), 60, 63);
  check_trace_matches_reference<3>(960, 32.0, fast_waypoint(32.0), 30, 63);
  check_trace_matches_reference<2>(20, 64.0, fast_drunkard(64.0), 60, 64);
}

std::uint64_t mtrm_checksum(const MtrmConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  return fnv1a_bits(flatten_mtrm_result(solve_mtrm<2>(config, rng)));
}

// The golden digests of tests/determinism_test.cpp, re-pinned here through
// the mobile-trace path at 1 and 8 threads, next to two at paper density
// l = 65536 (n = 256). All four configs solve on the dense path, so one
// run_mobile_trace digest at l = 1M (n = 1024, above kDenseCutoff) pins the
// grid path end to end: the FNV-1a of its critical-radius timeline and of
// rl_phi at three phi. Its value was produced by the incremental kinetic
// repair before that engine was deleted.
TEST(KineticDifferential, GoldenChecksumsHoldThroughKineticPathAtOneAndEightThreads) {
  const ParallelismGuard parallelism_guard;

  const MtrmConfig waypoint = experiments::waypoint_experiment(256.0, Preset::kQuick);
  const MtrmConfig drunkard = experiments::drunkard_experiment(256.0, Preset::kQuick);
  const MtrmConfig paper_waypoint = experiments::waypoint_experiment(65536.0, Preset::kQuick);
  const MtrmConfig paper_drunkard = experiments::drunkard_experiment(65536.0, Preset::kQuick);
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

  const double side = 1048576.0;
  const std::size_t n = 1024;
  static_assert(n >= kCutoff);
  const Box2 region(side);
  const auto model = make_mobility_model<2>(MobilityConfig::paper_waypoint(side), region);
  Rng rng(20020623);
  TraceWorkspace<2> ws;
  const auto trace = run_mobile_trace<2>(n, region, 400, *model, rng, &ws);
  EXPECT_EQ(ws.kinetic.stats().full_rebuilds, 400u) << "every step must take the grid path";
  std::vector<double> digest(trace.critical_radius_timeline().begin(),
                             trace.critical_radius_timeline().end());
  for (const double phi : {0.5, 0.75, 0.9}) {
    digest.push_back(trace.range_for_mean_component_fraction(phi));
  }
  EXPECT_EQ(hex_u64(fnv1a_bits(digest)), hex_u64(0xc1678e147f7942b1ull));
}

}  // namespace
}  // namespace manet
