#include "topology/emst_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "geometry/torus.hpp"
#include "graph/union_find.hpp"
#include "sim/deployment.hpp"
#include "sim/trace_workspace.hpp"
#include "support/reference_mst.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

std::vector<double> sorted_weights(std::span<const WeightedEdge> edges) {
  std::vector<double> weights;
  weights.reserve(edges.size());
  for (const auto& edge : edges) weights.push_back(edge.weight);
  std::sort(weights.begin(), weights.end());
  return weights;
}

// The grid engine may pick a different (equally minimal) tree than the
// reference Prim when edge weights tie, so trees are compared through the
// quantities the simulator actually consumes — all of which are invariant
// across every MST of the same graph and must match BITWISE (EXPECT_EQ on
// doubles): the sorted edge-weight multiset, the bottleneck, and the full
// largest-component breakpoint curve.
void expect_value_identical(std::size_t n, std::span<const WeightedEdge> dense,
                            std::span<const WeightedEdge> grid) {
  ASSERT_EQ(dense.size(), grid.size());
  ASSERT_EQ(grid.size(), n <= 1 ? 0u : n - 1);

  const auto dense_weights = sorted_weights(dense);
  const auto grid_weights = sorted_weights(grid);
  for (std::size_t i = 0; i < dense_weights.size(); ++i) {
    EXPECT_EQ(dense_weights[i], grid_weights[i]) << "weight multiset differs at rank " << i;
  }
  EXPECT_EQ(tree_bottleneck(dense), tree_bottleneck(grid));

  // The grid tree must genuinely span.
  UnionFind dsu(n);
  for (const auto& edge : grid) {
    ASSERT_LT(edge.u, n);
    ASSERT_LT(edge.v, n);
    EXPECT_TRUE(dsu.unite(edge.u, edge.v)) << "cycle edge (" << edge.u << ", " << edge.v << ")";
  }
  if (n > 0) {
    EXPECT_EQ(dsu.largest_component_size(), n);
  }

  // The engine's output contract: edges sorted ascending by weight.
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end(),
                             [](const WeightedEdge& a, const WeightedEdge& b) {
                               return a.weight < b.weight;
                             }));

  const LargestComponentCurve dense_curve(n, {dense.begin(), dense.end()});
  const LargestComponentCurve grid_curve(n, {grid.begin(), grid.end()});
  const auto dense_bps = dense_curve.breakpoints();
  const auto grid_bps = grid_curve.breakpoints();
  ASSERT_EQ(dense_bps.size(), grid_bps.size());
  for (std::size_t i = 0; i < dense_bps.size(); ++i) {
    EXPECT_EQ(dense_bps[i].range, grid_bps[i].range) << "breakpoint range differs at " << i;
    EXPECT_EQ(dense_bps[i].size, grid_bps[i].size) << "breakpoint size differs at " << i;
  }
}

// Independent O(n^2 log n) reference: Kruskal over all pairs, no shared code
// with either the reference Prim or the grid engine beyond the distance
// helpers.
template <int D>
std::vector<double> kruskal_reference_weights(const std::vector<Point<D>>& points) {
  struct Edge {
    double d2;
    std::size_t u, v;
  };
  std::vector<Edge> all;
  const std::size_t n = points.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      all.push_back({squared_distance(points[i], points[j]), i, j});
    }
  }
  std::sort(all.begin(), all.end(), [](const Edge& a, const Edge& b) { return a.d2 < b.d2; });
  UnionFind dsu(n);
  std::vector<double> weights;
  for (const Edge& e : all) {
    if (dsu.unite(e.u, e.v)) weights.push_back(covering_radius(e.d2));
  }
  std::sort(weights.begin(), weights.end());
  return weights;
}

// Points packed into a few tight clusters separated by empty space: the
// initial connectivity-threshold radius finds no spanning candidate graph,
// so the adaptive doubling loop must run several rounds.
template <int D>
std::vector<Point<D>> clustered_deployment(std::size_t n, const Box<D>& box,
                                           std::size_t clusters, double spread, Rng& rng) {
  const auto centers = uniform_deployment(clusters, box, rng);
  std::vector<Point<D>> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point<D> p = centers[i % clusters];
    for (int axis = 0; axis < D; ++axis) {
      const double offset = rng.uniform(-spread, spread);
      p.coords[axis] = std::clamp(p.coords[axis] + offset, 0.0, box.side());
    }
    points.push_back(p);
  }
  return points;
}

// One uniform point set through the grid engine, the reference Prim and the
// all-pairs Kruskal reference: all three must agree bitwise.
template <int D>
void check_uniform_point_set(std::size_t n, double side, Rng& rng) {
  const Box<D> box(side);
  const auto points = uniform_deployment(n, box, rng);
  EmstEngine<D> engine;
  const auto grid = engine.euclidean(points, box);
  EXPECT_FALSE(engine.stats().dense_fallback) << "n=" << n << " side=" << side;
  const auto dense = euclidean_mst<D>(points);
  expect_value_identical(n, dense, grid);
  const auto reference = kruskal_reference_weights(points);
  const auto grid_sorted = sorted_weights(grid);
  ASSERT_EQ(reference.size(), grid_sorted.size()) << "n=" << n << " side=" << side;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i], grid_sorted[i]) << "n=" << n << " side=" << side << " rank=" << i;
  }
}

template <int D>
void check_uniform_configs() {
  Rng rng(0x9E3779B9u + static_cast<unsigned>(D));
  // Sizes on both sides of kDenseCutoff: trees take the grid path at every
  // size, and keys-only solves switch paths at the cutoff.
  constexpr std::size_t kCutoff = EmstEngine<D>::kDenseCutoff;
  for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{7}, std::size_t{31},
                        std::size_t{32}, std::size_t{33}, std::size_t{100}, kCutoff - 1,
                        kCutoff, kCutoff + 1, std::size_t{1000}}) {
    for (double side : {1.0, 50.0, 2000.0}) check_uniform_point_set<D>(n, side, rng);
  }
}

TEST(EmstGrid, MatchesDenseAndKruskalUniform1D) { check_uniform_configs<1>(); }
TEST(EmstGrid, MatchesDenseAndKruskalUniform2D) {
  check_uniform_configs<2>();
  // The paper's l = 1024 region at n = 1024 and 2048, drawn in that order
  // from seed 1: the largest grid-path inputs of this suite.
  Rng rng(1);
  for (std::size_t n : {std::size_t{1024}, std::size_t{2048}}) {
    check_uniform_point_set<2>(n, 1024.0, rng);
  }
}
TEST(EmstGrid, MatchesDenseAndKruskalUniform3D) { check_uniform_configs<3>(); }

TEST(EmstGrid, MatchesDenseOnClusteredConfigs) {
  Rng rng(42);
  const Box2 box(1000.0);
  for (std::size_t clusters : {2u, 5u}) {
    for (double spread : {0.5, 10.0}) {
      const auto points = clustered_deployment<2>(1000, box, clusters, spread, rng);
      EmstEngine<2> engine;
      const auto grid = engine.euclidean(points, box);
      expect_value_identical(points.size(), euclidean_mst<2>(points), grid);
      // Clusters force the doubling loop past its first round.
      EXPECT_FALSE(engine.stats().dense_fallback);
      EXPECT_GE(engine.stats().rounds, 2u) << "clusters=" << clusters << " spread=" << spread;
    }
  }
}

TEST(EmstGrid, CollinearAndDuplicatePointsAreHandled) {
  // Collinear points with duplicates: many exactly-tied candidate edges, at
  // a small n and at one above kDenseCutoff.
  constexpr std::size_t kGridN = 1000;
  static_assert(kGridN >= EmstEngine<2>::kDenseCutoff);
  for (const std::size_t n : {std::size_t{64}, kGridN}) {
    std::vector<Point2> points;
    const std::size_t spots = n / 4;  // 4 copies of each spot
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back({{static_cast<double>(i % spots), 5.0}});
    }
    const Box2 box(static_cast<double>(spots) + 4.0);
    EmstEngine<2> engine;
    expect_value_identical(points.size(), euclidean_mst<2>(points),
                           engine.euclidean(points, box));
    EXPECT_FALSE(engine.stats().dense_fallback) << "n=" << n;
  }

  // All points coincident: every MST edge has weight 0 (on the grid path
  // every candidate key is 0 under a positive radius-squared bound).
  for (const std::size_t n : {std::size_t{40}, kGridN}) {
    const std::vector<Point2> coincident(n, Point2{{3.0, 3.0}});
    const Box2 box(20.0);
    EmstEngine<2> engine;
    const auto grid = engine.euclidean(coincident, box);
    EXPECT_FALSE(engine.stats().dense_fallback) << "n=" << n;
    ASSERT_EQ(grid.size(), coincident.size() - 1);
    for (const auto& edge : grid) EXPECT_EQ(edge.weight, 0.0);
    expect_value_identical(coincident.size(), euclidean_mst<2>(coincident), grid);
  }
}

TEST(EmstGrid, EmptyAndSingletonInputs) {
  EmstEngine<2> engine;
  const Box2 box(10.0);
  const std::vector<Point2> none;
  const std::vector<Point2> one = {{{5.0, 5.0}}};
  EXPECT_TRUE(engine.euclidean(none, box).empty());
  EXPECT_TRUE(engine.euclidean(one, box).empty());
  EXPECT_TRUE(engine.torus(none, 10.0).empty());
  EXPECT_TRUE(engine.torus(one, 10.0).empty());
}

template <int D>
void check_torus_configs() {
  Rng rng(7u + static_cast<unsigned>(D));
  const auto torus_d2 = [](double side) {
    return [side](const Point<D>& a, const Point<D>& b) {
      return torus_squared_distance(a, b, side);
    };
  };
  for (std::size_t n : {2u, 16u, 40u, 200u}) {
    for (double side : {1.0, 100.0}) {
      const Box<D> box(side);
      const auto points = uniform_deployment(n, box, rng);
      EmstEngine<D> engine;
      const auto grid = engine.torus(points, side);
      const auto dense = mst_with_metric<D>(points, torus_d2(side));
      expect_value_identical(n, dense, grid);
      EXPECT_EQ(torus_critical_range<D>(points, side), tree_bottleneck(dense));
    }
  }
}

TEST(EmstGrid, TorusMatchesDenseTorusMetric1D) { check_torus_configs<1>(); }
TEST(EmstGrid, TorusMatchesDenseTorusMetric2D) { check_torus_configs<2>(); }
TEST(EmstGrid, TorusMatchesDenseTorusMetric3D) { check_torus_configs<3>(); }

TEST(EmstGrid, TorusClusteredConfigsWrapAcrossBoundary) {
  // Clusters hugging opposite edges of the region: the torus MST must cross
  // the wrap seam, which only the wrap-aware neighbor scan can see.
  constexpr std::size_t kPerCluster = 80;
  Rng rng(11);
  const double side = 100.0;
  std::vector<Point2> points;
  for (std::size_t i = 0; i < kPerCluster; ++i) {
    const double y = rng.uniform(0.0, side);
    points.push_back({{rng.uniform(0.0, 2.0), y}});
    points.push_back({{rng.uniform(side - 2.0, side), y}});
  }
  EmstEngine<2> engine;
  const auto grid = engine.torus(points, side);
  EXPECT_FALSE(engine.stats().dense_fallback);
  // The seam edges must come from the wrap-aware cell scan: a radius of a
  // third of the side or more leaves fewer than three cells per axis, where
  // the grid falls back to an exhaustive all-pairs scan.
  EXPECT_LT(engine.stats().final_radius, side / 3.0);
  const auto dense = mst_with_metric<2>(points, [side](const Point2& a, const Point2& b) {
    return torus_squared_distance(a, b, side);
  });
  expect_value_identical(points.size(), dense, grid);
  // Wrap distances across the seam (~<= 4) are far below the Euclidean gap
  // (~96), so the torus bottleneck must be much smaller.
  EXPECT_LT(tree_bottleneck(grid), 0.5 * tree_bottleneck(euclidean_mst<2>(points)));
}

TEST(EmstGrid, EngineReuseIsBitIdenticalToFreshEngines) {
  Rng rng(123);
  const Box2 box(300.0);
  EmstEngine<2> reused;
  // Descending sizes so reuse shrinks the live ranges inside pooled buffers.
  for (std::size_t n : {1000u, 500u, 128u, 40u, 8u, 200u}) {
    const auto points = uniform_deployment(n, box, rng);
    const auto from_reused = reused.euclidean(points, box);
    EmstEngine<2> fresh;
    const auto from_fresh = fresh.euclidean(points, box);
    ASSERT_EQ(from_reused.size(), from_fresh.size());
    for (std::size_t i = 0; i < from_fresh.size(); ++i) {
      EXPECT_EQ(from_reused[i].u, from_fresh[i].u);
      EXPECT_EQ(from_reused[i].v, from_fresh[i].v);
      EXPECT_EQ(from_reused[i].weight, from_fresh[i].weight);
    }
    // Alternate metric between solves: no state may leak across calls.
    const auto torus_reused = reused.torus(points, box.side());
    EmstEngine<2> torus_fresh;
    const auto torus_expected = torus_fresh.torus(points, box.side());
    ASSERT_EQ(torus_reused.size(), torus_expected.size());
    for (std::size_t i = 0; i < torus_expected.size(); ++i) {
      EXPECT_EQ(torus_reused[i].weight, torus_expected[i].weight);
    }
  }
}

TEST(EmstGrid, StatsReflectChosenPath) {
  Rng rng(5);
  const Box2 box(100.0);

  // Below kDenseCutoff a tree still takes the grid; only the keys go dense.
  const auto tiny = uniform_deployment(EmstEngine<2>::kDenseCutoff - 1, box, rng);
  EmstEngine<2> engine;
  engine.euclidean(tiny, box);
  EXPECT_FALSE(engine.stats().dense_fallback);
  EXPECT_GE(engine.stats().rounds, 1u);
  engine.prim_order_keys<1>({tiny});
  EXPECT_TRUE(engine.stats().dense_fallback);
  EXPECT_EQ(engine.stats().rounds, 0u);

  const auto large = uniform_deployment(1024, box, rng);
  engine.euclidean(large, box);
  EXPECT_FALSE(engine.stats().dense_fallback);
  EXPECT_GE(engine.stats().rounds, 1u);
  EXPECT_GT(engine.stats().final_radius, 0.0);
  EXPECT_GE(engine.stats().candidate_edges, large.size() - 1);
}

/// The first n points of a cubic lattice with unit spacing: every point has
/// several equidistant neighbors, so Prim's keys tie all the time.
template <int D>
std::vector<Point<D>> lattice_points(std::size_t n, std::size_t per_axis) {
  std::vector<Point<D>> points;
  for (std::size_t i = 0; i < n; ++i) {
    Point<D> p;
    std::size_t rest = i;
    for (int axis = 0; axis < D; ++axis) {
      p.coords[static_cast<std::size_t>(axis)] = static_cast<double>(rest % per_axis);
      rest /= per_axis;
    }
    points.push_back(p);
  }
  return points;
}

/// Euclidean and torus trees of small and mid-sized sets, on uniform,
/// lattice, coincident and collinear inputs, must equal the reference in
/// weight multiset and component curve. The sizes straddle kDenseCutoff and
/// the old per-D torus cutoffs (21, 73, 377) of a dense tree path.
template <int D>
void check_trees_match_reference() {
  Rng rng(0xDE45Eu + static_cast<unsigned>(D));
  EmstEngine<D> engine;
  for (const std::size_t n : {2u, 3u, 16u, 20u, 21u, 22u, 72u, 73u, 74u, 128u, 376u, 377u, 378u,
                              896u, 897u}) {
    const auto per_axis = static_cast<std::size_t>(
        std::ceil(std::pow(static_cast<double>(n), 1.0 / static_cast<double>(D)) - 1e-9));
    // The lattice fills the region up to one spacing short of the seam, and
    // the collinear set, 1/16 apart on axis 0, does too when it is longer.
    const double side = std::max(static_cast<double>(per_axis), static_cast<double>(n) / 16.0);
    const Box<D> box(side);
    const auto torus_d2 = [side](const Point<D>& a, const Point<D>& b) {
      return torus_squared_distance(a, b, side);
    };
    std::vector<Point<D>> collinear(n, Point<D>{});
    for (std::size_t i = 0; i < n; ++i) collinear[i].coords[0] = static_cast<double>(i) / 16.0;
    for (std::size_t i = n; i > 1; --i) std::swap(collinear[i - 1], collinear[rng.next_u64() % i]);
    const std::vector<std::vector<Point<D>>> inputs = {
        uniform_deployment(n, box, rng), lattice_points<D>(n, per_axis),
        std::vector<Point<D>>(n, Point<D>{}), collinear};
    for (std::size_t input = 0; input < inputs.size(); ++input) {
      SCOPED_TRACE(::testing::Message() << "D=" << D << " n=" << n << " input=" << input);
      const auto& points = inputs[input];
      expect_value_identical(n, euclidean_mst<D>(points), engine.euclidean(points, box));
      EXPECT_FALSE(engine.stats().dense_fallback);
      expect_value_identical(n, mst_with_metric<D>(points, torus_d2), engine.torus(points, side));
      EXPECT_FALSE(engine.stats().dense_fallback);
    }
  }
}

TEST(EmstGrid, TreesMatchReferenceWeightsAndCurves1D) { check_trees_match_reference<1>(); }
TEST(EmstGrid, TreesMatchReferenceWeightsAndCurves2D) { check_trees_match_reference<2>(); }
TEST(EmstGrid, TreesMatchReferenceWeightsAndCurves3D) { check_trees_match_reference<3>(); }

/// Point set `kind` of n points in [0, side]^D: uniform, coincident pairs,
/// collinear at equal gaps (shuffled), or all equal.
template <int D>
std::vector<Point<D>> dense_batch_input(std::size_t kind, std::size_t n, double side, Rng& rng) {
  const Box<D> box(side);
  if (kind == 0) return uniform_deployment(n, box, rng);
  if (kind == 1) {
    std::vector<Point<D>> pairs = uniform_deployment((n + 1) / 2, box, rng);
    pairs.insert(pairs.end(), pairs.begin(), pairs.end());
    pairs.resize(n);
    return pairs;
  }
  std::vector<Point<D>> points(n, uniform_deployment(1, box, rng)[0]);
  if (kind == 2) {
    // A gap of 1/16 keeps every coordinate exact, so all gaps are equal.
    for (std::size_t i = 0; i < n; ++i) points[i].coords[0] = static_cast<double>(i) / 16.0;
    for (std::size_t i = n; i > 1; --i) std::swap(points[i - 1], points[rng.next_u64() % i]);
  }
  return points;
}

/// The batched prim_order_keys must give each point set of the batch the
/// keys of a prim_order_keys call of its own, bit for bit, whichever kinds
/// of set share the batch.
template <int D>
void check_batched_prim_order_keys() {
  constexpr std::size_t kBatch = EmstEngine<D>::kPrimBatch;
  Rng rng(0xBA7C4u + static_cast<unsigned>(D));
  EmstEngine<D> batched;
  EmstEngine<D> single;
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 16u, 127u, 128u, 896u}) {
    ASSERT_TRUE(EmstEngine<D>::dense_path(n));
    for (std::size_t rotation = 0; rotation < 4; ++rotation) {
      std::array<std::vector<Point<D>>, kBatch> sets;
      std::array<std::span<const Point<D>>, kBatch> batch;
      for (std::size_t j = 0; j < kBatch; ++j) {
        sets[j] = dense_batch_input<D>((j + rotation) % 4, n, 100.0, rng);
        batch[j] = sets[j];
      }
      const auto keys = batched.prim_order_keys(batch);
      for (std::size_t j = 0; j < kBatch; ++j) {
        SCOPED_TRACE(::testing::Message() << "D=" << D << " n=" << n << " rotation=" << rotation
                                          << " set=" << j);
        const auto expected = single.template prim_order_keys<1>({batch[j]})[0];
        ASSERT_EQ(keys[j].size(), expected.size());
        for (std::size_t e = 0; e < expected.size(); ++e) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(keys[j][e]),
                    std::bit_cast<std::uint64_t>(expected[e]))
              << "key " << e;
        }
      }
    }
  }
}

TEST(EmstDense, BatchedPrimOrderKeysEqualSingleSolves1D) { check_batched_prim_order_keys<1>(); }
TEST(EmstDense, BatchedPrimOrderKeysEqualSingleSolves2D) { check_batched_prim_order_keys<2>(); }
TEST(EmstDense, BatchedPrimOrderKeysEqualSingleSolves3D) { check_batched_prim_order_keys<3>(); }

template <int D>
double brute_force_isolation(const std::vector<Point<D>>& points) {
  double worst = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double nn2 = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i != j) nn2 = std::min(nn2, squared_distance(points[i], points[j]));
    }
    worst = std::max(worst, nn2);
  }
  return covering_radius(worst);
}

TEST(EmstGrid, NearestNeighborRangeMatchesBruteForce) {
  Rng rng(99);
  for (std::size_t n : {2u, 10u, 33u, 150u}) {
    const Box2 box(80.0);
    const auto points = uniform_deployment(n, box, rng);
    EmstEngine<2> engine;
    EXPECT_EQ(engine.max_nearest_neighbor_range(points, box), brute_force_isolation(points))
        << "n=" << n;
    EXPECT_EQ(isolation_range<2>(points, box), brute_force_isolation(points));
  }
  // Clustered sets: a lone far cluster forces extra doubling rounds in the
  // nearest-neighbor search too.
  const Box2 box(1000.0);
  const auto clustered = clustered_deployment<2>(120, box, 3, 1.0, rng);
  EmstEngine<2> engine;
  EXPECT_EQ(engine.max_nearest_neighbor_range(clustered, box), brute_force_isolation(clustered));
}

TEST(EmstGrid, CriticalRangeOverloadsAgree) {
  // The critical-range front-end is bit-identical to the bottleneck of the
  // dense reference MST.
  Rng rng(77);
  for (int rep = 0; rep < 5; ++rep) {
    const Box2 box(60.0);
    const auto points = uniform_deployment(90, box, rng);
    EXPECT_EQ(critical_range<2>(points, box), tree_bottleneck(euclidean_mst<2>(points)));
    const Box3 box3(30.0);
    const auto points3 = uniform_deployment(64, box3, rng);
    EXPECT_EQ(critical_range<3>(points3, box3), tree_bottleneck(euclidean_mst<3>(points3)));
  }
}

TEST(EmstGrid, WorkspaceCurveBuilderMatchesLegacyBuilder) {
  Rng rng(31337);
  const Box2 box(200.0);
  TraceWorkspace<2> workspace;
  for (std::size_t n : {2u, 33u, 120u}) {
    const auto points = uniform_deployment(n, box, rng);
    const LargestComponentCurve legacy(n, euclidean_mst<2>(points));
    EmstEngine<2> engine;
    UnionFind dsu(n);
    std::vector<LargestComponentCurve::Breakpoint> scratch;
    const LargestComponentCurve one_shot(n, engine.euclidean(points, box), dsu, scratch);
    const LargestComponentCurve pooled(n, workspace.kinetic.start(points, box), workspace.dsu,
                                       workspace.breakpoints);
    for (const auto* curve : {&one_shot, &pooled}) {
      const auto expected = legacy.breakpoints();
      const auto actual = curve->breakpoints();
      ASSERT_EQ(expected.size(), actual.size()) << "n=" << n;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].range, actual[i].range);
        EXPECT_EQ(expected[i].size, actual[i].size);
      }
    }
  }
}

}  // namespace
}  // namespace manet
