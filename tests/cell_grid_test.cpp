#include "geometry/cell_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/torus.hpp"
#include "sim/deployment.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

using Pair = std::pair<std::size_t, std::size_t>;

template <int D>
std::set<Pair> brute_force_pairs(const std::vector<Point<D>>& points, double radius) {
  std::set<Pair> pairs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (squared_distance(points[i], points[j]) <= radius * radius) {
        pairs.emplace(i, j);
      }
    }
  }
  return pairs;
}

template <int D>
std::set<Pair> grid_pairs(const std::vector<Point<D>>& points, const Box<D>& box,
                          double radius) {
  const CellGrid<D> grid(points, box, radius);
  std::set<Pair> pairs;
  grid.for_each_pair_within(radius, [&](std::size_t i, std::size_t j, double d2) {
    EXPECT_LT(i, j);
    EXPECT_LE(d2, radius * radius);
    const auto [it, inserted] = pairs.emplace(i, j);
    EXPECT_TRUE(inserted) << "pair reported twice: (" << i << ", " << j << ")";
  });
  return pairs;
}

TEST(CellGrid, MatchesBruteForce2D) {
  Rng rng(1);
  const Box2 box(100.0);
  for (double radius : {1.0, 5.0, 20.0, 60.0, 150.0}) {
    const auto points = uniform_deployment(80, box, rng);
    EXPECT_EQ(grid_pairs(points, box, radius), brute_force_pairs(points, radius))
        << "radius=" << radius;
  }
}

TEST(CellGrid, MatchesBruteForce1D) {
  Rng rng(2);
  const Box1 box(50.0);
  for (double radius : {0.5, 2.0, 10.0}) {
    const auto points = uniform_deployment(60, box, rng);
    EXPECT_EQ(grid_pairs(points, box, radius), brute_force_pairs(points, radius));
  }
}

TEST(CellGrid, MatchesBruteForce3D) {
  Rng rng(3);
  const Box3 box(30.0);
  for (double radius : {2.0, 8.0, 25.0}) {
    const auto points = uniform_deployment(50, box, rng);
    EXPECT_EQ(grid_pairs(points, box, radius), brute_force_pairs(points, radius));
  }
}

TEST(CellGrid, EmptyAndSingletonInputs) {
  const Box2 box(10.0);
  const std::vector<Point2> none;
  const std::vector<Point2> one = {{{5.0, 5.0}}};
  EXPECT_TRUE(grid_pairs(none, box, 1.0).empty());
  EXPECT_TRUE(grid_pairs(one, box, 1.0).empty());
}

TEST(CellGrid, BoundaryPointsAreHandled) {
  const Box2 box(10.0);
  // Points exactly on the box boundary, including the far corner.
  const std::vector<Point2> points = {
      {{0.0, 0.0}}, {{10.0, 10.0}}, {{10.0, 0.0}}, {{0.0, 10.0}}, {{5.0, 10.0}}};
  EXPECT_EQ(grid_pairs(points, box, 6.0), brute_force_pairs(points, 6.0));
  EXPECT_EQ(grid_pairs(points, box, 20.0), brute_force_pairs(points, 20.0));
}

TEST(CellGrid, CoincidentPointsFormPairs) {
  const Box2 box(10.0);
  const std::vector<Point2> points = {{{3.0, 3.0}}, {{3.0, 3.0}}, {{3.0, 3.0}}};
  EXPECT_EQ(grid_pairs(points, box, 0.5).size(), 3u);
}

TEST(CellGrid, PairsAtExactlyRadiusAreIncluded) {
  const Box2 box(10.0);
  const std::vector<Point2> points = {{{1.0, 1.0}}, {{4.0, 1.0}}};
  EXPECT_EQ(grid_pairs(points, box, 3.0).size(), 1u);
  EXPECT_EQ(grid_pairs(points, box, 2.999).size(), 0u);
}

TEST(CellGrid, QueryRadiusLargerThanCellSizeIsRejected) {
  const Box2 box(100.0);
  const std::vector<Point2> points = {{{1.0, 1.0}}, {{2.0, 2.0}}};
  const CellGrid<2> grid(points, box, 5.0);
  EXPECT_THROW(
      grid.for_each_pair_within(grid.cell_size() * 2.0, [](std::size_t, std::size_t, double) {}),
      ContractViolation);
}

TEST(CellGrid, TinyCellSizeIsClampedNotPathological) {
  Rng rng(4);
  const Box2 box(10000.0);
  const auto points = uniform_deployment(40, box, rng);
  // A tiny requested cell size must not allocate a huge grid; the clamped
  // grid still answers queries at the (enlarged) cell size correctly.
  const CellGrid<2> grid(points, box, 1e-6);
  EXPECT_LE(grid.cells_per_axis() * grid.cells_per_axis(), 4u * 40u + 64u);
  const double radius = grid.cell_size();
  std::set<Pair> pairs;
  grid.for_each_pair_within(radius, [&](std::size_t i, std::size_t j, double) {
    pairs.emplace(i, j);
  });
  EXPECT_EQ(pairs, brute_force_pairs(points, radius));
}

template <int D>
std::set<Pair> brute_force_torus_pairs(const std::vector<Point<D>>& points, double side,
                                       double radius) {
  std::set<Pair> pairs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (torus_squared_distance(points[i], points[j], side) <= radius * radius) {
        pairs.emplace(i, j);
      }
    }
  }
  return pairs;
}

template <int D>
std::set<Pair> grid_torus_pairs(const std::vector<Point<D>>& points, const CellGrid<D>& grid,
                                double side, double radius) {
  std::set<Pair> pairs;
  grid.for_each_torus_pair_within(radius, [&](std::size_t i, std::size_t j, double d2) {
    EXPECT_LT(i, j);
    EXPECT_LE(d2, radius * radius);
    const auto [it, inserted] = pairs.emplace(i, j);
    EXPECT_TRUE(inserted) << "torus pair reported twice: (" << i << ", " << j << ")";
    EXPECT_DOUBLE_EQ(d2, torus_squared_distance(points[i], points[j], side));
  });
  return pairs;
}

TEST(CellGrid, TorusPairsMatchBruteForce2D) {
  Rng rng(21);
  const double side = 100.0;
  const Box2 box(side);
  for (double radius : {2.0, 10.0, 30.0}) {
    const auto points = uniform_deployment(70, box, rng);
    const CellGrid<2> grid(points, box, radius);
    EXPECT_EQ(grid_torus_pairs(points, grid, side, radius),
              brute_force_torus_pairs(points, side, radius))
        << "radius=" << radius;
  }
}

TEST(CellGrid, TorusPairsMatchBruteForce3D) {
  Rng rng(22);
  const double side = 20.0;
  const Box3 box(side);
  for (double radius : {1.5, 6.0}) {
    const auto points = uniform_deployment(50, box, rng);
    const CellGrid<3> grid(points, box, radius);
    EXPECT_EQ(grid_torus_pairs(points, grid, side, radius),
              brute_force_torus_pairs(points, side, radius));
  }
}

TEST(CellGrid, TorusPairsSeeAcrossTheWrapSeam) {
  const double side = 100.0;
  const Box2 box(side);
  // Euclidean distance ~98, torus distance 2: only wrap-aware scanning finds it.
  const std::vector<Point2> points = {{{1.0, 50.0}}, {{99.0, 50.0}}};
  const CellGrid<2> grid(points, box, 5.0);
  EXPECT_EQ(grid_torus_pairs(points, grid, side, 5.0).size(), 1u);
  EXPECT_TRUE(grid_pairs(points, box, 5.0).empty());
}

TEST(CellGrid, TorusPairsFallBackWhenFewerThanThreeCellsPerAxis) {
  // A radius over a third of the side gives cells_per_axis < 3, where the
  // wrapped neighborhood would alias; the all-pairs fallback must stay exact.
  Rng rng(23);
  const double side = 10.0;
  const Box2 box(side);
  const auto points = uniform_deployment(30, box, rng);
  const CellGrid<2> grid(points, box, 4.5);
  ASSERT_LT(grid.cells_per_axis(), 3u);
  EXPECT_EQ(grid_torus_pairs(points, grid, side, 4.5), brute_force_torus_pairs(points, side, 4.5));
}

TEST(CellGrid, TorusFallbackBoundaryAtExactlyOneTwoAndThreeCellsPerAxis) {
  // The wrapped 3^D neighborhood is only sound at cells_per_axis >= 3; below
  // that the implementation must take the all-pairs fallback. Pin the
  // transition exactly: side 12 with radii 4.0 / 4.8 / 6.1 lands on 3, 2 and
  // 1 cells per axis, and all three answers must match brute force.
  Rng rng(26);
  const double side = 12.0;
  const Box2 box(side);
  const auto points = uniform_deployment(40, box, rng);
  struct Config {
    double radius;
    std::size_t expected_cells;
  };
  for (const auto& config : {Config{4.0, 3}, Config{4.8, 2}, Config{6.1, 1}}) {
    const CellGrid<2> grid(points, box, config.radius);
    ASSERT_EQ(grid.cells_per_axis(), config.expected_cells) << "radius=" << config.radius;
    EXPECT_EQ(grid_torus_pairs(points, grid, side, config.radius),
              brute_force_torus_pairs(points, side, config.radius))
        << "radius=" << config.radius;
  }
}

TEST(CellGrid, TorusSeamIsVisibleAtExactlyThreeCellsPerAxis) {
  // cells_per_axis == 3 is the first configuration that trusts the wrapped
  // neighborhood scan: a pair straddling the seam must still be found, and
  // only once (at 3 cells, a cell's wrapped 3x3 neighborhood is the whole
  // grid — maximal aliasing pressure on the dedup logic).
  const double side = 12.0;
  const Box2 box(side);
  const std::vector<Point2> points = {
      {{0.5, 6.0}}, {{11.5, 6.0}}, {{6.0, 0.5}}, {{6.0, 11.5}}, {{0.0, 0.0}}, {{12.0, 12.0}}};
  const CellGrid<2> grid(points, box, 4.0);
  ASSERT_EQ(grid.cells_per_axis(), 3u);
  EXPECT_EQ(grid_torus_pairs(points, grid, side, 4.0),
            brute_force_torus_pairs(points, side, 4.0));
}

TEST(CellGrid, RebuildInPlaceAcrossTheTorusFallbackBoundary) {
  // A reused grid crossing the cells_per_axis < 3 boundary in both
  // directions — what a reused engine's doubling loop does when a radius
  // growth coarsens the grid past the fallback threshold and a later solve
  // refines it back. Every rebuild must answer torus queries exactly.
  Rng rng(27);
  const double side = 12.0;
  const Box2 box(side);
  const auto points = uniform_deployment(35, box, rng);
  CellGrid<2> grid;
  for (const double radius : {4.0, 4.8, 6.1, 4.8, 4.0, 2.0, 6.1}) {
    grid.rebuild(points, box, radius);
    const CellGrid<2> fresh(points, box, radius);
    EXPECT_EQ(grid.cells_per_axis(), fresh.cells_per_axis()) << "radius=" << radius;
    EXPECT_EQ(grid.cell_size(), fresh.cell_size()) << "radius=" << radius;
    EXPECT_EQ(grid_torus_pairs(points, grid, side, radius),
              brute_force_torus_pairs(points, side, radius))
        << "radius=" << radius;
  }
}

TEST(CellGrid, RebuildMatchesFreshlyConstructedGrid) {
  Rng rng(24);
  const Box2 big(100.0);
  const Box2 small(8.0);
  CellGrid<2> reused;
  // Rebuild across different point counts, boxes and cell sizes; every
  // rebuild must answer queries exactly like a grid built from scratch.
  struct Config {
    std::size_t n;
    const Box2* box;
    double cell;
  };
  for (const auto& config : {Config{120, &big, 4.0}, Config{16, &small, 2.0},
                             Config{300, &big, 9.0}, Config{5, &big, 50.0}}) {
    const auto points = uniform_deployment(config.n, *config.box, rng);
    reused.rebuild(points, *config.box, config.cell);
    const CellGrid<2> fresh(points, *config.box, config.cell);
    EXPECT_EQ(reused.cells_per_axis(), fresh.cells_per_axis());
    EXPECT_EQ(reused.cell_size(), fresh.cell_size());
    const double radius = fresh.cell_size();
    std::set<Pair> from_reused;
    reused.for_each_pair_within(radius, [&](std::size_t i, std::size_t j, double) {
      from_reused.emplace(i, j);
    });
    EXPECT_EQ(from_reused, brute_force_pairs(points, radius))
        << "n=" << config.n << " cell=" << config.cell;
  }
}

TEST(CellGrid, RebuildNeverShrinksBelowRequestedCellSize) {
  // The engine's doubling loop relies on this: rebuilding with
  // cell_size = radius always yields a grid whose max_query_radius admits
  // that radius, even when clamping coarsens the cell.
  Rng rng(25);
  const Box2 box(10000.0);
  const auto points = uniform_deployment(50, box, rng);
  CellGrid<2> grid;
  for (double requested : {1e-6, 0.5, 70.0, 20000.0}) {
    grid.rebuild(points, box, requested);
    // Clamping may only coarsen the cells — except the single-cell grid,
    // whose one cell holds everything and accepts any query radius.
    if (grid.cells_per_axis() > 1) {
      EXPECT_GE(grid.cell_size(), requested * (1.0 - 1e-12));
    }
    EXPECT_LE(requested, grid.max_query_radius());
    std::set<Pair> pairs;
    grid.for_each_pair_within(requested, [&](std::size_t i, std::size_t j, double) {
      pairs.emplace(i, j);
    });
    EXPECT_EQ(pairs, brute_force_pairs(points, requested)) << "requested=" << requested;
  }
}

TEST(CellGrid, SingleCellGridAcceptsAnyQueryRadius) {
  const Box2 box(10.0);
  const std::vector<Point2> points = {{{1.0, 1.0}}, {{9.0, 9.0}}};
  const CellGrid<2> grid(points, box, 20.0);
  ASSERT_EQ(grid.cells_per_axis(), 1u);
  // One cell covers everything, so no radius can miss a pair.
  EXPECT_EQ(grid.max_query_radius(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(grid_pairs(points, box, 100.0).size(), 1u);
}

TEST(CellGrid, ReportedDistanceIsExact) {
  const Box2 box(10.0);
  const std::vector<Point2> points = {{{0.0, 0.0}}, {{3.0, 4.0}}};
  const CellGrid<2> grid(points, box, 6.0);
  grid.for_each_pair_within(6.0, [&](std::size_t i, std::size_t j, double d2) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(j, 1u);
    EXPECT_DOUBLE_EQ(d2, 25.0);
  });
}

}  // namespace
}  // namespace manet
