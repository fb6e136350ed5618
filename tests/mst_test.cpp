#include "topology/mst.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geometry/box.hpp"
#include "graph/union_find.hpp"
#include "sim/deployment.hpp"
#include "support/reference_mst.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

/// Kruskal over all O(n^2) edges: the independent reference implementation.
template <int D>
std::vector<WeightedEdge> kruskal_mst(const std::vector<Point<D>>& points) {
  std::vector<WeightedEdge> edges;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      edges.push_back({i, j, distance(points[i], points[j])});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) { return a.weight < b.weight; });
  std::vector<WeightedEdge> tree;
  UnionFind dsu(points.size());
  for (const WeightedEdge& e : edges) {
    if (dsu.unite(e.u, e.v)) tree.push_back(e);
  }
  return tree;
}

TEST(EuclideanMst, TrivialInputs) {
  const std::vector<Point2> none;
  EXPECT_TRUE(euclidean_mst<2>(none).empty());

  const std::vector<Point2> one = {{{1.0, 1.0}}};
  EXPECT_TRUE(euclidean_mst<2>(one).empty());

  const std::vector<Point2> two = {{{0.0, 0.0}}, {{3.0, 4.0}}};
  const auto mst = euclidean_mst<2>(two);
  ASSERT_EQ(mst.size(), 1u);
  EXPECT_DOUBLE_EQ(mst[0].weight, 5.0);
}

TEST(EuclideanMst, HandComputedSquare) {
  // Unit square + center point: MST connects center to all? No — center at
  // distance sqrt(0.5)/... compute: corners pairwise 1.0 or sqrt(2); center
  // to corner = sqrt(0.5) ~ 0.707. MST = 4 center-corner edges.
  const std::vector<Point2> points = {
      {{0.0, 0.0}}, {{1.0, 0.0}}, {{1.0, 1.0}}, {{0.0, 1.0}}, {{0.5, 0.5}}};
  const auto mst = euclidean_mst<2>(points);
  ASSERT_EQ(mst.size(), 4u);
  for (const auto& e : mst) EXPECT_NEAR(e.weight, std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(tree_total_weight(mst), 4.0 * std::sqrt(0.5), 1e-12);
}

TEST(EuclideanMst, IsSpanningTree) {
  Rng rng(1);
  const Box2 box(100.0);
  const auto points = uniform_deployment(50, box, rng);
  const auto mst = euclidean_mst<2>(points);
  ASSERT_EQ(mst.size(), 49u);
  UnionFind dsu(points.size());
  for (const auto& e : mst) {
    EXPECT_TRUE(dsu.unite(e.u, e.v)) << "cycle edge in MST";
    EXPECT_NEAR(e.weight, distance(points[e.u], points[e.v]), 1e-12);
  }
  EXPECT_TRUE(dsu.all_connected());
}

TEST(EuclideanMst, TotalWeightMatchesKruskal) {
  Rng rng(2);
  const Box2 box(50.0);
  for (int trial = 0; trial < 10; ++trial) {
    const auto points = uniform_deployment(40, box, rng);
    const auto prim = euclidean_mst<2>(points);
    const auto kruskal = kruskal_mst<2>(points);
    EXPECT_NEAR(tree_total_weight(prim), tree_total_weight(kruskal), 1e-9);
    EXPECT_NEAR(tree_bottleneck(prim), tree_bottleneck(kruskal), 1e-9);
  }
}

TEST(EuclideanMst, WorksIn1DAnd3D) {
  Rng rng(3);
  const Box1 line(100.0);
  const auto points_1d = uniform_deployment(30, line, rng);
  const auto mst_1d = euclidean_mst<1>(points_1d);
  EXPECT_NEAR(tree_total_weight(mst_1d), tree_total_weight(kruskal_mst<1>(points_1d)), 1e-9);

  const Box3 cube(20.0);
  const auto points_3d = uniform_deployment(25, cube, rng);
  const auto mst_3d = euclidean_mst<3>(points_3d);
  EXPECT_NEAR(tree_total_weight(mst_3d), tree_total_weight(kruskal_mst<3>(points_3d)), 1e-9);
}

TEST(EuclideanMst, CoincidentPointsGiveZeroWeightEdges) {
  const std::vector<Point2> points = {{{1.0, 1.0}}, {{1.0, 1.0}}, {{2.0, 2.0}}};
  const auto mst = euclidean_mst<2>(points);
  ASSERT_EQ(mst.size(), 2u);
  EXPECT_NEAR(tree_bottleneck(mst), std::sqrt(2.0), 1e-12);
}

TEST(TreeBottleneck, EmptyTreeIsZero) {
  const std::vector<WeightedEdge> none;
  EXPECT_DOUBLE_EQ(tree_bottleneck(none), 0.0);
  EXPECT_DOUBLE_EQ(tree_total_weight(none), 0.0);
}

TEST(TreeBottleneck, PicksMaximum) {
  const std::vector<WeightedEdge> tree = {{0, 1, 2.0}, {1, 2, 5.0}, {2, 3, 1.0}};
  EXPECT_DOUBLE_EQ(tree_bottleneck(tree), 5.0);
  EXPECT_DOUBLE_EQ(tree_total_weight(tree), 8.0);
}

}  // namespace
}  // namespace manet
