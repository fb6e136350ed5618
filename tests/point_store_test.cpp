// PointStore (geometry/point_store.hpp): the SoA bridge between the public
// AoS `std::span<const Point<D>>` APIs and the batched kernels. The tests pin
// the round-trip exactness of assign/scatter, the permuted gather, and the
// capacity-only growth discipline the zero-steady-state-allocation contract
// depends on.

#include "geometry/point_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "geometry/point.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

template <int D>
std::vector<Point<D>> random_points(std::size_t n, Rng& rng) {
  std::vector<Point<D>> points(n);
  for (auto& p : points) {
    for (int i = 0; i < D; ++i) p.coords[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 9.0);
  }
  return points;
}

template <int D>
void check_roundtrip() {
  Rng rng(11u + static_cast<std::uint64_t>(D));
  const auto points = random_points<D>(37, rng);

  PointStore<D> store;
  store.assign(points);
  ASSERT_EQ(store.size(), points.size());

  // Per-axis layout and element access agree with the AoS source.
  for (std::size_t k = 0; k < points.size(); ++k) {
    EXPECT_EQ(store.get(k), points[k]) << k;
    for (int i = 0; i < D; ++i) {
      EXPECT_EQ(store.axis(i)[k], points[k].coords[static_cast<std::size_t>(i)]);
    }
  }

  // scatter_to restores the AoS form exactly.
  std::vector<Point<D>> back(points.size());
  store.scatter_to(back);
  EXPECT_EQ(back, points);
}

TEST(PointStore, AssignScatterRoundTrip1D) { check_roundtrip<1>(); }
TEST(PointStore, AssignScatterRoundTrip2D) { check_roundtrip<2>(); }
TEST(PointStore, AssignScatterRoundTrip3D) { check_roundtrip<3>(); }

TEST(PointStore, GatherFromAosFollowsTheIdPermutation) {
  Rng rng(5);
  const auto points = random_points<2>(16, rng);
  std::vector<std::size_t> ids(points.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  // An arbitrary permutation: reverse.
  std::reverse(ids.begin(), ids.end());

  PointStore<2> store;
  store.assign_gather(std::span<const Point<2>>(points), std::span<const std::size_t>(ids));
  ASSERT_EQ(store.size(), points.size());
  for (std::size_t s = 0; s < ids.size(); ++s) EXPECT_EQ(store.get(s), points[ids[s]]) << s;
}

TEST(PointStore, SetAndGet) {
  PointStore<2> a;
  a.resize(2);
  a.set(0, Point<2>{{1.0, 2.0}});
  a.set(1, Point<2>{{3.0, 4.0}});
  a.set(0, Point<2>{{9.0, 9.0}});
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.get(0), (Point<2>{{9.0, 9.0}}));
  EXPECT_EQ(a.get(1), (Point<2>{{3.0, 4.0}}));
}

TEST(PointStore, AxesPointersMatchAxisAccessors) {
  Rng rng(7);
  const auto points = random_points<3>(9, rng);
  PointStore<3> store;
  store.assign(points);
  const kernels::AxisPointers<3> axes = store.axes();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(axes[static_cast<std::size_t>(i)], store.axis(i));
  const kernels::MutableAxisPointers<3> maxes = store.mutable_axes();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(maxes[static_cast<std::size_t>(i)], store.axis(i));
}

TEST(PointStore, ShrinkingKeepsCapacityAndClearIsLogical) {
  PointStore<2> store;
  store.resize(100);
  const double* axis0 = store.axis(0);
  store.clear();
  EXPECT_TRUE(store.empty());
  store.resize(100);  // must reuse the same buffer — capacity never shrinks
  EXPECT_EQ(store.axis(0), axis0);
}

}  // namespace
}  // namespace manet
