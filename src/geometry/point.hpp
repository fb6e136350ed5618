#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>

#include "geometry/distance_kernels.hpp"

namespace manet {

/// A point in D-dimensional Euclidean space. D is a compile-time constant:
/// the paper analyses d=1 (Section 3) and simulates d=2 (Section 4); d=3 is
/// supported throughout as an extension.
template <int D>
struct Point {
  static_assert(D >= 1 && D <= 3, "the library supports 1-, 2- and 3-dimensional regions");

  std::array<double, D> coords{};

  static constexpr int dimension = D;

  constexpr double& operator[](std::size_t axis) { return coords[axis]; }
  constexpr double operator[](std::size_t axis) const { return coords[axis]; }

  friend constexpr bool operator==(const Point& a, const Point& b) = default;

  constexpr Point& operator+=(const Point& o) {
    for (int i = 0; i < D; ++i) coords[i] += o.coords[i];
    return *this;
  }
  constexpr Point& operator-=(const Point& o) {
    for (int i = 0; i < D; ++i) coords[i] -= o.coords[i];
    return *this;
  }
  constexpr Point& operator*=(double s) {
    for (int i = 0; i < D; ++i) coords[i] *= s;
    return *this;
  }

  friend constexpr Point operator+(Point a, const Point& b) { return a += b; }
  friend constexpr Point operator-(Point a, const Point& b) { return a -= b; }
  friend constexpr Point operator*(Point a, double s) { return a *= s; }
  friend constexpr Point operator*(double s, Point a) { return a *= s; }
};

using Point1 = Point<1>;
using Point2 = Point<2>;
using Point3 = Point<3>;

/// Squared Euclidean distance (avoids the sqrt in hot loops; the point-graph
/// edge test `dist <= r` is done as `dist2 <= r*r`). Delegates to the shared
/// scalar core in geometry/distance_kernels.hpp — the single definition the
/// batched SIMD kernels are pinned bit-identical to.
template <int D>
constexpr double squared_distance(const Point<D>& a, const Point<D>& b) {
  return kernels::squared_distance_scalar<D>(a.coords.data(), b.coords.data());
}

/// Euclidean distance.
template <int D>
double distance(const Point<D>& a, const Point<D>& b) {
  return std::sqrt(squared_distance(a, b));
}

/// Squared Euclidean norm.
template <int D>
constexpr double squared_norm(const Point<D>& p) {
  double sum = 0.0;
  for (int i = 0; i < D; ++i) sum += p.coords[i] * p.coords[i];
  return sum;
}

/// Euclidean norm.
template <int D>
double norm(const Point<D>& p) {
  return std::sqrt(squared_norm(p));
}

/// The least double r >= 0 passing the edge test squared <= (r * reach)^2,
/// or infinity if no finite r does; requires reach >= 0. The test is monotone
/// in r, and non-negative doubles order like their bits: gallop from the
/// estimate sqrt(squared) / reach in doubling steps, then bisect. Two tests
/// when the estimate is within an ulp, at most ~130 (subnormal squares).
inline double admitting_scale(double squared, double reach) {
  const auto admits = [&](std::uint64_t bits) {
    const double range = std::bit_cast<double>(bits) * reach;
    return squared <= range * range;
  };
  if (squared == 0.0) return 0.0;
  std::uint64_t lo = 0;  // rejects; hi admits unless no finite r does
  std::uint64_t hi = std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
  const std::uint64_t probe = std::min(std::bit_cast<std::uint64_t>(std::sqrt(squared) / reach),
                                       hi - 1);
  std::uint64_t step = 1;
  if (admits(probe)) {
    for (hi = probe; step < hi - lo && admits(hi - step); step *= 2) hi -= step;
    if (step < hi - lo) lo = hi - step;
  } else {
    for (lo = probe; step < hi - lo && !admits(lo + step); step *= 2) lo += step;
    if (step < hi - lo) hi = lo + step;
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (admits(mid) ? hi : lo) = mid;
  }
  return std::bit_cast<double>(hi);
}

/// The smallest double r with r*r >= squared (plain sqrt can be an ulp short):
/// every range derived from a distance (MST weights, critical radii) uses it.
inline double covering_radius(double squared) { return admitting_scale(squared, 1.0); }

template <int D>
std::ostream& operator<<(std::ostream& out, const Point<D>& p) {
  out << '(';
  for (int i = 0; i < D; ++i) {
    if (i > 0) out << ", ";
    out << p.coords[i];
  }
  return out << ')';
}

}  // namespace manet
