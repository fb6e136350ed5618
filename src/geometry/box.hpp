#pragma once

#include <algorithm>
#include <cmath>

#include "geometry/point.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace manet {

/// Whether `side` can size a region [0, side]^D for every dimension the
/// library instantiates (D <= 3): side is finite and D * side^2, the largest
/// squared distance in the region, is a finite, normal double. That is
/// side in [sqrt(DBL_MIN), sqrt(DBL_MAX / 3)] ~ [1.5e-154, 7.7e153]. Above
/// it a far pair's squared distance overflows to inf (and the sorted
/// candidate keys become NaN); below it the squared radii flush towards
/// zero. Configuration validators reject other sides with ConfigError.
inline bool region_side_in_range(double side) noexcept {
  constexpr double kMaxDimension = 3.0;
  const double side2 = side * side;
  return std::isfinite(side) && std::isnormal(side2) && std::isfinite(kMaxDimension * side2);
}

/// The deployment region [0, l]^D of the paper ("the d-dimensional cube of
/// side l"). All placements and mobility trajectories are confined to it.
template <int D>
class Box {
 public:
  /// Requires side > 0.
  explicit Box(double side) : side_(side) { MANET_EXPECTS(side > 0.0); }

  double side() const noexcept { return side_; }

  /// Hyper-volume l^D.
  double volume() const noexcept {
    double v = 1.0;
    for (int i = 0; i < D; ++i) v *= side_;
    return v;
  }

  /// Length of the main diagonal, sqrt(D) * l — the worst-case transmitting
  /// range needed when node positions are adversarial (Section 2).
  double diagonal() const noexcept {
    double s = 0.0;
    for (int i = 0; i < D; ++i) s += side_ * side_;
    return std::sqrt(s);
  }

  bool contains(const Point<D>& p) const noexcept {
    for (int i = 0; i < D; ++i) {
      if (p.coords[i] < 0.0 || p.coords[i] > side_) return false;
    }
    return true;
  }

  /// Projects p onto the box (component-wise clamp).
  Point<D> clamp(Point<D> p) const noexcept {
    for (int i = 0; i < D; ++i) p.coords[i] = std::clamp(p.coords[i], 0.0, side_);
    return p;
  }

  /// Samples a point uniformly at random in the box — the paper's node
  /// placement model ("nodes are distributed independently and uniformly at
  /// random in the placement region").
  Point<D> sample(Rng& rng) const {
    Point<D> p;
    for (int i = 0; i < D; ++i) p.coords[i] = rng.uniform(0.0, side_);
    return p;
  }

 private:
  double side_;
};

using Box1 = Box<1>;
using Box2 = Box<2>;
using Box3 = Box<3>;

}  // namespace manet
