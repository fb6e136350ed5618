#pragma once

#include <algorithm>
#include <array>

#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace manet {

/// Samples a point uniformly in the D-ball of radius `radius` centered at
/// `center`, by rejection from the bounding cube (acceptance >= pi/6 for
/// D<=3). Requires radius > 0.
template <int D>
Point<D> uniform_in_ball(const Point<D>& center, double radius, Rng& rng) {
  MANET_EXPECTS(radius > 0.0);
  const double r2 = radius * radius;
  for (;;) {
    Point<D> offset;
    for (int i = 0; i < D; ++i) offset.coords[i] = rng.uniform(-radius, radius);
    if (squared_norm(offset) <= r2) return center + offset;
  }
}

/// Samples a point uniformly in (ball of radius `radius` around `center`)
/// intersected with `box`. This is the drunkard-model step distribution: the
/// next position "is chosen uniformly at random in the disk of radius m
/// centered at the current node location", restricted to the deployment
/// region.
///
/// Requires radius > 0 and center inside the box; the intersection is then
/// non-empty and rejection sampling from the clipped bounding cube terminates
/// quickly (the intersection covers at least the center's orthant fraction of
/// the clipped cube).
template <int D>
Point<D> uniform_in_ball_in_box(const Point<D>& center, double radius, const Box<D>& box,
                                Rng& rng) {
  MANET_EXPECTS(radius > 0.0);
  MANET_EXPECTS(box.contains(center));

  // The clipped cube, one interval per axis: each draw is Rng::uniform(lo,
  // hi)'s, with its cap below hi taken once per call, not per rejection.
  std::array<UniformInterval, D> axes;
  for (int i = 0; i < D; ++i) {
    axes[i] = UniformInterval(std::max(0.0, center.coords[i] - radius),
                              std::min(box.side(), center.coords[i] + radius));
  }

  const double r2 = radius * radius;
  for (;;) {
    Point<D> p;
    for (int i = 0; i < D; ++i) p.coords[i] = axes[i](rng);
    if (squared_distance(p, center) <= r2) {
      MANET_ENSURE(box.contains(p));
      return p;
    }
  }
}

/// Samples a unit vector uniformly on the (D-1)-sphere. Used by the
/// random-direction mobility extension.
template <int D>
Point<D> uniform_direction(Rng& rng) {
  for (;;) {
    Point<D> v;
    for (int i = 0; i < D; ++i) v.coords[i] = rng.uniform(-1.0, 1.0);
    const double n2 = squared_norm(v);
    if (n2 > 1e-12 && n2 <= 1.0) {
      const double inv = 1.0 / std::sqrt(n2);
      return v * inv;
    }
  }
}

}  // namespace manet
