#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/torus.hpp"
#include "graph/union_find.hpp"
#include "support/error.hpp"
#include "topology/emst_grid.hpp"
#include "topology/mst.hpp"

namespace manet {

/// Critical transmission radius rc(P) of a point set P: the minimum common
/// range r such that the induced communication graph is connected. The graph
/// is connected at range r iff r >= rc(P), which turns every "connected
/// during fraction f of the time" question into a quantile of per-step
/// critical radii (see DESIGN.md §2).
///
/// rc equals the bottleneck (longest edge) of the Euclidean MST. Returns 0
/// for n <= 1 point sets (vacuously connected).
template <int D>
double critical_range(std::span<const Point<D>> points) {
  if constexpr (D == 1) {
    // 1-D specialization: the graph is connected iff no gap between
    // consecutive sorted positions exceeds r, so rc is the largest gap.
    if (points.size() <= 1) return 0.0;
    std::vector<double> xs;
    xs.reserve(points.size());
    for (const auto& p : points) xs.push_back(p.coords[0]);
    std::sort(xs.begin(), xs.end());
    double max_gap = 0.0;
    for (std::size_t i = 1; i < xs.size(); ++i) max_gap = std::max(max_gap, xs[i] - xs[i - 1]);
    return max_gap;
  } else {
    const auto mst = euclidean_mst(points);
    return tree_bottleneck(mst);
  }
}

/// Grid-accelerated critical range for points inside `box` (the deployment
/// region): expected O(n log n) via the adaptive EMST engine
/// (topology/emst_grid.hpp), bit-identical to the dense overload above.
template <int D>
double critical_range(std::span<const Point<D>> points, const Box<D>& box) {
  if constexpr (D == 1) {
    return critical_range<1>(points);  // the sort specialization is already O(n log n)
  } else {
    EmstEngine<D> engine;
    return tree_bottleneck(engine.euclidean(points, box));
  }
}

/// The largest-connected-component size of a point graph as a function of
/// the transmitting range r: a right-continuous nondecreasing step function.
///
/// As r grows, components merge exactly at MST edge weights (Kruskal's merge
/// process), so the whole curve has at most n-1 breakpoints and is computed
/// once per point set from its EMST — expected O(n log n) through the grid
/// engine (topology/emst_grid.hpp), O(n^2) on the dense Prim fallback the
/// engine selects for tiny n. It answers, with no further simulation:
///   - largest component size at any range r,
///   - the minimum range making the largest component >= a target size
///     (the paper's rl90 / rl75 / rl50 quantities),
///   - the critical range (target size = n).
class LargestComponentCurve {
 public:
  /// A point at which the largest component grows to `size` (at range
  /// `range`, inclusive).
  struct Breakpoint {
    double range;
    std::size_t size;
  };

  /// Builds the curve from MST edges (any order). `n` is the point count.
  LargestComponentCurve(std::size_t n, std::vector<WeightedEdge> mst_edges);

  /// Workspace variant for the mobile hot path: takes MST edges already
  /// sorted ascending by weight (the EmstEngine output contract), a reusable
  /// union-find and a reusable breakpoint scratch buffer. The only heap
  /// allocation is the exact-size copy of the breakpoints retained by the
  /// curve itself, so one mobility step costs O(1) allocations.
  LargestComponentCurve(std::size_t n, std::span<const WeightedEdge> sorted_mst_edges,
                        UnionFind& dsu, std::vector<Breakpoint>& scratch);

  std::size_t node_count() const noexcept { return n_; }

  /// Largest component size at transmitting range r (>= 0).
  std::size_t largest_component_at(double range) const;

  /// Largest component size as a fraction of n at range r; 1.0 when n == 0.
  double largest_fraction_at(double range) const;

  /// Minimum range at which the largest component reaches at least
  /// `target_size` nodes. Requires 0 < target_size <= n.
  double range_for_size(std::size_t target_size) const;

  /// Minimum range making the graph connected (= critical range).
  double critical_range() const;

  std::span<const Breakpoint> breakpoints() const noexcept { return breakpoints_; }

 private:
  /// Kruskal merge process over weight-sorted MST edges, appending the
  /// resulting step function to `out` (cleared first).
  static void build_from_sorted(std::size_t n, std::span<const WeightedEdge> sorted_edges,
                                UnionFind& dsu, std::vector<Breakpoint>& out);

  std::size_t n_;
  // Ascending in range and in size; first entry is {0, min(1,n)}.
  std::vector<Breakpoint> breakpoints_;
};

/// Convenience builder: curve of the communication graph over `points`,
/// via the dense EMST path (no deployment box required).
template <int D>
LargestComponentCurve largest_component_curve(std::span<const Point<D>> points) {
  return LargestComponentCurve(points.size(), euclidean_mst(points));
}

/// Grid-accelerated builder for points inside `box`: same curve, bit for
/// bit, at expected O(n log n). The mobile simulator's step loop uses the
/// kinetic form in sim/trace_workspace.hpp instead, which repairs one step's
/// tree into the next.
template <int D>
LargestComponentCurve largest_component_curve(std::span<const Point<D>> points,
                                              const Box<D>& box) {
  EmstEngine<D> engine;
  UnionFind dsu(points.size());
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  return LargestComponentCurve(points.size(), engine.euclidean(points, box), dsu, scratch);
}

/// The minimum transmitting range at which NO node is isolated: the largest
/// nearest-neighbor distance, max_i min_{j != i} dist(i, j). Always a lower
/// bound on the critical range; the two coincide exactly when the last
/// obstacle to connectivity is a lone node (the paper's observed
/// disconnection mode, and asymptotically almost always in random geometric
/// graphs — Penrose's theorem). Returns 0 for n <= 1. Expected O(n log n)
/// via the adaptive-radius CellGrid nearest-neighbor query.
template <int D>
double isolation_range(std::span<const Point<D>> points, const Box<D>& box) {
  EmstEngine<D> engine;
  return engine.max_nearest_neighbor_range(points, box);
}

/// Overload for point sets without a known deployment box: derives the
/// enclosing [0, side]^D region. Point sets with negative coordinates (not
/// produced by any deployment in this library) take a dense O(n^2) scan.
template <int D>
double isolation_range(std::span<const Point<D>> points) {
  const std::size_t n = points.size();
  if (n <= 1) return 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& p : points) {
    for (int axis = 0; axis < D; ++axis) {
      lo = std::min(lo, p.coords[axis]);
      hi = std::max(hi, p.coords[axis]);
    }
  }
  if (lo >= 0.0) {
    return isolation_range(points, Box<D>(hi > 0.0 ? hi : 1.0));
  }
  double worst_nn2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double nn2 = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) nn2 = std::min(nn2, squared_distance(points[i], points[j]));
    }
    worst_nn2 = std::max(worst_nn2, nn2);
  }
  return covering_radius(worst_nn2);
}

/// EXTENSION: critical transmission radius under the flat-torus metric on
/// [0, side]^D (wrap-around distances). The Euclidean-vs-torus gap measures
/// the boundary effect on the required range (bench/ablation_boundary).
/// Requires all points inside [0, side]^D; grid-accelerated with wrap-aware
/// neighbor cells (topology/emst_grid.hpp).
template <int D>
double torus_critical_range(std::span<const Point<D>> points, double side) {
  EmstEngine<D> engine;
  return tree_bottleneck(engine.torus(points, side));
}

}  // namespace manet
