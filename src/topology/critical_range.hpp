#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/cell_grid.hpp"
#include "geometry/point.hpp"
#include "graph/link_model.hpp"
#include "graph/union_find.hpp"
#include "support/error.hpp"
#include "topology/emst_grid.hpp"
#include "topology/mst.hpp"

namespace manet {

/// Critical transmission radius rc(P) of a point set P inside `box` (the
/// deployment region): the minimum common range r such that the induced
/// communication graph is connected. The graph is connected at range r iff
/// r >= rc(P), which turns every "connected during fraction f of the time"
/// question into a quantile of per-step critical radii (see DESIGN.md §2).
///
/// rc equals the bottleneck (longest edge) of the Euclidean MST, solved in
/// expected O(n log n) by the adaptive EMST engine (topology/emst_grid.hpp).
/// Returns 0 for n <= 1 point sets (vacuously connected).
template <int D>
double critical_range(std::span<const Point<D>> points, const Box<D>& box) {
  if constexpr (D == 1) {
    // 1-D specialization: the graph is connected iff r covers every gap
    // between consecutive sorted positions, so rc covers the largest gap.
    if (points.size() <= 1) return 0.0;
    std::vector<double> xs;
    xs.reserve(points.size());
    for (const auto& p : points) xs.push_back(p.coords[0]);
    std::sort(xs.begin(), xs.end());
    double max_gap = 0.0;
    for (std::size_t i = 1; i < xs.size(); ++i) max_gap = std::max(max_gap, xs[i] - xs[i - 1]);
    return covering_radius(max_gap * max_gap);
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
/// once per point set from its EMST (topology/emst_grid.hpp; the mobile step
/// loop keeps the engine in sim/trace_workspace.hpp). It answers, with
/// no further simulation:
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

namespace detail {

/// Per-node outgoing arcs (head, admitting scale) of link_model_critical_range.
using ScaledArcs = std::vector<std::vector<std::pair<std::uint32_t, double>>>;

/// The smallest scale at which node 0 reaches every node over `arcs`, or
/// infinity if none does (a bottleneck path search; needs one node).
double bottleneck_reach_scale(const ScaledArcs& arcs);

}  // namespace detail

/// Critical scale parameter of a deployment under an arbitrary link-model
/// family: the minimum r such that `family.at_range(r, n, fading_seed)`
/// makes the communication graph (strongly) connected.
///
/// Exact for every family (DESIGN.md §17): each arc has one admitting_scale,
/// and the answer is the larger of two bottleneck path searches from node 0,
/// over the arcs and over the reversed arcs (for the unit disk, the EMST
/// bottleneck: bit-identical to critical_range). The searches see the pairs
/// within a radius R that doubles from the Euclidean critical range up to
/// the box diagonal. An answer r is final once r * max_link_distance() of
/// the scale-1 model stays within R: no pair left out is admitted at r.
///
/// Deterministic in `fading_seed`. Returns 0 for n <= 1 and for coincident
/// points; throws ConfigError when the critical scale overflows a double.
template <int D>
double link_model_critical_range(std::span<const Point<D>> points, const Box<D>& box,
                                 const LinkModelFamily& family, std::uint64_t fading_seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = points.size();
  if (n <= 1) return 0.0;
  double radius = critical_range<D>(points, box);
  if (radius == 0.0) return 0.0;

  const auto unit = family.at_range(1.0, n, fading_seed);
  const bool directed = unit->symmetry() == LinkSymmetry::kDirected;
  CellGrid<D> grid;
  detail::ScaledArcs out(n);
  detail::ScaledArcs in(directed ? n : 0);  // the reversed arcs
  for (;; radius = std::min(2.0 * radius, box.diagonal())) {
    grid.rebuild(points, box, radius);
    // A single-cell grid compares every pair: the candidates are complete.
    const bool complete = grid.cells_per_axis() == 1;
    for (auto& arcs : out) arcs.clear();
    for (auto& arcs : in) arcs.clear();
    grid.for_each_pair_within(complete ? kInf : radius, [&](std::size_t i, std::size_t j,
                                                           double d2) {
      const double forward = admitting_scale(d2, unit->arc_reach(i, j));
      const double backward = directed ? admitting_scale(d2, unit->arc_reach(j, i)) : forward;
      out[i].emplace_back(static_cast<std::uint32_t>(j), forward);
      out[j].emplace_back(static_cast<std::uint32_t>(i), backward);
      if (directed) {
        in[j].emplace_back(static_cast<std::uint32_t>(i), forward);
        in[i].emplace_back(static_cast<std::uint32_t>(j), backward);
      }
    });
    double scale = detail::bottleneck_reach_scale(out);
    if (directed) scale = std::max(scale, detail::bottleneck_reach_scale(in));
    if (complete || scale * unit->max_link_distance() <= radius) {
      if (scale == kInf) throw ConfigError("link_model_critical_range: scale overflows a double");
      return scale;
    }
  }
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
