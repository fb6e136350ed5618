#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.hpp"
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
/// loop uses the kinetic form in sim/trace_workspace.hpp). It answers, with
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

/// Options of the bisection fallback in link_model_critical_range. The
/// search stops when the bracket width falls below
/// `relative_tolerance * (initial hi)` or after `max_iterations` halvings
/// (80 halvings of any double bracket reach 1 ulp, so the iteration cap is a
/// backstop, not the usual exit).
struct LinkRangeSearchOptions {
  double relative_tolerance = 1e-6;
  std::size_t max_iterations = 80;

  /// Throws ConfigError on out-of-domain values.
  void validate() const {
    if (!(relative_tolerance > 0.0)) {
      throw ConfigError("LinkRangeSearchOptions: relative_tolerance must be > 0");
    }
    if (max_iterations == 0) {
      throw ConfigError("LinkRangeSearchOptions: max_iterations must be >= 1");
    }
  }
};

/// Critical scale parameter of a deployment under an arbitrary link-model
/// family: the minimum r such that `family.at_range(r, n, fading_seed)`
/// makes the communication graph (strongly) connected.
///
/// The paper's exact argument — rc equals the bottleneck edge of the
/// Euclidean MST — holds only for the unit disk, where "edge at range r" is
/// a pure threshold on Euclidean distance. Families that declare
/// `exact_bottleneck()` take that exact path (bit-identical to
/// critical_range). Every other family falls back to deterministic
/// bisection, which is correct because connectivity stays *monotone in r*
/// even under random attenuation: the fading gains are a pure function of
/// (fading_seed, pair) — independent of r — so growing r only ever adds
/// links. The initial bracket is [0, box.diagonal() * family.hi_factor()],
/// connected by the family's hi_factor guarantee (checked).
///
/// Determinism: no randomness is drawn here; everything is keyed by
/// `fading_seed`, so the result is bit-identical at any thread count and
/// across repeated calls. Returns 0 for n <= 1 (vacuously connected).
template <int D>
double link_model_critical_range(std::span<const Point<D>> points, const Box<D>& box,
                                 const LinkModelFamily& family, std::uint64_t fading_seed,
                                 const LinkRangeSearchOptions& options = {}) {
  options.validate();
  if (points.size() <= 1) return 0.0;
  if (family.exact_bottleneck()) {
    return critical_range<D>(points, box);
  }

  const auto connected_at = [&](double r) {
    const auto model = family.at_range(r, points.size(), fading_seed);
    return analyze_link_components<D>(points, box, *model).strongly_connected();
  };

  double lo = 0.0;
  double hi = box.diagonal() * family.hi_factor();
  MANET_EXPECTS(hi > 0.0);
  // The hi_factor contract promises connectivity at the initial hi; a model
  // violating it would silently bisect toward a wrong answer, so check.
  MANET_EXPECTS(connected_at(hi));

  const double width_goal = options.relative_tolerance * hi;
  for (std::size_t iter = 0; iter < options.max_iterations && hi - lo > width_goal; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;  // bracket collapsed to adjacent doubles
    if (connected_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
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
