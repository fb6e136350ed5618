#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "graph/union_find.hpp"
#include "support/error.hpp"
#include "topology/emst_grid.hpp"
#include "topology/mst.hpp"

namespace manet {

/// The RANGE ASSIGNMENT problem of the paper's companion work [11] (Santi,
/// Blough, Vainstein, MobiHoc 2001) and the topology-control literature it
/// cites [6, 9, 10]: instead of one common transmitting range, give every
/// node its own range r_i such that the induced symmetric communication
/// graph — edge (u, v) iff BOTH u and v can reach each other, i.e.
/// dist(u,v) <= min(r_u, r_v) — is connected, minimizing the total energy
/// cost  sum_i r_i^alpha.
class RangeAssignment {
 public:
  /// Takes per-node ranges. Throws ConfigError (in every build mode) unless
  /// all ranges are >= 0 — this is a user-configuration boundary, reachable
  /// straight from CLI input.
  explicit RangeAssignment(std::vector<double> ranges);

  std::size_t node_count() const noexcept { return ranges_.size(); }
  std::span<const double> ranges() const noexcept { return ranges_; }
  /// Requires node < node_count() (programmer contract: ContractViolation).
  double range(std::size_t node) const;

  /// Total energy cost sum_i r_i^alpha. Throws ConfigError unless alpha is
  /// finite and >= 1 (matching EnergyModel's constructor).
  double cost(double alpha = 2.0) const;

  /// The largest assigned range (the worst single node's exposure).
  double max_range() const;

 private:
  std::vector<double> ranges_;
};

/// The homogeneous assignment the paper analyses: every node gets the
/// critical (common) transmitting range of the point set, whose points lie
/// inside `box` (the deployment region).
template <int D>
RangeAssignment homogeneous_assignment(std::span<const Point<D>> points, const Box<D>& box);

/// The MST-based per-node assignment: r_i is the length of the longest MST
/// edge incident to node i. This keeps every MST edge bidirectional, so the
/// symmetric communication graph contains the MST and is connected; the
/// construction is the classical 2-approximation for minimum-cost symmetric
/// range assignment. Points must lie inside `box`.
template <int D>
RangeAssignment mst_assignment(std::span<const Point<D>> points, const Box<D>& box);

/// True iff the symmetric communication graph induced by `assignment` over
/// `points` (edge iff dist <= min(r_u, r_v)) is connected. O(n^2).
template <int D>
bool symmetric_graph_connected(std::span<const Point<D>> points,
                               const RangeAssignment& assignment);

/// Fraction of homogeneous cost saved by the MST-based per-node assignment,
/// 1 - cost_mst / cost_homogeneous, at path-loss exponent alpha. Returns 0
/// for n <= 1 (both costs are 0).
template <int D>
double per_node_assignment_savings(std::span<const Point<D>> points, const Box<D>& box,
                                   double alpha = 2.0);

// ---------------------------------------------------------------------------
// Template definitions.
// ---------------------------------------------------------------------------

template <int D>
RangeAssignment homogeneous_assignment(std::span<const Point<D>> points, const Box<D>& box) {
  EmstEngine<D> engine;
  const double rc = tree_bottleneck(engine.euclidean(points, box));
  return RangeAssignment(std::vector<double>(points.size(), rc));
}

template <int D>
RangeAssignment mst_assignment(std::span<const Point<D>> points, const Box<D>& box) {
  std::vector<double> ranges(points.size(), 0.0);
  EmstEngine<D> engine;
  for (const WeightedEdge& e : engine.euclidean(points, box)) {
    ranges[e.u] = std::max(ranges[e.u], e.weight);
    ranges[e.v] = std::max(ranges[e.v], e.weight);
  }
  return RangeAssignment(std::move(ranges));
}

template <int D>
bool symmetric_graph_connected(std::span<const Point<D>> points,
                               const RangeAssignment& assignment) {
  MANET_EXPECTS(points.size() == assignment.node_count());
  if (points.size() <= 1) return true;

  UnionFind dsu(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double allowed = std::min(assignment.range(i), assignment.range(j));
      if (squared_distance(points[i], points[j]) <= allowed * allowed) dsu.unite(i, j);
    }
  }
  return dsu.all_connected();
}

template <int D>
double per_node_assignment_savings(std::span<const Point<D>> points, const Box<D>& box,
                                   double alpha) {
  if (points.size() <= 1) return 0.0;
  // One tree serves both: the largest incident MST weight is the bottleneck,
  // which is the homogeneous assignment's common range.
  const RangeAssignment mst = mst_assignment(points, box);
  const double homogeneous =
      RangeAssignment(std::vector<double>(points.size(), mst.max_range())).cost(alpha);
  const double per_node = mst.cost(alpha);
  MANET_ENSURES(homogeneous > 0.0);
  return 1.0 - per_node / homogeneous;
}

}  // namespace manet
