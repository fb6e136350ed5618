#pragma once

// Dense reference MST for the differential tests: the oracle every EMST
// engine in the library is checked against.

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "geometry/point.hpp"
#include "support/error.hpp"
#include "topology/mst.hpp"

namespace manet {

/// Minimum spanning tree under an arbitrary squared-distance metric, via
/// dense Prim's algorithm: O(n^2) metric evaluations, O(n) space, no edge
/// materialization. This is the test oracle only: no library code calls
/// it. Every solve in the library goes through EmstEngine
/// (topology/emst_grid.hpp), whose own dense path — a vectorized Prim over
/// a compacted fringe, with the same tie rule (equal keys go to the smallest
/// vertex id) — serves n < kDenseCutoff and returns this function's tree
/// edge for edge; the differential tests compare the engine's trees against
/// this function.
///
/// `squared_dist` is any symmetric non-negative function of two points (the
/// Euclidean and torus metrics are the shipped instances). Returns n-1
/// edges (empty for n <= 1), weighted by covering_radius(squared_dist), in
/// the order Prim's algorithm adds them (not sorted by weight).
template <int D, typename SquaredDistFn>
std::vector<WeightedEdge> mst_with_metric(std::span<const Point<D>> points,
                                          SquaredDistFn&& squared_dist) {
  std::vector<WeightedEdge> mst;
  const std::size_t n = points.size();
  if (n <= 1) return mst;
  mst.reserve(n - 1);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best_dist2(n, kInf);
  std::vector<std::size_t> best_from(n, 0);
  std::vector<bool> in_tree(n, false);

  std::size_t current = 0;
  in_tree[0] = true;
  for (std::size_t added = 1; added < n; ++added) {
    // Relax distances against the vertex added last.
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const double d2 = squared_dist(points[current], points[v]);
      if (d2 < best_dist2[v]) {
        best_dist2[v] = d2;
        best_from[v] = current;
      }
    }
    // Pick the closest fringe vertex.
    std::size_t next = n;
    double next_d2 = kInf;
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v] && best_dist2[v] < next_d2) {
        next_d2 = best_dist2[v];
        next = v;
      }
    }
    MANET_ENSURES(next < n);
    in_tree[next] = true;
    mst.push_back({best_from[next], next, covering_radius(next_d2)});
    current = next;
  }
  return mst;
}

/// Euclidean minimum spanning tree: the differential oracle of EmstEngine.
template <int D>
std::vector<WeightedEdge> euclidean_mst(std::span<const Point<D>> points) {
  return mst_with_metric(points,
                         [](const Point<D>& a, const Point<D>& b) {
                           return squared_distance(a, b);
                         });
}

}  // namespace manet
