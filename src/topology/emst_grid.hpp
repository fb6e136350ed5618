#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/cell_grid.hpp"
#include "geometry/point.hpp"
#include "graph/union_find.hpp"
#include "topology/mst.hpp"

namespace manet {

/// Starting radius of the adaptive doubling search: the connectivity
/// threshold scale l * (log n / n)^(1/D) of random geometric graphs. Shared
/// by the batch engine below and the kinetic engine
/// (topology/emst_kinetic.hpp) so both select the dense fallback — and start
/// their searches — on exactly the same inputs.
template <int D>
inline double emst_initial_radius(std::size_t n, double side) noexcept {
  const double frac = std::log(static_cast<double>(n)) / static_cast<double>(n);
  return side * std::pow(frac, 1.0 / static_cast<double>(D));
}

/// Per-solve diagnostics of the adaptive EMST engine, exposed for the perf
/// bench (bench/perf_mst.cpp) and the property tests.
struct EmstGridStats {
  std::size_t rounds = 0;           ///< adaptive doubling rounds taken (grid path)
  std::size_t candidate_edges = 0;  ///< edges enumerated in the final round
  double final_radius = 0.0;        ///< radius at which the candidate graph spanned
  bool dense_fallback = false;      ///< true when the dense Prim path was selected
};

/// Grid-accelerated Euclidean MST engine: a filtered-Kruskal over the
/// candidate edges enumerated by a CellGrid at an adaptive doubling radius.
///
/// The search starts near the expected connectivity threshold
/// l * (log n / n)^(1/D) (the critical-range scale of random geometric
/// graphs), runs Kruskal over the pairs within that radius, and doubles the
/// radius — rebinning the grid so the `radius <= cell_size` query
/// precondition keeps holding — until the candidate graph spans. Expected
/// cost is O(n log n) per solve instead of dense Prim's O(n^2); tiny inputs
/// (n < kDenseCutoff) and pathologically dense thresholds (initial radius a
/// large fraction of the region side) take the dense Prim fallback, which is
/// faster there and needs no grid.
///
/// VALUE IDENTITY: the returned tree has exactly the same edge-weight
/// multiset as the dense reference (`mst_with_metric` in topology/mst.hpp,
/// which only the tests and bench/perf_mst call) — all
/// minimum spanning trees of a graph share it — and weights go through the
/// same squared-distance + covering_radius arithmetic, so every quantity the
/// simulator derives from the tree (bottleneck / critical radius,
/// largest-component breakpoint curve, total weight) is bit-identical to the
/// dense result. The PR 2 golden MTRM checksums are the regression gate.
///
/// The engine is a reusable workspace: the grid, candidate buffer, union-find
/// and result tree all retain capacity across solves, so a hot loop (one
/// solve per mobility step) performs no steady-state heap allocations. It is
/// NOT thread-safe; use one engine per thread (see sim/trace_workspace.hpp).
template <int D>
class EmstEngine {
 public:
  /// n below which dense Prim beats building a grid.
  static constexpr std::size_t kDenseCutoff = 32;

  EmstEngine() = default;
  EmstEngine(const EmstEngine&) = delete;
  EmstEngine& operator=(const EmstEngine&) = delete;

  /// Euclidean MST of `points`, all of which must lie inside `box`. Returns
  /// n-1 edges sorted ascending by weight (empty for n <= 1), valid until
  /// the next call on this engine.
  std::span<const WeightedEdge> euclidean(std::span<const Point<D>> points, const Box<D>& box);

  /// MST under the flat-torus metric on [0, side]^D (geometry/torus.hpp).
  /// Same contract as `euclidean`; wrap-aware neighbor cells keep the grid
  /// acceleration exact across the region edges.
  std::span<const WeightedEdge> torus(std::span<const Point<D>> points, double side);

  /// The largest nearest-neighbor distance max_i min_{j != i} dist(i, j)
  /// (= isolation_range, topology/critical_range.hpp), via the same
  /// adaptive-radius grid machinery: a point's nearest neighbor found within
  /// the current radius is exact, so only points with no neighbor yet force
  /// a doubling round. Returns 0 for n <= 1.
  double max_nearest_neighbor_range(std::span<const Point<D>> points, const Box<D>& box);

  /// Diagnostics of the most recent solve.
  const EmstGridStats& stats() const noexcept { return stats_; }

 private:
  /// Candidate edge: squared distance first so the sort key is cache-local.
  struct Candidate {
    double d2;
    std::uint32_t u;
    std::uint32_t v;
  };

  template <bool Torus>
  std::span<const WeightedEdge> solve(std::span<const Point<D>> points, double side);

  template <bool Torus>
  void dense_prim(std::span<const Point<D>> points, double side);

  /// Starting radius of the doubling search: the connectivity threshold
  /// scale l * (log n / n)^(1/D).
  static double initial_radius(std::size_t n, double side);

  CellGrid<D> grid_;
  UnionFind dsu_{0};
  std::vector<Candidate> candidates_;
  std::vector<WeightedEdge> mst_;
  std::vector<double> nn2_;
  // Dense-fallback scratch (pooled so the fallback is allocation-free too).
  std::vector<double> best_d2_;
  std::vector<std::size_t> best_from_;
  std::vector<char> in_tree_;
  EmstGridStats stats_;
};

}  // namespace manet
