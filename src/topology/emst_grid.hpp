#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/cell_grid.hpp"
#include "geometry/point.hpp"
#include "geometry/point_store.hpp"
#include "topology/emst_candidates.hpp"
#include "topology/mst.hpp"

namespace manet {

/// Per-solve diagnostics of the adaptive EMST engine, exposed for the
/// property tests.
struct EmstGridStats {
  std::size_t rounds = 0;           ///< adaptive doubling rounds taken (grid path)
  std::size_t candidate_edges = 0;  ///< edges enumerated in the final round
  double final_radius = 0.0;        ///< radius at which the candidate graph spanned
  bool dense_fallback = false;      ///< true when the dense Prim path was selected
};

/// Euclidean MST engine with two paths picked by n alone: a vectorized dense
/// Prim up to a few hundred nodes, and a filtered-Kruskal over the candidate
/// edges enumerated by a CellGrid at an adaptive doubling radius above that.
///
/// Dense path (n < kDenseCutoff, or n < kTorusDenseCutoff under the torus
/// metric, or an initial radius a large fraction of the region side): Prim
/// over a compacted fringe in SoA form. Each round makes one
/// kernels::prim_relax_argmin call (geometry/distance_kernels.hpp) that
/// relaxes every fringe vertex against the vertex added last and returns the
/// closest, then swap-removes it. Among equal keys the smallest vertex id
/// wins, as in `mst_with_metric`, so the dense tree equals that reference
/// edge for edge. Below the cutoff the grid prunes too few pairs to pay for
/// its rebinning, sort and Kruskal.
///
/// Grid path: the search starts near the expected connectivity threshold
/// l * (log n / n)^(1/D) (the critical-range scale of random geometric
/// graphs), runs Kruskal over the pairs within that radius, and doubles the
/// radius — rebinning the grid so the `radius <= cell_size` query
/// precondition keeps holding — until the candidate graph spans. Expected
/// cost is O(n log n) per solve instead of dense Prim's O(n^2).
///
/// VALUE IDENTITY: the returned tree has exactly the same edge-weight
/// multiset as the dense reference (`mst_with_metric`, a test-only oracle in
/// tests/support/reference_mst.hpp) — all
/// minimum spanning trees of a graph share it — and weights go through the
/// same squared-distance + covering_radius arithmetic, so every quantity the
/// simulator derives from the tree (bottleneck / critical radius,
/// largest-component breakpoint curve, total weight) is bit-identical to the
/// dense result. The PR 2 golden MTRM checksums are the regression gate.
///
/// Both paths order their edges with the routines of
/// topology/emst_candidates.hpp (the radix sort_candidates and, on the grid
/// path, the 32-bit KruskalForest), so both emit one (d2, u, v) order. The
/// engine is a reusable workspace: the fringe, grid, candidate buffer, forest
/// and result tree all retain capacity across solves (the sort's scatter
/// buffer is the thread's), so a hot loop (one solve per mobility step)
/// performs no steady-state heap allocations. It is NOT
/// thread-safe; use one engine per thread (see sim/trace_workspace.hpp).
template <int D>
class EmstEngine {
 public:
  /// n below which the Euclidean dense path runs. Timed against the grid
  /// path (DESIGN.md §10), dense Prim was faster at every n <= 896 measured,
  /// on uniform sets in D = 1, 2, 3 and on paper-density waypoint and
  /// drunkard traces; at n = 1024 the grid won in D = 2 and on drunkard.
  static constexpr std::size_t kDenseCutoff = 897;

  /// n below which the torus dense path runs. Its relax round is the
  /// portable loop: the wrap-aware grid was already faster at n = 96 in
  /// D = 1, 2, dense Prim up to n = 256 in D = 3, so no single cutoff wins
  /// in every D (DESIGN.md §10).
  static constexpr std::size_t kTorusDenseCutoff = 129;

  /// n below which max_nearest_neighbor_range runs its all-pairs loop
  /// instead of the grid search; the cutoffs above govern the MST paths only.
  /// Timed per call on uniform sets (x86-64, -O3), all-pairs vs grid: D = 1
  /// 2.9 vs 2.2 µs at n = 48 and 26.4 vs 9.3 µs at n = 128; D = 2 6.7 vs
  /// 8.5 µs at n = 64 and 27.3 vs 27.9 µs at n = 128; D = 3 27.0 vs 39.7 µs
  /// at n = 128. No single threshold wins on every D; 32 keeps most of the
  /// grid's D = 1 advantage.
  static constexpr std::size_t kNearestNeighborDenseCutoff = 32;

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
  template <bool Torus>
  std::span<const WeightedEdge> solve(std::span<const Point<D>> points, double side);

  template <bool Torus>
  void dense_prim(std::span<const Point<D>> points, double side);

  /// Starting radius of the doubling search: the connectivity threshold
  /// scale l * (log n / n)^(1/D) of random geometric graphs.
  static double initial_radius(std::size_t n, double side);

  CellGrid<D> grid_;
  detail::KruskalForest dsu_;
  detail::CandidateBuffer candidates_;
  std::vector<WeightedEdge> mst_;
  std::vector<double> nn2_;
  // Dense-path fringe, compacted into slots [0, count): coordinates, best
  // squared distance to the tree, the tree vertex at that distance, and the
  // vertex id (pooled so the dense path is allocation-free too).
  PointStore<D> fringe_;
  std::vector<double> fringe_best_;
  std::vector<std::uint32_t> fringe_from_;
  std::vector<std::uint32_t> fringe_id_;
  EmstGridStats stats_;
};

}  // namespace manet
