#pragma once

#include <array>
#include <cstddef>
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
  bool dense_fallback = false;      ///< true when a dense loop ran instead of the grid
};

/// Euclidean (and flat-torus) MST engine. Every tree comes from one path: a
/// filtered-Kruskal over the candidate edges enumerated by a CellGrid at an
/// adaptive doubling radius. Dense mobile steps and stationary critical
/// ranges below kDenseCutoff need only the tree's weights, which
/// prim_order_keys gives them from a vectorized dense Prim without a tree.
///
/// Grid path: the search starts near the expected connectivity threshold
/// l * (log n / n)^(1/D) (the critical-range scale of random geometric
/// graphs), runs Kruskal over the pairs within that radius, and doubles the
/// radius — rebinning the grid so the `radius <= cell_size` query
/// precondition keeps holding — until the candidate graph spans. Expected
/// cost is O(n log n) per solve instead of dense Prim's O(n^2). A torus
/// grid of fewer than three cells per axis scans all pairs.
///
/// VALUE IDENTITY: the returned tree has exactly the same edge-weight
/// multiset as the dense reference (`mst_with_metric`, a test-only oracle in
/// tests/support/reference_mst.hpp) — all
/// minimum spanning trees of a graph share it — and weights go through the
/// same squared-distance + covering_radius arithmetic, so every quantity the
/// simulator derives from the tree (bottleneck / critical radius,
/// largest-component breakpoint curve, total weight) is bit-identical to the
/// reference result, and so are prim_order_keys' keys as a multiset. The
/// golden MTRM checksums (tests/determinism_test.cpp) are the regression
/// gate.
///
/// Edges are ordered with the routines of topology/emst_candidates.hpp (the
/// radix sort_candidates and the 32-bit KruskalForest), in (d2, u, v)
/// order. The engine is a reusable workspace: the fringes, grid, candidate
/// buffer, forest and result tree all retain capacity across solves (the
/// sort's scatter buffer is the thread's), so a hot loop (one solve per
/// mobility step) performs no steady-state heap allocations. It is NOT
/// thread-safe; use one engine per thread (see sim/trace_workspace.hpp).
template <int D>
class EmstEngine {
 public:
  /// n below which a keys-only solve (a dense mobile step, a stationary
  /// critical range) runs prim_order_keys instead of the grid. Timed against
  /// the grid path (DESIGN.md §10), dense Prim was faster at every n <= 896
  /// measured, on uniform sets in D = 1, 2, 3 and on paper-density waypoint
  /// and drunkard traces; at n = 1024 the grid won in D = 2 and on drunkard.
  static constexpr std::size_t kDenseCutoff = 897;

  /// Whether a keys-only solve of n points takes the dense path: the one
  /// place the choice is made. Trees always come from the grid.
  static constexpr bool dense_path(std::size_t n) noexcept { return n < kDenseCutoff; }

  EmstEngine() = default;
  EmstEngine(const EmstEngine&) = delete;
  EmstEngine& operator=(const EmstEngine&) = delete;

  /// Euclidean MST of `points`, all of which must lie inside `box`. Returns
  /// n-1 edges sorted ascending by weight (empty for n <= 1), valid until
  /// the next call on this engine.
  std::span<const WeightedEdge> euclidean(std::span<const Point<D>> points, const Box<D>& box);

  /// The keys of dense Prims from vertex 0 without their trees, for K point
  /// sets of one size n: entry j holds batch[j]'s n-1 squared edge lengths
  /// in the order Prim adds their far ends (empty for n <= 1), valid until
  /// the next call. The round keeps no parents and breaks key ties by the
  /// lowest fringe slot. The keys are the MST's squared weights as a
  /// multiset; the largest is the bottleneck, and
  /// LargestComponentCurve::from_prim_order builds the component curve from
  /// the order. The K sets share one K-fringe round per vertex, and each
  /// gets the keys of a solve of its own, bit for bit. K is 1 or kPrimBatch.
  /// Requires dense_path(n).
  template <std::size_t K>
  std::array<std::span<const double>, K> prim_order_keys(
      const std::array<std::span<const Point<D>>, K>& batch);

  /// Point sets per batched prim_order_keys call on a mobile trace. One
  /// round serves every set of the batch in one loop, so their per-round
  /// chains (argmin, next query, relax) overlap. µs per solve at n =
  /// 16/32/64/128 on paper waypoint traces in D = 2 (DESIGN.md §10 item 5):
  /// one per call 0.37/0.77/1.73/4.49, 2 per call 0.21/0.50/1.30/3.64, 4 per
  /// call 0.15/0.35/0.94/2.99, 8 per call 0.15/0.41/1.16/3.86 (its lanes and
  /// query points outgrow the 16 AVX2 registers). Larger n: kPrimBatchCutoff.
  static constexpr std::size_t kPrimBatch = 4;

  /// n below which a trace batches its dense steps, per D. The gain of four
  /// per call shrinks with n, as the fixed per-round chain matters less and
  /// the four fringes outgrow the L1 data cache; in D = 3 it turns into a
  /// loss. µs per solve, one per call / four per call, on paper waypoint
  /// traces (DESIGN.md §10 item 5, median of 3 runs): D = 1 4.00 / 2.29 at
  /// n = 128 and 98.7 / 84.5 at 896; D = 2 4.51 / 3.11 at 128, 43.2 / 41.9 at
  /// 512 and 123.1 / 123.0 at 896; D = 3 5.34 / 3.95 at 128, 31.8 / 30.8 at
  /// 384, 54.9 / 58.0 at 512 and 157.2 / 173.0 at 896 (n = 448 broke even).
  static constexpr std::size_t kPrimBatchCutoff = D == 3 ? 448 : kDenseCutoff;

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

  /// Prim over the padded SoA fringes of K point sets of one size n > 1, in
  /// one K-fringe round per vertex: fills prim_keys_ with each set's keys in
  /// Prim order, set j at offset j * (n - 1).
  template <std::size_t K>
  void dense_prim(const std::array<std::span<const Point<D>>, K>& batch);

  /// Starting radius of the doubling search: the connectivity threshold
  /// scale l * (log n / n)^(1/D) of random geometric graphs.
  static double initial_radius(std::size_t n, double side);

  CellGrid<D> grid_;
  detail::KruskalForest dsu_;
  detail::CandidateBuffer candidates_;
  std::vector<WeightedEdge> mst_;
  std::vector<double> prim_keys_;
  std::vector<double> nn2_;
  // A dense-path fringe, compacted into slots [0, count): coordinates and
  // best squared distance to the tree (pooled so the dense path is
  // allocation-free too). A batch uses the first K.
  struct Fringe {
    PointStore<D> coords;
    std::vector<double> best;
  };
  std::array<Fringe, kPrimBatch> fringes_;
  EmstGridStats stats_;
};

}  // namespace manet
