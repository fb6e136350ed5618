#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "topology/emst_grid.hpp"
#include "topology/mst.hpp"

namespace manet {

/// Per-trace counters of KineticEmstEngine, in the shape perfbench's traced
/// runs read them. Reset by start(). Every step is a fresh solve, so the
/// counters of the deleted incremental repair always read 0.
struct KineticStats {
  std::size_t incremental_repairs = 0;  ///< always 0
  std::size_t full_rebuilds = 0;        ///< solves that took the grid path (incl. start)
  std::size_t radius_growths = 0;       ///< always 0
  std::size_t radius_shrinks = 0;       ///< always 0
  std::size_t mass_move_rebuilds = 0;   ///< always 0
  std::size_t boundary_crossings = 0;   ///< always 0
  std::size_t last_moved = 0;           ///< always 0
  std::size_t last_superseded = 0;      ///< always 0
  std::size_t last_delta = 0;           ///< always 0
  std::size_t candidate_edges = 0;      ///< grid candidates of the latest solve
  bool dense_mode = false;              ///< the latest step ran advance_prim_order
};

/// The engine of a mobile trace (TraceWorkspace::kinetic): one
/// EmstEngine solve per step, in the region given to begin() or start().
/// It keeps the interface of the incremental repair it replaced only
/// because the frozen perfbench sources drive traces through it; delete it
/// with the next benchmark change (ROADMAP). Not thread-safe; one engine per
/// concurrent trace.
template <int D>
class KineticEmstEngine {
 public:
  /// Begins a trace in `box` without solving a step.
  void begin(const Box<D>& box) {
    side_ = box.side();
    stats_ = {};
  }

  /// Begins a trace in `box` and solves its first step. Returns the n-1 MST
  /// edges in (d2, u, v) order (empty for n <= 1), valid until the next call.
  std::span<const WeightedEdge> start(std::span<const Point<D>> points, const Box<D>& box) {
    begin(box);
    return advance(points);
  }

  /// Solves the next step of the trace begun by start(): `points` are the
  /// same nodes at their new positions. Same return contract as start().
  std::span<const WeightedEdge> advance(std::span<const Point<D>> points) {
    const auto tree = engine_.euclidean(points, Box<D>(side_));
    const EmstGridStats& solve = engine_.stats();
    stats_.dense_mode = false;
    stats_.candidate_edges = solve.candidate_edges;
    if (solve.rounds > 0) ++stats_.full_rebuilds;
    return tree;
  }

  /// Solves the next K steps on the dense path without their trees: entry j
  /// holds the squared Prim-order keys of batch[j] (EmstEngine's
  /// prim_order_keys), valid until the next call. Requires
  /// EmstEngine<D>::dense_path(n).
  template <std::size_t K>
  std::array<std::span<const double>, K> advance_prim_order(
      const std::array<std::span<const Point<D>>, K>& batch) {
    const auto keys = engine_.prim_order_keys(batch);
    stats_.dense_mode = true;
    stats_.candidate_edges = 0;
    return keys;
  }

  const KineticStats& stats() const noexcept { return stats_; }

 private:
  EmstEngine<D> engine_;
  double side_ = 0.0;
  KineticStats stats_;
};

}  // namespace manet
