#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/cell_grid.hpp"
#include "geometry/point.hpp"
#include "geometry/point_store.hpp"
#include "topology/emst_candidates.hpp"
#include "topology/emst_grid.hpp"
#include "topology/mst.hpp"

namespace manet {

/// Cumulative per-trace diagnostics of the kinetic engine, exposed for
/// perfbench's traced runs and the kinetic test layer. Reset by start().
struct KineticStats {
  std::size_t steps = 0;               ///< advance() calls since start()
  std::size_t incremental_repairs = 0; ///< steps served by the delta path
  std::size_t full_rebuilds = 0;       ///< batch-style rebuilds (incl. start)
  std::size_t radius_growths = 0;      ///< rebuilds forced by a non-spanning candidate graph
  std::size_t radius_shrinks = 0;      ///< hysteresis-triggered radius reductions
  std::size_t mass_move_rebuilds = 0;  ///< rebuilds because most nodes moved at once
  std::size_t boundary_crossings = 0;  ///< cell-grid relinks of moved points
  std::size_t last_moved = 0;          ///< nodes that moved in the latest step
  std::size_t last_superseded = 0;     ///< mover-incident pool entries dropped in the latest step
  std::size_t last_delta = 0;          ///< mover-incident pairs re-derived by the latest cell scan
  std::size_t candidate_edges = 0;     ///< current candidate-set size
  double radius = 0.0;                 ///< maintained candidate radius
  bool dense_mode = false;             ///< trace is served by the embedded batch engine
};

/// Kinetic (incremental) Euclidean MST engine for mobile traces: the
/// temporal-coherence counterpart of the batch EmstEngine, and the only
/// engine run_mobile_trace drives (sim/mobile_trace.hpp). A mobility step
/// moves each node by at most m (drunkard) or v_max*dt (waypoint), so
/// between consecutive steps almost all cell-grid bins and almost all
/// candidate edges are unchanged; the engine repairs both instead of
/// rebuilding them.
///
/// Per advance() the engine
///   1. detects moved nodes by exact coordinate comparison with the previous
///      step,
///   2. re-bins the nodes that crossed a cell boundary (an O(1) cell-index
///      update per crossing) and counting-sorts the bins into a flat
///      start/ids snapshot — O(n + cells), a few microseconds, and the
///      neighborhood scans below then run over contiguous memory instead of
///      chasing per-node links,
///   3. repairs the candidate-edge set under the REPAIR INVARIANT — the set
///      holds exactly the pairs within the maintained radius R, in (d2, u, v)
///      order: edges with two unmoved endpoints keep their distance and
///      their relative order; every edge touching a moved node is dropped,
///      and the cell neighborhood of each moved node (which covers its
///      radius ball) is scanned once to re-derive all its current in-radius
///      pairs — one distance evaluation per nearby pair, with no
///      entering-vs-surviving distinction to test, and
///   4. sorts only that delta (detail::sort_candidates) and merges it into
///      the surviving pool with filtered Kruskal fused into the merge (the
///      pool is already sorted, so no per-step full sort).
///
/// Fallbacks rebuild batch-style (full enumeration + sort at a doubling
/// radius) whenever the invariant cannot be repaired cheaply: the candidate
/// graph stops spanning (the radius must grow), most nodes crossed cell
/// boundaries at once (teleports, fresh deployments), or the radius is far above the
/// current bottleneck for long enough (hysteresis shrink). Dense regimes
/// (n < kDenseCutoff, or an initial radius a large fraction of the region)
/// delegate every call to an embedded batch EmstEngine, whose vectorized
/// dense Prim is faster than the repair at every paper-figure size
/// (n <= 128): there most nodes move per step, so the delta is nearly the
/// whole pool. The repair serves larger n only.
///
/// BIT-IDENTITY: filtered Kruskal under the strict total order (d2, u, v)
/// accepts a *unique* spanning tree, and any candidate set that contains all
/// pairs within a spanning radius yields that same tree (every full-MST edge
/// weighs at most the bottleneck <= R). Both engines compute distances with
/// the identical squared_distance + covering_radius arithmetic, so the kinetic tree — edges, order, and weight bits — equals
/// the batch tree on every step, and everything derived from it (bottleneck,
/// weight multiset, breakpoint curves, MTRM checksums) is bit-identical.
/// tests/kinetic_differential_test.cpp pins this, including the PR 2/4
/// golden FNV-1a checksums through the kinetic path.
///
/// Allocation discipline: all buffers are pooled; after warm-up an advance()
/// performs ZERO steady-state heap allocations (tests/alloc_discipline_test
/// pins 0, one stricter than the batch path's rebuild-reuse). Not
/// thread-safe; one engine per concurrent trace (sim/trace_workspace.hpp).
template <int D>
class KineticEmstEngine {
 public:
  /// Same dense cutoff as the batch engine, so both select the dense path on
  /// exactly the same inputs.
  static constexpr std::size_t kDenseCutoff = EmstEngine<D>::kDenseCutoff;

  KineticEmstEngine() = default;
  KineticEmstEngine(const KineticEmstEngine&) = delete;
  KineticEmstEngine& operator=(const KineticEmstEngine&) = delete;

  /// Begins a Euclidean-metric trace: full build over `points` (all inside
  /// `box`). Returns the n-1 MST edges sorted ascending by weight (empty for
  /// n <= 1), valid until the next call on this engine.
  std::span<const WeightedEdge> start(std::span<const Point<D>> points, const Box<D>& box);

  /// Advances the current trace one mobility step: `points` are the same
  /// nodes at their new positions (same size, same region). Same return
  /// contract as start(). Requires a preceding start().
  std::span<const WeightedEdge> advance(std::span<const Point<D>> points);

  const KineticStats& stats() const noexcept { return stats_; }

 private:
  /// The batch engine's candidate record and (d2, u, v) order.
  using Candidate = detail::EmstCandidate;

  /// Mass-move rebuild threshold, applied twice: more than this fraction of
  /// nodes moved AND more than this fraction of the movers changed cell.
  /// Both at once mean teleport-scale displacement (the maintained radius
  /// is stale and the bins are mostly wrong); a sub-cell mass move — every
  /// node drifting a little — repairs cheaper than it rebuilds.
  static constexpr double kMassMoveFraction = 0.5;
  /// Hysteresis shrink: truncate the pool to kShrinkTarget * bottleneck
  /// (a sorted-prefix cut, no rebuild) after kShrinkPatience consecutive
  /// steps with radius > kShrinkTrigger * that snug radius. The target
  /// margin sizes the steady-state candidate set (~target^D times the
  /// spanning minimum), so every O(E) repair pass scales with it; the snug
  /// 1.05 measures substantially faster than looser margins and still
  /// absorbs the bottleneck's typical step-to-step drift — a step where the
  /// bottleneck outruns the margin is caught by Kruskal failing to span and
  /// only costs that one batch-style rebuild. The trigger tolerates modest
  /// overshoot (shrinking on every bottleneck wiggle would invite growth
  /// rebuilds right back); the patience filters transient dips.
  static constexpr double kShrinkTrigger = 1.1;
  static constexpr double kShrinkTarget = 1.05;
  static constexpr std::size_t kShrinkPatience = 4;

  /// Batch-style rebuild: enumerate + sort + Kruskal at a doubling radius
  /// starting from `start_radius`, then rebuild the kinetic cell grid and
  /// re-baseline the prev_ position store.
  void full_rebuild(std::span<const Point<D>> points, double start_radius);
  /// Applies the post-step radius hysteresis; may trigger a shrink rebuild.
  void maybe_shrink(std::span<const Point<D>> points);

  // -- cell binning over the *current* positions ---------------------------
  void rebuild_kinetic_grid(std::span<const Point<D>> points);
  std::array<std::size_t, D> cell_coords(const Point<D>& p) const noexcept;
  std::size_t flat_index(const std::array<std::size_t, D>& c) const noexcept;
  /// Counting-sorts cell_of_ into the flat cell_start_/cell_ids_ snapshot
  /// consumed by scan_mover, and gathers the matching SoA coordinate
  /// snapshot (snap_) in CSR slot order. O(n + cells) per step.
  void build_cell_snapshot();
  /// Re-derives every current in-radius pair of mover i and appends it to
  /// changed_. The (2w+1)^D cell neighborhood of i's (current-position)
  /// cell, where w = near_window_ satisfies w * cell_size_ >= radius_, is a
  /// superset of i's radius ball. Axis 0 is the least-significant digit of
  /// the flat cell index, so each axis-0 row of the window is ONE contiguous
  /// CSR slot run. At the paper's sizes a window holds ~15 nodes in ~3-node
  /// rows, so fixed costs dominate: the scan resolves all (2w+1)^(D-1) row
  /// runs first, grows changed_ once for their total, and then
  /// emit_mover_run fills it without a per-row call into a batched kernel
  /// or a per-candidate branch. Cells are sized ~radius/2 (w = 2) when the
  /// region allows, which over-scans ~(2.5/3)^D less area than radius-sized
  /// cells. `out` is the number of delta pairs emitted so far; returns the
  /// new count (changed_ holds room for at least that many).
  std::size_t scan_mover(std::uint32_t i, std::size_t out);
  /// One fused pass over the slot run [run_begin, run_end): the squared
  /// distance of each slot to mover i (coordinates `q`) in the scalar core's
  /// per-axis sequence (geometry/distance_kernels.hpp), then branch-free
  /// compaction — the pair is written at changed_[out] unconditionally and
  /// `out` advances by the keep predicate (in radius, and not a pair the
  /// smaller-id mover already emits). Returns the new `out`; the caller
  /// guarantees room for the whole run.
  std::size_t emit_mover_run(std::uint32_t i, const double* q, std::size_t run_begin,
                             std::size_t run_end, std::size_t out) noexcept;

  // Trace configuration.
  bool started_ = false;
  bool dense_mode_ = false;
  double side_ = 0.0;
  std::size_t n_ = 0;

  // Maintained candidate radius (repair invariant: edges_ holds exactly the
  // pairs with d2 <= r2_ at the prev_ positions, sorted by (d2, u, v)).
  double radius_ = 0.0;
  double r2_ = 0.0;
  std::size_t shrink_streak_ = 0;

  // Cell binning (geometry mirrors CellGrid's clamping). cell_of_ is the
  // maintained state — pass 2 updates it in O(1) per boundary crossing —
  // and cell_start_/cell_ids_ are its per-step counting-sort snapshot
  // (CSR layout: ids of cell c live at [cell_start_[c], cell_start_[c+1])).
  double cell_size_ = 0.0;
  std::size_t cells_per_axis_ = 0;
  std::size_t total_cells_ = 0;
  int near_window_ = 1;  ///< neighbor-cell half-window; near_window_ * cell_size_ >= radius_
  std::vector<std::size_t> cell_of_;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_cursor_;
  std::vector<std::uint32_t> cell_ids_;

  CellGrid<D> grid_;     ///< full-rebuild enumeration only
  EmstEngine<D> batch_;  ///< dense-mode delegate (identical dense code path)

  // SoA position state (geometry/point_store.hpp). cur_ is the current
  // step's gather; prev_ holds the positions the pool and bins were derived
  // at (the repair-invariant baseline) and is refreshed by an O(1) swap with
  // cur_ — unmoved coordinates are equal in both, movers were just
  // re-derived. snap_ mirrors cell_ids_ in CSR slot order so scan_mover's
  // row runs stream contiguous memory.
  PointStore<D> cur_;
  PointStore<D> prev_;
  PointStore<D> snap_;

  detail::CandidateBuffer edges_;    ///< the invariant candidate set
  detail::CandidateBuffer changed_;  ///< recomputed + entering edges, sorted per step
  detail::CandidateBuffer merged_;   ///< merge target, swapped with edges_
  std::vector<std::uint32_t> moved_;
  std::vector<std::uint8_t> moved_flag_;

  detail::KruskalForest dsu_;
  std::vector<WeightedEdge> mst_;
  KineticStats stats_;
};

}  // namespace manet
