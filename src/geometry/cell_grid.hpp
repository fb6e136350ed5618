#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/distance_kernels.hpp"
#include "geometry/point.hpp"
#include "geometry/point_store.hpp"
#include "geometry/torus.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"

namespace manet {

/// Uniform spatial hash grid over a Box<D>, used to enumerate all node pairs
/// within a transmission radius in (near-)linear time instead of O(n^2).
///
/// Cells have side >= the query radius, so any pair within the radius lies in
/// the same or an axis-adjacent cell; `for_each_pair_within` visits each
/// unordered pair exactly once.
///
/// The grid is rebuildable in place: `rebuild` re-runs the counting sort into
/// the existing buffers, so a caller that rebins every mobility step (or every
/// doubling round of the adaptive EMST engine, topology/emst_grid.hpp) performs
/// no steady-state heap allocations once the buffers have grown to size.
template <int D>
class CellGrid {
 public:
  /// An empty grid; call `rebuild` before querying.
  CellGrid() = default;

  /// Builds the grid over `points`, all of which must lie inside `box`.
  /// `cell_size` is clamped up so the grid never exceeds kMaxCellsPerAxis
  /// per axis (tiny radii would otherwise allocate huge empty grids).
  CellGrid(std::span<const Point<D>> points, const Box<D>& box, double cell_size) {
    rebuild(points, box, cell_size);
  }

  /// Rebuilds the grid over a (possibly different) point set, reusing the
  /// internal buffers. Same contract as the constructor. After the call,
  /// `cell_size() >= requested cell_size`, so any query radius up to the
  /// requested cell size satisfies the `for_each_pair_within` precondition.
  void rebuild(std::span<const Point<D>> points, const Box<D>& box, double cell_size) {
    MANET_EXPECTS(cell_size > 0.0);
    side_ = box.side();
    // Cap the cell count at ~4x the point count: finer grids only add empty
    // cells without reducing the number of candidate pairs.
    std::size_t max_per_axis = kMaxCellsPerAxis;
    const double budget = 4.0 * static_cast<double>(points.size()) + 64.0;
    const auto per_axis_budget =
        static_cast<std::size_t>(std::pow(budget, 1.0 / static_cast<double>(D)));
    max_per_axis = std::min(max_per_axis, std::max<std::size_t>(1, per_axis_budget));

    const double per_axis = std::min(side_ / cell_size, static_cast<double>(max_per_axis));
    cells_per_axis_ = std::max<std::size_t>(1, static_cast<std::size_t>(per_axis));
    cell_size_ = side_ / static_cast<double>(cells_per_axis_);
    // The clamping above only ever coarsens the grid, which is what makes the
    // rebuild-to-raise-the-radius pattern of the adaptive EMST engine safe.
    MANET_ENSURE(cells_per_axis_ == 1 || cell_size_ >= cell_size * (1.0 - 1e-12));

    std::size_t total_cells = 1;
    for (int i = 0; i < D; ++i) total_cells *= cells_per_axis_;

    // Counting sort of point ids by flattened cell index, entirely in reused
    // buffers: counts accumulate in cell_start_[c + 1], the placement pass
    // advances cell_start_[c] to the end of cell c, and the final shift
    // restores the start offsets — no cursor scratch vector.
    cell_start_.assign(total_cells + 1, 0);
    cell_of_.resize(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      cell_of_[p] = flat_index(cell_coords(points[p]));
      ++cell_start_[cell_of_[p] + 1];
    }
    for (std::size_t c = 1; c <= total_cells; ++c) cell_start_[c] += cell_start_[c - 1];
    // The paper's occupancy argument needs every node accounted for: the
    // per-cell counts must sum to exactly n after the prefix scan.
    MANET_INVARIANT(cell_start_[total_cells] == points.size());
    point_ids_.resize(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) point_ids_[cell_start_[cell_of_[p]]++] = p;
    for (std::size_t c = total_cells; c > 0; --c) cell_start_[c] = cell_start_[c - 1];
    cell_start_[0] = 0;
    MANET_INVARIANT(cell_start_[total_cells] == points.size());

    // Record the non-empty cells so queries never touch the (potentially
    // huge) set of empty ones.
    occupied_.clear();
    occupied_.reserve(std::min(points.size(), total_cells));
    for (std::size_t c = 0; c < total_cells; ++c) {
      if (cell_start_[c + 1] > cell_start_[c]) occupied_.push_back(c);
    }

    // SoA snapshot of the coordinates in CSR slot order: every cell's points
    // are one contiguous run per axis, so the pair scans below hand whole
    // runs to the batched kernels (geometry/distance_kernels.hpp) instead of
    // chasing Point structs pair by pair. Capacity-only growth, like every
    // other buffer here.
    slot_coords_.assign_gather(points, point_ids_);
    d2_scratch_.resize(points.size());

    points_ = points;
  }

  std::size_t cells_per_axis() const noexcept { return cells_per_axis_; }
  double cell_size() const noexcept { return cell_size_; }
  double side() const noexcept { return side_; }

  /// The largest radius the pair queries accept without a rebuild: adjacent
  /// cells are only guaranteed to cover a pair when the radius does not
  /// exceed the cell side (a single-cell grid compares every pair, so any
  /// radius is valid there). Callers that need a larger radius must
  /// `rebuild` with `cell_size = radius` first (see topology/emst_grid.cpp).
  double max_query_radius() const noexcept {
    if (cells_per_axis_ == 1) return std::numeric_limits<double>::infinity();
    return cell_size_ * (1.0 + 1e-9);
  }

  /// Invokes `fn(i, j, dist2)` once for every unordered pair (i < j) of
  /// points with squared Euclidean distance <= radius*radius. Requires
  /// radius <= max_query_radius() (the construction-time guarantee that
  /// adjacent cells suffice).
  template <typename Fn>
  void for_each_pair_within(double radius, Fn&& fn) const {
    MANET_EXPECTS(radius > 0.0);
    MANET_EXPECTS(radius <= max_query_radius());
    const double r2 = radius * radius;
    for (std::size_t flat : occupied_) scan_cell</*Wrap=*/false>(unflatten(flat), r2, fn);
  }

  /// Invokes `fn(i, j, dist2)` once for every unordered pair (i < j) of
  /// points with squared *torus* distance <= radius*radius, where the torus
  /// period is the construction box side (geometry/torus.hpp). Neighbor
  /// cells wrap around the region edges, so pairs straddling opposite
  /// borders are found without widening the radius. Requires
  /// radius <= max_query_radius(); grids with fewer than three cells per
  /// axis (where wrapped neighbor offsets would alias) fall back to an
  /// exhaustive pair scan.
  template <typename Fn>
  void for_each_torus_pair_within(double radius, Fn&& fn) const {
    MANET_EXPECTS(radius > 0.0);
    if (cells_per_axis_ < 3) {
      // +1 and -1 offsets reach the same cell (mod 2) or the cell itself
      // (mod 1): the forward-offset dedup breaks down, so compare all pairs.
      const double r2 = radius * radius;
      for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
        for (std::size_t j = i + 1; j < points_.size(); ++j) {
          const double d2 = torus_squared_distance(points_[i], points_[j], side_);
          if (d2 <= r2) fn(i, j, d2);
        }
      }
      return;
    }
    MANET_EXPECTS(radius <= max_query_radius());
    const double r2 = radius * radius;
    for (std::size_t flat : occupied_) scan_cell</*Wrap=*/true>(unflatten(flat), r2, fn);
  }

 private:
  static constexpr std::size_t kMaxCellsPerAxis = 1u << 12;

  std::array<std::size_t, D> cell_coords(const Point<D>& p) const noexcept {
    std::array<std::size_t, D> c{};
    for (int i = 0; i < D; ++i) {
      const double x = p.coords[i] / cell_size_;
      auto idx = static_cast<std::size_t>(x < 0.0 ? 0.0 : x);
      c[i] = std::min(idx, cells_per_axis_ - 1);
    }
    return c;
  }

  std::size_t flat_index(const std::array<std::size_t, D>& c) const noexcept {
    std::size_t idx = 0;
    for (int i = D - 1; i >= 0; --i) idx = idx * cells_per_axis_ + c[i];
    return idx;
  }

  std::array<std::size_t, D> unflatten(std::size_t flat) const noexcept {
    std::array<std::size_t, D> c{};
    for (int i = 0; i < D; ++i) {
      c[i] = flat % cells_per_axis_;
      flat /= cells_per_axis_;
    }
    return c;
  }

  template <bool Wrap, typename Fn>
  void scan_cell(const std::array<std::size_t, D>& cell, double r2, Fn&& fn) const {
    const std::size_t flat = flat_index(cell);
    const std::size_t own_begin = cell_start_[flat];
    const std::size_t own_end = cell_start_[flat + 1];
    if (own_begin == own_end) return;

    // Pairs inside the cell itself: slot a against the contiguous run after
    // it — the same (a, b) visit order as the scalar double loop.
    for (std::size_t a = own_begin; a + 1 < own_end; ++a) {
      emit_run<Wrap>(a, a + 1, own_end, r2, fn);
    }

    // Pairs with lexicographically-forward neighbor cells: each unordered
    // cell pair is processed exactly once (with >= 3 cells per axis, wrapped
    // +1/-1 offsets never alias, so the forward dedup still holds on the
    // torus).
    std::array<int, D> offset{};
    offset.fill(-1);
    for (;;) {
      // Advance odometer over {-1,0,1}^D.
      int axis = 0;
      while (axis < D) {
        if (++offset[axis] <= 1) break;
        offset[axis] = -1;
        ++axis;
      }
      if (axis == D) break;
      if (!is_forward(offset)) continue;

      std::array<std::size_t, D> other = cell;
      bool in_grid = true;
      for (int i = 0; i < D; ++i) {
        auto shifted = static_cast<long long>(cell[i]) + offset[i];
        if constexpr (Wrap) {
          const auto cells = static_cast<long long>(cells_per_axis_);
          if (shifted < 0) shifted += cells;
          if (shifted >= cells) shifted -= cells;
        } else {
          if (shifted < 0 || shifted >= static_cast<long long>(cells_per_axis_)) {
            in_grid = false;
            break;
          }
        }
        other[i] = static_cast<std::size_t>(shifted);
      }
      if (!in_grid) continue;

      const std::size_t other_flat = flat_index(other);
      const std::size_t other_begin = cell_start_[other_flat];
      const std::size_t other_end = cell_start_[other_flat + 1];
      if (other_begin == other_end) continue;
      for (std::size_t a = own_begin; a < own_end; ++a) {
        emit_run<Wrap>(a, other_begin, other_end, r2, fn);
      }
    }
  }

  /// True when `offset` is lexicographically positive (first nonzero
  /// component, scanning from the highest axis, is +1).
  static bool is_forward(const std::array<int, D>& offset) noexcept {
    for (int i = D - 1; i >= 0; --i) {
      if (offset[i] > 0) return true;
      if (offset[i] < 0) return false;
    }
    return false;  // all-zero offset = own cell, handled separately
  }

  /// Squared distances of the candidate in `candidate_slot` against the
  /// contiguous slot run [run_begin, run_end) — one batched kernel call for
  /// the Euclidean metric — then the in-radius filter in run order. Every d2
  /// is bit-identical to the scalar metric (the kernel reproduces the scalar
  /// core's per-axis operation sequence), and pairs are emitted in the exact
  /// order the scalar double loop used.
  template <bool Wrap, typename Fn>
  void emit_run(std::size_t candidate_slot, std::size_t run_begin, std::size_t run_end,
                double r2, Fn&& fn) const {
    const std::size_t count = run_end - run_begin;
    std::array<double, static_cast<std::size_t>(D)> q;
    kernels::AxisPointers<D> axes;
    for (int i = 0; i < D; ++i) {
      const double* axis = slot_coords_.axis(i);
      q[static_cast<std::size_t>(i)] = axis[candidate_slot];
      axes[static_cast<std::size_t>(i)] = axis + run_begin;
    }
    double* d2 = d2_scratch_.data();
    if constexpr (Wrap) {
      // The torus metric has no batched kernel: run its scalar core per
      // element (geometry/distance_kernels.hpp says why).
      std::array<double, static_cast<std::size_t>(D)> p;
      for (std::size_t k = 0; k < count; ++k) {
        for (std::size_t i = 0; i < p.size(); ++i) p[i] = axes[i][k];
        d2[k] = kernels::torus_squared_distance_scalar<D>(p.data(), q.data(), side_);
      }
    } else {
      kernels::batch_squared_distance<D>(axes, count, q.data(), d2);
    }
    const std::size_t candidate_id = point_ids_[candidate_slot];
    for (std::size_t k = 0; k < count; ++k) {
      if (d2[k] <= r2) {
        std::size_t i = candidate_id;
        std::size_t j = point_ids_[run_begin + k];
        if (i > j) std::swap(i, j);
        fn(i, j, d2[k]);
      }
    }
  }

  std::span<const Point<D>> points_;
  double side_ = 0.0;
  double cell_size_ = 0.0;
  std::size_t cells_per_axis_ = 0;
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> point_ids_;
  std::vector<std::size_t> occupied_;
  std::vector<std::size_t> cell_of_;  // counting-sort scratch, reused by rebuild
  PointStore<D> slot_coords_;         // SoA coordinates in CSR slot order
  mutable std::vector<double> d2_scratch_;  // per-run kernel output (queries are const)
};

}  // namespace manet
