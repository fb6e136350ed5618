#include "topology/emst_kinetic.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace manet {

namespace {

/// Work counters shared by every KineticEmstEngine<D> instantiation, in the
/// same function-local-static bundle style as the batch engine's. Pure work
/// counters — deterministic for a fixed input at any thread count.
struct KineticMetrics {
  metrics::Counter traces = metrics::counter("kinetic.traces");
  metrics::Counter steps = metrics::counter("kinetic.steps");
  metrics::Counter incremental = metrics::counter("kinetic.incremental_repairs");
  metrics::Counter rebuilds = metrics::counter("kinetic.full_rebuilds");
  metrics::Counter growths = metrics::counter("kinetic.radius_growths");
  metrics::Counter shrinks = metrics::counter("kinetic.radius_shrinks");
  metrics::Counter dense = metrics::counter("kinetic.dense_traces");
};

KineticMetrics& kinetic_metrics() {
  static KineticMetrics bundle;
  return bundle;
}

}  // namespace

template <int D>
std::array<std::size_t, D> KineticEmstEngine<D>::cell_coords(
    const Point<D>& p) const noexcept {
  // Same arithmetic as CellGrid::cell_coords so boundary-sitting coordinates
  // bin consistently in both structures.
  std::array<std::size_t, D> c{};
  for (int i = 0; i < D; ++i) {
    const double x = p.coords[i] / cell_size_;
    auto idx = static_cast<std::size_t>(x < 0.0 ? 0.0 : x);
    c[i] = std::min(idx, cells_per_axis_ - 1);
  }
  return c;
}

template <int D>
std::size_t KineticEmstEngine<D>::flat_index(
    const std::array<std::size_t, D>& c) const noexcept {
  std::size_t idx = 0;
  for (int i = D - 1; i >= 0; --i) idx = idx * cells_per_axis_ + c[i];
  return idx;
}

template <int D>
void KineticEmstEngine<D>::rebuild_kinetic_grid(std::span<const Point<D>> points) {
  // Mirror CellGrid's clamping: cap the cell count at ~4x the point count
  // and at 2^12 per axis; clamping only ever coarsens, so cell_size_ >=
  // radius_ and the 3^D neighborhood always covers the query radius.
  constexpr std::size_t kMaxCellsPerAxis = 1u << 12;
  const double budget = 4.0 * static_cast<double>(n_) + 64.0;
  const auto per_axis_budget =
      static_cast<std::size_t>(std::pow(budget, 1.0 / static_cast<double>(D)));
  const std::size_t max_per_axis =
      std::min(kMaxCellsPerAxis, std::max<std::size_t>(1, per_axis_budget));

  // Prefer cells of ~radius/2 with a +-2-cell scan window: the scanned area
  // per query drops to (5/6)^D of radius-sized cells' 3^D neighborhood.
  // Fall back to radius-sized cells (+-1 window) when the region or the
  // budget cannot fit at least five fine cells per axis.
  const auto fine_per_axis = static_cast<std::size_t>(2.0 * side_ / radius_);
  if (std::min(fine_per_axis, max_per_axis) >= 5) {
    cells_per_axis_ = std::min(fine_per_axis, max_per_axis);
    near_window_ = 2;
  } else {
    cells_per_axis_ = static_cast<std::size_t>(side_ / radius_);
    cells_per_axis_ = std::max<std::size_t>(1, std::min(cells_per_axis_, max_per_axis));
    near_window_ = 1;
  }
  cell_size_ = side_ / static_cast<double>(cells_per_axis_);
  MANET_ENSURE(cells_per_axis_ == 1 ||
               cell_size_ * near_window_ >= radius_ * (1.0 - 1e-12));

  total_cells_ = 1;
  for (int i = 0; i < D; ++i) total_cells_ *= cells_per_axis_;
  // Reserve the budget cap up front: a radius shrink refines the cells, and
  // growing these on a warm advance() would break the zero-steady-state-
  // allocation discipline.
  std::size_t max_total_cells = 1;
  for (int i = 0; i < D; ++i) max_total_cells *= max_per_axis;
  cell_start_.reserve(max_total_cells + 1);
  cell_cursor_.reserve(max_total_cells);
  cell_of_.resize(n_);
  cell_start_.resize(total_cells_ + 1);
  cell_cursor_.resize(total_cells_);
  cell_ids_.resize(n_);
  // Snapshot stores sized once so warm advances stay allocation-free even
  // after a radius-growth rebuild mid-trace.
  snap_.reserve(n_);
  cur_.reserve(n_);
  for (std::size_t p = 0; p < n_; ++p) cell_of_[p] = flat_index(cell_coords(points[p]));
}

template <int D>
void KineticEmstEngine<D>::build_cell_snapshot() {
  // Counting sort of cell_of_ into CSR form. Ids come out ascending within
  // each cell, but the order is immaterial: it only affects the order edges
  // are *collected* in, and every collected batch is sorted by the strict
  // (d2, u, v) key before use.
  std::fill(cell_start_.begin(), cell_start_.end(), 0u);
  for (std::size_t p = 0; p < n_; ++p) ++cell_start_[cell_of_[p] + 1];
  for (std::size_t c = 0; c < total_cells_; ++c) cell_start_[c + 1] += cell_start_[c];
  std::memcpy(cell_cursor_.data(), cell_start_.data(),
              total_cells_ * sizeof(std::uint32_t));
  for (std::size_t p = 0; p < n_; ++p) {
    cell_ids_[cell_cursor_[cell_of_[p]]++] = static_cast<std::uint32_t>(p);
  }
  // SoA coordinate snapshot matching cell_ids_: every cell (and every axis-0
  // row of cells) is a contiguous run per axis, which scan_mover streams.
  // Gather from cur_, which advance() filled this step.
  snap_.assign_gather(cur_, std::span<const std::uint32_t>(cell_ids_.data(), n_));
}

template <int D>
std::size_t KineticEmstEngine<D>::emit_mover_run(std::uint32_t i, const double* q,
                                                 std::size_t run_begin, std::size_t run_end,
                                                 std::size_t out) noexcept {
  std::array<const double*, static_cast<std::size_t>(D)> axes;
  for (int a = 0; a < D; ++a) axes[static_cast<std::size_t>(a)] = snap_.axis(a);
  const std::uint32_t* ids = cell_ids_.data();
  const std::uint8_t* moved = moved_flag_.data();
  Candidate* dst = changed_.data();
  const double r2 = r2_;
  for (std::size_t k = run_begin; k < run_end; ++k) {
    // The scalar core's per-axis sequence (no FMA: the build pins
    // -ffp-contract=off), so d2 is bit-identical to squared_distance.
    double d2 = 0.0;
    for (int a = 0; a < D; ++a) {
      const double d = axes[static_cast<std::size_t>(a)][k] - q[a];
      d2 += d * d;
    }
    const std::uint32_t j = ids[k];
    dst[out] = {d2, std::min(i, j), std::max(i, j)};
    // Keep the pair unless it is out of radius, or j is a smaller-id mover
    // (that mover emits it). i itself is a mover, so j == i is dropped too.
    const bool keep = ((moved[j] == 0) | (j > i)) & !(d2 > r2);
    out += static_cast<std::size_t>(keep);
  }
  return out;
}

template <int D>
std::size_t KineticEmstEngine<D>::scan_mover(std::uint32_t i, std::size_t out) {
  std::array<double, static_cast<std::size_t>(D)> q;
  for (int a = 0; a < D; ++a) q[static_cast<std::size_t>(a)] = cur_.axis(a)[i];

  // The window clipped to the grid, per axis. Axis 0 is the least-
  // significant digit of the flat cell index, so the axis-0 extent of each
  // row of the window is one contiguous CSR slot run; rows differ only in
  // their higher-axis coordinates.
  const auto center = cell_coords(cur_.get(i));
  const auto w = static_cast<std::size_t>(near_window_);
  std::array<std::size_t, D> lo{};
  std::array<std::size_t, D> hi{};
  for (std::size_t a = 0; a < static_cast<std::size_t>(D); ++a) {
    lo[a] = center[a] >= w ? center[a] - w : 0;
    hi[a] = std::min(center[a] + w, cells_per_axis_ - 1);
  }

  // Resolve every row's slot run first — (2w+1)^(D-1) rows at w <= 2 — so
  // changed_ grows once per mover, for the window's total.
  constexpr std::size_t kMaxRows = D == 1 ? 1 : (D == 2 ? 5 : 25);
  MANET_INVARIANT(near_window_ <= 2);
  std::array<std::uint32_t, kMaxRows> run_begin;
  std::array<std::uint32_t, kMaxRows> run_end;
  std::size_t rows = 0;
  std::size_t total = 0;
  const auto add_row = [&](std::size_t row) {
    const std::size_t base = row * cells_per_axis_;
    run_begin[rows] = cell_start_[base + lo[0]];
    run_end[rows] = cell_start_[base + hi[0] + 1];
    total += run_end[rows] - run_begin[rows];
    ++rows;
  };
  if constexpr (D == 1) {
    add_row(0);
  } else if constexpr (D == 2) {
    for (std::size_t y = lo[1]; y <= hi[1]; ++y) add_row(y);
  } else {
    for (std::size_t z = lo[2]; z <= hi[2]; ++z) {
      for (std::size_t y = lo[1]; y <= hi[1]; ++y) add_row(z * cells_per_axis_ + y);
    }
  }

  // Grow to the full capacity (free: the buffer default-initializes), so
  // only a window larger than any seen before reallocates.
  if (changed_.size() < out + total) {
    changed_.resize(std::max(out + total, changed_.capacity()));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    out = emit_mover_run(i, q.data(), run_begin[r], run_end[r], out);
  }
  return out;
}

template <int D>
void KineticEmstEngine<D>::full_rebuild(std::span<const Point<D>> points,
                                        double start_radius) {
  ++stats_.full_rebuilds;
  kinetic_metrics().rebuilds.increment();
  const double r_max = side_ * std::sqrt(static_cast<double>(D));
  MANET_EXPECTS(start_radius > 0.0);
  double radius = std::min(start_radius, r_max);
  const Box<D> box(side_);
  for (;;) {
    grid_.rebuild(points, box, radius);
    MANET_INVARIANT(radius <= grid_.max_query_radius());
    edges_.clear();
    const auto collect = [this](std::size_t i, std::size_t j, double d2) {
      edges_.push_back({d2, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    };
    grid_.for_each_pair_within(radius, collect);
    detail::sort_candidates(edges_, radius * radius, detail::thread_sort_scratch());
    if (detail::filtered_kruskal(edges_, n_, dsu_, mst_)) break;
    MANET_INVARIANT(radius < r_max);  // the complete graph always spans
    radius = std::min(radius * 2.0, r_max);
    ++stats_.radius_growths;
    kinetic_metrics().growths.increment();
  }

  // Retighten: a doubling overshoot (or an inflated caller radius) would
  // otherwise fix the candidate-set size — and with it the cost of every
  // subsequent filter/merge/Kruskal pass — until the next rebuild. The pool
  // is sorted by (d2, u, v), so the pairs within the snug radius are exactly
  // a prefix: truncation, no re-enumeration. The tree is unaffected because
  // every accepted edge has weight <= bottleneck <= the snug radius.
  const double bottleneck = mst_.empty() ? 0.0 : mst_.back().weight;
  if (bottleneck > 0.0) {
    const double snug = kShrinkTarget * bottleneck;
    if (snug < radius) {
      radius = snug;
      const auto first_outside = std::upper_bound(
          edges_.begin(), edges_.end(), radius * radius,
          [](double r2, const Candidate& c) { return r2 < c.d2; });
      edges_.erase(first_outside, edges_.end());
    }
  }

  radius_ = radius;
  r2_ = radius * radius;
  rebuild_kinetic_grid(points);
  prev_.assign(points);
  shrink_streak_ = 0;
  stats_.radius = radius_;
  stats_.candidate_edges = edges_.size();
}

template <int D>
void KineticEmstEngine<D>::maybe_shrink(std::span<const Point<D>> points) {
  // When the maintained radius sits above the bottleneck's snug margin for a
  // sustained stretch (after a growth spike, an initial radius sized for a
  // sparser configuration, or a drift-down of the bottleneck itself), the
  // candidate set is ~(R/b)^D times larger than needed. Shrinking needs no
  // rebuild: the pool is sorted by d2, so the snug pool is exactly a prefix
  // — truncate it and re-derive the cell geometry for the smaller radius,
  // O(n) in total. The patience hysteresis keeps bottleneck jitter from
  // alternating cheap shrinks with expensive growth rebuilds.
  const double bottleneck = mst_.empty() ? 0.0 : mst_.back().weight;
  const double snug = kShrinkTarget * bottleneck;
  if (bottleneck > 0.0 && radius_ > kShrinkTrigger * snug) {
    if (++shrink_streak_ >= kShrinkPatience) {
      ++stats_.radius_shrinks;
      kinetic_metrics().shrinks.increment();
      radius_ = snug;
      r2_ = snug * snug;
      const auto first_outside = std::upper_bound(
          edges_.begin(), edges_.end(), r2_,
          [](double r2, const Candidate& c) { return r2 < c.d2; });
      edges_.resize(static_cast<std::size_t>(first_outside - edges_.begin()));
      stats_.candidate_edges = edges_.size();
      stats_.radius = radius_;
      rebuild_kinetic_grid(points);
      shrink_streak_ = 0;
    }
  } else {
    shrink_streak_ = 0;
  }
}

template <int D>
std::span<const WeightedEdge> KineticEmstEngine<D>::start(std::span<const Point<D>> points,
                                                          const Box<D>& box) {
  MANET_EXPECTS(box.side() > 0.0);
  if (points.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("KineticEmstEngine: more than 2^32 points are not supported");
  }
  kinetic_metrics().traces.increment();
  started_ = true;
  side_ = box.side();
  n_ = points.size();
  stats_ = {};
  shrink_streak_ = 0;

  const double r0 = emst_initial_radius<D>(n_, side_);
  dense_mode_ = n_ < kDenseCutoff || r0 >= 0.5 * side_;
  stats_.dense_mode = dense_mode_;
  if (dense_mode_) {
    // Delegate to the batch engine wholesale: in the dense regime there is
    // no grid work to repair, and running the identical code path is what
    // makes dense results trivially bit-identical.
    kinetic_metrics().dense.increment();
    return batch_.euclidean(points, box);
  }

  moved_.clear();
  moved_flag_.assign(n_, 0);
  full_rebuild(points, r0);
  return mst_;
}

template <int D>
std::span<const WeightedEdge> KineticEmstEngine<D>::advance(
    std::span<const Point<D>> points) {
  MANET_EXPECTS(started_);
  MANET_EXPECTS(points.size() == n_);
  ++stats_.steps;
  kinetic_metrics().steps.increment();

  if (dense_mode_) return batch_.euclidean(points, Box<D>(side_));

  // Pass 1: exact moved-node detection against the previous step. The AoS
  // input is gathered into the cur_ SoA store once; the vectorized
  // tuple-compare kernel then writes the per-node flags (1 iff any
  // coordinate differs — the same `!(Point == Point)` predicate), and a
  // scalar sweep collects the mover ids in ascending order.
  cur_.assign(points);
  kernels::batch_tuple_not_equal<D>(cur_.axes(), prev_.axes(), n_, moved_flag_.data());
  moved_.clear();
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (moved_flag_[i] != 0) moved_.push_back(i);
  }
  stats_.last_moved = moved_.size();
  stats_.last_superseded = 0;
  stats_.last_delta = 0;
  if (moved_.empty()) return mst_;  // nothing moved: the tree is still exact

  // Pass 2: re-bin the nodes that crossed a cell boundary. (Harmless before
  // the mass-move decision below: a rebuild re-derives every bin anyway.)
  std::size_t crossings = 0;
  for (const std::uint32_t i : moved_) {
    const std::size_t new_cell = flat_index(cell_coords(points[i]));
    if (new_cell != cell_of_[i]) {
      cell_of_[i] = new_cell;
      ++crossings;
    }
  }
  stats_.boundary_crossings += crossings;

  if (static_cast<double>(moved_.size()) >
          kMassMoveFraction * static_cast<double>(n_) &&
      static_cast<double>(crossings) >
          kMassMoveFraction * static_cast<double>(moved_.size())) {
    // Mostly-new configuration (teleport-scale moves: most nodes changed
    // cell, so the maintained radius is stale too). When a mass move is
    // sub-cell — every node drifting a little, as in a mobility model's
    // start-up transient — the repair below stays cheaper than a rebuild:
    // it re-derives the same pairs from bins that barely changed, with no
    // grid reconstruction and no radius search. (No flag reset needed: pass
    // 1 rewrites every moved_flag_ entry next step.)
    ++stats_.mass_move_rebuilds;
    full_rebuild(points, radius_);
    maybe_shrink(points);
    return mst_;
  }

  // Counting-sort the bins into the flat snapshot pass 3 scans.
  build_cell_snapshot();

  // Pass 3: re-derive every current mover-incident pair within the radius,
  // one distance evaluation each. The pool entries these supersede are not
  // touched here — the merge below already streams the whole pool, and the
  // mover flags it tests live in an L1-resident byte array — so this scan
  // needs no entering-vs-surviving distinction either (the repair invariant
  // would make that an arithmetic test on the previous-step distance, but
  // not making it at all is cheaper still). The cell neighborhood of a
  // mover covers its radius ball, so the emitted set is exactly the pairs
  // the pool must regain. Pairs of two moved nodes are emitted once, from
  // the smaller id.
  std::size_t delta_size = 0;
  for (const std::uint32_t i : moved_) delta_size = scan_mover(i, delta_size);
  changed_.resize(delta_size);
  stats_.last_delta = delta_size;

  // Pass 4: sort the delta, then merge it with the surviving pool entries,
  // dropping everything mover-incident (the delta holds its replacements).
  // (d2, u, v) is a strict total order — (u, v) is unique per pair — so the
  // merged sequence equals the from-scratch sort bit for bit. Kruskal is
  // fused into the merge: every emitted candidate is offered to the forest
  // in order until the tree completes, which turns Kruskal's own full read
  // of the pool into reuse of values this loop already holds in registers.
  detail::sort_candidates(changed_, r2_, detail::thread_sort_scratch());
  merged_.resize(edges_.size() + changed_.size());  // upper bound; trimmed below
  dsu_.reset(n_);
  mst_.clear();
  std::size_t missing = n_ - 1;
  const auto offer = [&](const Candidate& c) {
    if (missing != 0 && dsu_.unite(c.u, c.v)) {
      mst_.push_back({c.u, c.v, covering_radius(c.d2)});
      --missing;
    }
  };
  std::size_t out = 0;
  std::size_t superseded = 0;
  const Candidate* delta = changed_.data();
  const Candidate* const delta_end = delta + changed_.size();
  for (const Candidate& c : edges_) {
    if ((moved_flag_[c.u] | moved_flag_[c.v]) != 0) {
      ++superseded;
      continue;
    }
    while (delta != delta_end && detail::candidate_less(*delta, c)) {
      offer(*delta);
      merged_[out++] = *delta++;
    }
    offer(c);
    merged_[out++] = c;
  }
  while (delta != delta_end) {
    offer(*delta);
    merged_[out++] = *delta++;
  }
  merged_.resize(out);
  edges_.swap(merged_);
  stats_.last_superseded = superseded;
  stats_.candidate_edges = edges_.size();
  // Re-baseline: cur_ IS the current positions in SoA form, so the
  // prev-points update is an O(1) buffer swap (unmoved coordinates are equal
  // in both stores; cur_ is fully re-gathered next step). Flags need no
  // reset — pass 1 rewrites all of them.
  swap(prev_, cur_);

  // A non-spanning candidate graph violates the "radius covers the
  // bottleneck" assumption: grow batch-style.
  if (missing == 0) {
    ++stats_.incremental_repairs;
    kinetic_metrics().incremental.increment();
  } else {
    ++stats_.radius_growths;
    kinetic_metrics().growths.increment();
    full_rebuild(points, radius_ * 2.0);
  }
  maybe_shrink(points);
  return mst_;
}

template class KineticEmstEngine<1>;
template class KineticEmstEngine<2>;
template class KineticEmstEngine<3>;

}  // namespace manet
