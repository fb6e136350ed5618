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

bool candidate_less(double a_d2, std::uint32_t a_u, std::uint32_t a_v, double b_d2,
                    std::uint32_t b_u, std::uint32_t b_v) noexcept {
  if (a_d2 != b_d2) return a_d2 < b_d2;
  if (a_u != b_u) return a_u < b_u;
  return a_v < b_v;
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
  // Scratch for the batched scans; sized once so warm advances stay
  // allocation-free even after a radius-growth rebuild mid-trace.
  snap_.reserve(n_);
  cur_.reserve(n_);
  near_d2_.resize(n_);
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
  // row of cells) is a contiguous run per axis, ready for the batched
  // kernels. Gather from cur_, which advance_impl filled this step.
  snap_.assign_gather(cur_, std::span<const std::uint32_t>(cell_ids_.data(), n_));
}

template <int D>
void KineticEmstEngine<D>::emit_mover_run(std::uint32_t i, const double* q,
                                          std::size_t run_begin, std::size_t run_end) {
  const std::size_t count = run_end - run_begin;
  if (count == 0) return;
  kernels::AxisPointers<D> axes;
  for (int a = 0; a < D; ++a) {
    axes[static_cast<std::size_t>(a)] = snap_.axis(a) + run_begin;
  }
  double* d2 = near_d2_.data();
  kernels::batch_squared_distance<D>(axes, count, q, d2);
  const std::uint32_t* ids = cell_ids_.data() + run_begin;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t j = ids[k];
    if (j == i) continue;
    // Both endpoints moved: emit once, from the smaller id (the larger-id
    // mover skips the pair).
    if (moved_flag_[j] != 0 && j < i) continue;
    if (d2[k] > r2_) continue;
    changed_.push_back({d2[k], std::min(i, j), std::max(i, j)});
  }
}

template <int D>
void KineticEmstEngine<D>::scan_mover(std::uint32_t i) {
  const int w = near_window_;
  std::array<double, static_cast<std::size_t>(D)> q;
  for (int a = 0; a < D; ++a) q[static_cast<std::size_t>(a)] = cur_.axis(a)[i];

  // Axis 0 is the least-significant digit of the flat cell index, so the
  // 2w+1 window cells of one axis-0 row are contiguous both in flat index
  // and (via cell_start_) in CSR slots: each row becomes one batched kernel
  // run instead of per-cell, per-pair scalar work. The row's axis-0 extent,
  // clipped to the grid, is the same in every row. Higher axes step by the
  // usual odometer.
  const auto center = cell_coords(cur_.get(i));
  const auto cells = static_cast<long long>(cells_per_axis_);
  const auto row_begin =
      static_cast<std::size_t>(std::max<long long>(static_cast<long long>(center[0]) - w, 0));
  const auto row_end = static_cast<std::size_t>(
      std::min<long long>(static_cast<long long>(center[0]) + w, cells - 1) + 1);
  const auto row_base_of = [this](const std::array<std::size_t, D>& c) {
    std::size_t idx = 0;
    for (int a = D - 1; a >= 1; --a) idx = idx * cells_per_axis_ + c[static_cast<std::size_t>(a)];
    return idx * cells_per_axis_;
  };
  const auto scan_row = [this, i, &q, row_begin, row_end](std::size_t row_base) {
    emit_mover_run(i, q.data(), cell_start_[row_base + row_begin],
                   cell_start_[row_base + row_end]);
  };

  if constexpr (D == 1) {
    scan_row(0);
    return;
  } else {
    // Odometer over axes 1..D-1 offsets in [-w, w].
    std::array<int, D> offset{};
    for (int a = 1; a < D; ++a) offset[static_cast<std::size_t>(a)] = -w;
    for (;;) {
      std::array<std::size_t, D> other{};
      bool in_grid = true;
      for (int a = 1; a < D; ++a) {
        const auto shifted = static_cast<long long>(center[static_cast<std::size_t>(a)]) +
                             offset[static_cast<std::size_t>(a)];
        if (shifted < 0 || shifted >= cells) {
          in_grid = false;
          break;
        }
        other[static_cast<std::size_t>(a)] = static_cast<std::size_t>(shifted);
      }
      if (in_grid) scan_row(row_base_of(other));
      int axis = 1;
      while (axis < D) {
        if (++offset[static_cast<std::size_t>(axis)] <= w) break;
        offset[static_cast<std::size_t>(axis)] = -w;
        ++axis;
      }
      if (axis == D) break;
    }
  }
}

template <int D>
void KineticEmstEngine<D>::sort_candidates(std::vector<Candidate>& a, double d2_bound) {
  const std::size_t size = a.size();
  if (size < kRadixCutoff) {
    std::sort(a.begin(), a.end(), [](const Candidate& x, const Candidate& y) {
      return candidate_less(x.d2, x.u, x.v, y.d2, y.u, y.v);
    });
    return;
  }

  // Stable LSD radix on a monotone 32-bit rescaling of d2: every candidate
  // satisfies 0 <= d2 <= d2_bound, so key = floor(d2 * 2^32 / d2_bound') is
  // a non-decreasing map into [0, 2^32) (double multiplication rounds
  // monotonically, the product stays far below 2^53) and three 11-bit digit
  // passes order it. Distinct d2 may collide on a key (~n^2/2^32 expected
  // collisions); the repair scan below re-sorts equal-key runs with the
  // exact (d2, u, v) comparator, which also puts equal-d2 duplicates into
  // (u, v) order — so the result is exactly the unique std::sort sequence,
  // at roughly half the scatter traffic of a full 64-bit-key radix.
  MANET_EXPECTS(d2_bound > 0.0);
  const double scale = 4294967296.0 / (d2_bound * (1.0 + 1e-9));
  const auto key_of = [scale](const Candidate& c) noexcept {
    return static_cast<std::uint32_t>(c.d2 * scale);
  };

  constexpr int kDigits = 3;  // 3 x 11 bits covers the 32-bit key
  constexpr int kDigitBits = 11;
  constexpr std::uint32_t kDigitMask = (1u << kDigitBits) - 1;
  std::array<std::uint32_t, kDigits << kDigitBits> hist{};
  for (const Candidate& c : a) {
    const std::uint32_t key = key_of(c);
    for (int d = 0; d < kDigits; ++d)
      ++hist[(d << kDigitBits) + ((key >> (kDigitBits * d)) & kDigitMask)];
  }

  radix_tmp_.resize(size);
  Candidate* src = a.data();
  Candidate* dst = radix_tmp_.data();
  for (int pos = 0; pos < kDigits; ++pos) {
    std::uint32_t* counts = hist.data() + (pos << kDigitBits);
    // All elements share this digit: the scatter would be the identity.
    bool trivial = false;
    for (std::size_t b = 0; b <= kDigitMask; ++b) {
      if (counts[b] == size) {
        trivial = true;
        break;
      }
      if (counts[b] != 0) break;
    }
    if (trivial) continue;
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b <= kDigitMask; ++b) {
      const std::uint32_t count = counts[b];
      counts[b] = offset;
      offset += count;
    }
    const int shift = kDigitBits * pos;
    for (std::size_t i = 0; i < size; ++i) {
      dst[counts[(key_of(src[i]) >> shift) & kDigitMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != a.data()) a.swap(radix_tmp_);

  // Repair equal-key runs (key collisions and genuine d2 ties) with the
  // exact comparator. Runs are almost always length 1: one linear scan.
  std::size_t i = 0;
  while (i < size) {
    std::size_t j = i + 1;
    while (j < size && key_of(a[j]) == key_of(a[i])) ++j;
    if (j - i > 1) {
      std::sort(a.begin() + static_cast<std::ptrdiff_t>(i),
                a.begin() + static_cast<std::ptrdiff_t>(j),
                [](const Candidate& x, const Candidate& y) {
                  return candidate_less(x.d2, x.u, x.v, y.d2, y.u, y.v);
                });
    }
    i = j;
  }
}

template <int D>
bool KineticEmstEngine<D>::run_kruskal() {
  dsu_.reset(n_);
  mst_.clear();
  for (const Candidate& c : edges_) {
    if (dsu_.unite(c.u, c.v)) {
      mst_.push_back({c.u, c.v, covering_radius(c.d2)});
      if (mst_.size() + 1 == n_) return true;
    }
  }
  return mst_.size() + 1 == n_;
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
    sort_candidates(edges_, radius * radius);
    if (run_kruskal()) break;
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
  changed_.clear();
  for (const std::uint32_t i : moved_) scan_mover(i);
  stats_.last_delta = changed_.size();

  // Pass 4: sort the delta, then merge it with the surviving pool entries,
  // dropping everything mover-incident (the delta holds its replacements).
  // (d2, u, v) is a strict total order — (u, v) is unique per pair — so the
  // merged sequence equals the from-scratch sort bit for bit. Kruskal is
  // fused into the merge: every emitted candidate is offered to the forest
  // in order until the tree completes, which turns Kruskal's own full read
  // of the pool into reuse of values this loop already holds in registers.
  sort_candidates(changed_, r2_);
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
    while (delta != delta_end &&
           candidate_less(delta->d2, delta->u, delta->v, c.d2, c.u, c.v)) {
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
