#include "topology/emst_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/distance_kernels.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace manet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Counters shared by every EmstEngine<D> instantiation. One bundle behind a
/// function-local static so the names are registered exactly once, and the
/// hot loops below touch nothing heavier than a thread-local add. These are
/// pure *work* counters — how many rounds/rebuilds the input demanded — so
/// they are deterministic for a fixed input regardless of thread count.
struct EmstMetrics {
  metrics::Counter solves = metrics::counter("emst.solves");
  metrics::Counter rounds = metrics::counter("emst.doubling_rounds");
  metrics::Counter dense = metrics::counter("emst.dense_fallbacks");
  metrics::Counter rebuilds = metrics::counter("emst.grid_rebuilds");
};

EmstMetrics& emst_metrics() {
  static EmstMetrics bundle;
  return bundle;
}

}  // namespace

template <int D>
double EmstEngine<D>::initial_radius(std::size_t n, double side) {
  const double frac = std::log(static_cast<double>(n)) / static_cast<double>(n);
  return side * std::pow(frac, 1.0 / static_cast<double>(D));
}

template <int D>
template <bool Torus>
void EmstEngine<D>::dense_prim(std::span<const Point<D>> points, double side) {
  const std::size_t n = points.size();
  stats_.dense_fallback = true;
  emst_metrics().dense.increment();

  // The fringe holds every vertex but the tree's first, vertex 0: its slot
  // takes the last vertex, as every later removal does. The arrays are
  // padded to whole 4-slot blocks with inert slots (infinite coordinates and
  // key, so no relaxation ever lowers the key), which spares the kernel its
  // scalar tail.
  const auto whole_blocks = [](std::size_t slots) { return (slots + 3) & ~std::size_t{3}; };
  const std::size_t padded = whole_blocks(n);
  Point<D> inert{};
  inert.coords.fill(kInf);
  fringe_.resize(padded);
  for (std::size_t i = 0; i < padded; ++i) fringe_.set(i, i < n ? points[i] : inert);
  fringe_best_.assign(padded, kInf);
  fringe_from_.assign(padded, 0);
  fringe_id_.resize(n);
  for (std::size_t i = 0; i < n; ++i) fringe_id_[i] = static_cast<std::uint32_t>(i);
  std::size_t count = n;
  const auto remove_slot = [&](std::size_t slot) {
    --count;
    fringe_.set(slot, fringe_.get(count));
    fringe_best_[slot] = fringe_best_[count];
    fringe_from_[slot] = fringe_from_[count];
    fringe_id_[slot] = fringe_id_[count];
    fringe_.set(count, inert);
    fringe_best_[count] = kInf;
  };
  remove_slot(0);

  candidates_.resize(n - 1);
  Point<D> added = points[0];
  std::uint32_t current = 0;
  double max_d2 = 0.0;
  for (std::size_t e = 0; e + 1 < n; ++e) {
    double* best = fringe_best_.data();
    const std::size_t scanned = whole_blocks(count);
    const kernels::PrimPick pick =
        Torus ? kernels::torus_prim_relax_argmin<D>(fringe_.axes(), scanned, added.coords.data(),
                                                     side, current, best, fringe_from_.data())
              : kernels::prim_relax_argmin<D>(fringe_.axes(), scanned, added.coords.data(),
                                               current, best, fringe_from_.data());
    std::size_t slot = pick.slot;
    MANET_ENSURES(slot < count && best[slot] < kInf);
    if (pick.tie) {
      // Equal keys go to the smallest vertex id, as in mst_with_metric.
      for (std::size_t k = 0; k < count; ++k) {
        if (best[k] == best[slot] && fringe_id_[k] < fringe_id_[slot]) slot = k;
      }
    }
    current = fringe_id_[slot];
    added = fringe_.get(slot);
    candidates_[e] = {best[slot], fringe_from_[slot], current};
    max_d2 = std::max(max_d2, best[slot]);
    remove_slot(slot);
  }

  // The output contract is (d2, u, v) order, as on the grid path. The sort
  // needs a positive bound; when every point coincides all keys are 0 and
  // any positive bound holds.
  detail::sort_candidates(candidates_, max_d2 > 0.0 ? max_d2 : 1.0,
                          detail::thread_sort_scratch());
  for (const detail::EmstCandidate& c : candidates_) {
    mst_.push_back({c.u, c.v, covering_radius(c.d2)});
  }
}

template <int D>
template <bool Torus>
std::span<const WeightedEdge> EmstEngine<D>::solve(std::span<const Point<D>> points,
                                                   double side) {
  MANET_EXPECTS(side > 0.0);
  stats_ = {};
  mst_.clear();
  const std::size_t n = points.size();
  if (n <= 1) return mst_;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("EmstEngine: more than 2^32 points are not supported");
  }
  emst_metrics().solves.increment();

  // The farthest any pair can be: at this radius the candidate graph is
  // complete, so the doubling search always terminates.
  const double r_max = Torus ? 0.5 * side * std::sqrt(static_cast<double>(D))
                             : side * std::sqrt(static_cast<double>(D));
  const double r0 = initial_radius(n, side);
  if (n < (Torus ? kTorusDenseCutoff : kDenseCutoff) || r0 >= 0.5 * side) {
    // Tiny inputs or near-complete candidate graphs: the grid cannot prune
    // enough pairs to pay for itself.
    dense_prim<Torus>(points, side);
    return mst_;
  }

  const Box<D> box(side);
  double radius = std::min(r0, r_max);
  for (;;) {
    ++stats_.rounds;
    emst_metrics().rounds.increment();
    // Rebin at the current radius: rebuild only ever coarsens the cell size
    // upward, so the query below always satisfies radius <= cell_size and
    // never trips the CellGrid precondition, no matter how far the doubling
    // has pushed the radius.
    grid_.rebuild(points, box, radius);
    emst_metrics().rebuilds.increment();
    MANET_INVARIANT(radius <= grid_.max_query_radius());

    candidates_.clear();
    const auto collect = [this](std::size_t i, std::size_t j, double d2) {
      candidates_.push_back(
          {d2, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    };
    if constexpr (Torus) {
      grid_.for_each_torus_pair_within(radius, collect);
    } else {
      grid_.for_each_pair_within(radius, collect);
    }
    stats_.candidate_edges = candidates_.size();
    stats_.final_radius = radius;

    // Filtered Kruskal over the candidates. If the radius-r graph spans, its
    // MST is a genuine MST of the complete graph: every full-MST edge weighs
    // at most the bottleneck <= r, so all of them are among the candidates.
    detail::sort_candidates(candidates_, radius * radius, detail::thread_sort_scratch());
    if (detail::filtered_kruskal(candidates_, n, dsu_, mst_)) break;
    MANET_INVARIANT(radius < r_max);  // the complete graph always spans
    radius = std::min(radius * 2.0, r_max);
  }
  MANET_ENSURES(mst_.size() + 1 == n);
  return mst_;
}

template <int D>
std::span<const WeightedEdge> EmstEngine<D>::euclidean(std::span<const Point<D>> points,
                                                       const Box<D>& box) {
  return solve<false>(points, box.side());
}

template <int D>
std::span<const WeightedEdge> EmstEngine<D>::torus(std::span<const Point<D>> points,
                                                   double side) {
  return solve<true>(points, side);
}

template <int D>
double EmstEngine<D>::max_nearest_neighbor_range(std::span<const Point<D>> points,
                                                 const Box<D>& box) {
  const std::size_t n = points.size();
  if (n <= 1) return 0.0;
  stats_ = {};

  nn2_.assign(n, kInf);
  if (n < kNearestNeighborDenseCutoff) {
    stats_.dense_fallback = true;
    emst_metrics().dense.increment();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d2 = squared_distance(points[i], points[j]);
        nn2_[i] = std::min(nn2_[i], d2);
        nn2_[j] = std::min(nn2_[j], d2);
      }
    }
  } else {
    const double side = box.side();
    const double r_max = side * std::sqrt(static_cast<double>(D));
    double radius = std::min(initial_radius(n, side), r_max);
    for (;;) {
      ++stats_.rounds;
      emst_metrics().rounds.increment();
      grid_.rebuild(points, box, radius);
      emst_metrics().rebuilds.increment();
      nn2_.assign(n, kInf);
      grid_.for_each_pair_within(radius, [this](std::size_t i, std::size_t j, double d2) {
        nn2_[i] = std::min(nn2_[i], d2);
        nn2_[j] = std::min(nn2_[j], d2);
      });
      stats_.final_radius = radius;
      // A neighbor found within the radius is the exact nearest neighbor
      // (anything closer would also be within the radius); only points that
      // saw nothing force a wider search.
      if (std::none_of(nn2_.begin(), nn2_.end(), [](double d2) { return d2 == kInf; })) {
        break;
      }
      MANET_INVARIANT(radius < r_max);  // at the diagonal every pair is in range
      radius = std::min(radius * 2.0, r_max);
    }
  }

  double worst_nn2 = 0.0;
  for (double d2 : nn2_) worst_nn2 = std::max(worst_nn2, d2);
  MANET_ENSURES(worst_nn2 < kInf);
  return covering_radius(worst_nn2);
}

template class EmstEngine<1>;
template class EmstEngine<2>;
template class EmstEngine<3>;

}  // namespace manet
