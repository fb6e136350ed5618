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
template <std::size_t K>
void EmstEngine<D>::dense_prim(const std::array<std::span<const Point<D>>, K>& batch) {
  static_assert(K == 1 || K == kPrimBatch);
  const std::size_t n = batch[0].size();
  stats_.dense_fallback = true;
  emst_metrics().dense.add(K);

  // Each fringe holds every vertex but its tree's first, vertex 0: its slot
  // takes the last vertex, as every later removal does. The arrays are
  // padded to whole 4-slot blocks with inert slots (infinite coordinates and
  // key, so no relaxation ever lowers the key), which spares the kernel its
  // scalar tail.
  const auto whole_blocks = [](std::size_t slots) { return (slots + 3) & ~std::size_t{3}; };
  const std::size_t padded = whole_blocks(n);
  Point<D> inert{};
  inert.coords.fill(kInf);
  std::array<Point<D>, K> added;
  std::array<kernels::PrimFringe<D>, K> round;
  for (std::size_t j = 0; j < K; ++j) {
    const std::span<const Point<D>> points = batch[j];
    Fringe& f = fringes_[j];
    f.coords.resize(padded);
    for (std::size_t i = 0; i < padded; ++i) f.coords.set(i, i < n ? points[i] : inert);
    f.best.assign(padded, kInf);
    added[j] = points[0];
    // The buffers keep their addresses for the whole solve; only the point
    // behind q changes from round to round.
    round[j] = {f.coords.axes(), added[j].coords.data(), f.best.data()};
  }
  std::size_t count = n;
  // Moves the last live slot of fringe j into `slot` and retires the last.
  const auto remove_slot = [&](std::size_t j, std::size_t slot) {
    Fringe& f = fringes_[j];
    const std::size_t last = count - 1;
    f.coords.set(slot, f.coords.get(last));
    f.best[slot] = f.best[last];
    f.coords.set(last, inert);
    f.best[last] = kInf;
  };
  for (std::size_t j = 0; j < K; ++j) remove_slot(j, 0);
  --count;

  prim_keys_.resize(K * (n - 1));
  for (std::size_t e = 0; e + 1 < n; ++e) {
    const kernels::PrimPicks<K> picks =
        kernels::prim_relax_argmin<D, K>(round, whole_blocks(count));
    for (std::size_t j = 0; j < K; ++j) {
      Fringe& f = fringes_[j];
      const std::size_t slot = picks[j];
      MANET_ENSURES(slot < count && f.best[slot] < kInf);
      prim_keys_[j * (n - 1) + e] = f.best[slot];
      added[j] = f.coords.get(slot);
      remove_slot(j, slot);
    }
    --count;
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
  const Box<D> box(side);
  double radius = std::min(initial_radius(n, side), r_max);
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
template <std::size_t K>
std::array<std::span<const double>, K> EmstEngine<D>::prim_order_keys(
    const std::array<std::span<const Point<D>>, K>& batch) {
  const std::size_t n = batch[0].size();
  MANET_EXPECTS(dense_path(n));
  for (const std::span<const Point<D>> points : batch) MANET_EXPECTS(points.size() == n);
  stats_ = {};
  prim_keys_.clear();
  if (n > 1) {
    emst_metrics().solves.add(K);
    dense_prim<K>(batch);
  }
  const std::size_t per_set = n > 1 ? n - 1 : 0;
  std::array<std::span<const double>, K> keys;
  for (std::size_t j = 0; j < K; ++j) {
    keys[j] = std::span<const double>(prim_keys_).subspan(j * per_set, per_set);
  }
  return keys;
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

  double worst_nn2 = 0.0;
  for (double d2 : nn2_) worst_nn2 = std::max(worst_nn2, d2);
  MANET_ENSURES(worst_nn2 < kInf);
  return covering_radius(worst_nn2);
}

template class EmstEngine<1>;
template class EmstEngine<2>;
template class EmstEngine<3>;

// prim_order_keys takes one set (stationary solves, single trace steps) or a
// trace's batch of kPrimBatch = 4.
static_assert(EmstEngine<1>::kPrimBatch == 4 && EmstEngine<2>::kPrimBatch == 4 &&
              EmstEngine<3>::kPrimBatch == 4);
template std::array<std::span<const double>, 1> EmstEngine<1>::prim_order_keys(
    const std::array<std::span<const Point<1>>, 1>&);
template std::array<std::span<const double>, 1> EmstEngine<2>::prim_order_keys(
    const std::array<std::span<const Point<2>>, 1>&);
template std::array<std::span<const double>, 1> EmstEngine<3>::prim_order_keys(
    const std::array<std::span<const Point<3>>, 1>&);
template std::array<std::span<const double>, 4> EmstEngine<1>::prim_order_keys(
    const std::array<std::span<const Point<1>>, 4>&);
template std::array<std::span<const double>, 4> EmstEngine<2>::prim_order_keys(
    const std::array<std::span<const Point<2>>, 4>&);
template std::array<std::span<const double>, 4> EmstEngine<3>::prim_order_keys(
    const std::array<std::span<const Point<3>>, 4>&);

}  // namespace manet
