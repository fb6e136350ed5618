#include "topology/emst_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
  return emst_initial_radius<D>(n, side);
}

template <int D>
template <bool Torus>
void EmstEngine<D>::dense_prim(std::span<const Point<D>> points, double side) {
  // Same relaxation order and the same squared-distance -> covering_radius
  // arithmetic as mst_with_metric (topology/mst.hpp), into pooled scratch.
  const std::size_t n = points.size();
  stats_.dense_fallback = true;
  emst_metrics().dense.increment();
  best_d2_.assign(n, kInf);
  best_from_.assign(n, 0);
  in_tree_.assign(n, 0);

  std::size_t current = 0;
  in_tree_[0] = 1;
  for (std::size_t added = 1; added < n; ++added) {
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree_[v] != 0) continue;
      const double d2 = Torus ? torus_squared_distance(points[current], points[v], side)
                              : squared_distance(points[current], points[v]);
      if (d2 < best_d2_[v]) {
        best_d2_[v] = d2;
        best_from_[v] = current;
      }
    }
    std::size_t next = n;
    double next_d2 = kInf;
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree_[v] == 0 && best_d2_[v] < next_d2) {
        next_d2 = best_d2_[v];
        next = v;
      }
    }
    MANET_ENSURES(next < n);
    in_tree_[next] = 1;
    mst_.push_back({best_from_[next], next, covering_radius(next_d2)});
    current = next;
  }
  // The engine's output contract is weight-ascending order (Prim emits in
  // tree-growth order); ties break on endpoints for determinism.
  std::sort(mst_.begin(), mst_.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
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
  if (n < kDenseCutoff || r0 >= 0.5 * side) {
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
  if (n < kDenseCutoff) {
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
