#include "topology/critical_range.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "support/contracts.hpp"

namespace manet {

void LargestComponentCurve::build_from_sorted(std::size_t n,
                                              std::span<const WeightedEdge> sorted_edges,
                                              UnionFind& dsu,
                                              std::vector<Breakpoint>& out) {
  MANET_EXPECTS(sorted_edges.size() + 1 == n || (n <= 1 && sorted_edges.empty()));
  MANET_INVARIANT(std::is_sorted(
      sorted_edges.begin(), sorted_edges.end(),
      [](const WeightedEdge& a, const WeightedEdge& b) { return a.weight < b.weight; }));

  out.clear();
  out.push_back({0.0, n == 0 ? std::size_t{0} : std::size_t{1}});
  if (sorted_edges.empty()) return;

  dsu.reset(n);
  for (const WeightedEdge& e : sorted_edges) {
    const std::size_t before = dsu.largest_component_size();
    const bool merged = dsu.unite(e.u, e.v);
    MANET_ENSURES(merged);  // MST edges never form cycles
    const std::size_t after = dsu.largest_component_size();
    if (after > before) {
      if (out.back().range == e.weight) {
        // Several merges at the same range (e.g. equally spaced points):
        // keep one breakpoint with the final size.
        out.back().size = after;
      } else {
        out.push_back({e.weight, after});
      }
    }
  }
  MANET_ENSURES(dsu.all_connected());
  check_step_function(n, out);
}

void LargestComponentCurve::check_step_function(std::size_t n, std::span<const Breakpoint> out) {
  MANET_ENSURES(out.back().size == n);
  // The curve is a nondecreasing step function: ranges and sizes both ascend.
  MANET_INVARIANT(std::is_sorted(
      out.begin(), out.end(),
      [](const Breakpoint& a, const Breakpoint& b) { return a.range < b.range; }));
  MANET_INVARIANT(std::is_sorted(
      out.begin(), out.end(),
      [](const Breakpoint& a, const Breakpoint& b) { return a.size < b.size; }));
}

LargestComponentCurve LargestComponentCurve::from_prim_order(std::size_t n,
                                                             std::span<const double> prim_order_d2,
                                                             PrimOrderScratch& work,
                                                             std::vector<Breakpoint>& scratch) {
  MANET_EXPECTS(prim_order_d2.size() + 1 == n || (n <= 1 && prim_order_d2.empty()));
  scratch.clear();
  if (n >= 2) {
    // key_at_span[s]: the smallest key of a run spanning s nodes (infinite
    // if none does; the last run spans all n).
    std::vector<double>& key_at_span = work.key_at_span;
    key_at_span.assign(n + 1, std::numeric_limits<double>::infinity());
    detail::for_each_prim_run(prim_order_d2, work.stack, [&](std::size_t span, double key) {
      key_at_span[span] = std::min(key_at_span[span], key);
    });
    // Walking down from s = n, the running minimum of key_at_span[s..n] is
    // the smallest key at which the largest component holds at least s
    // nodes. Where it drops, s is the largest size its new value reaches:
    // a breakpoint, emitted largest first, unless it covers to the range
    // of the one above, which keeps the larger size (as equal weights share
    // one in build_from_sorted).
    double running = std::numeric_limits<double>::infinity();
    for (std::size_t s = n; s >= 2; --s) {
      if (!(key_at_span[s] < running)) continue;
      running = key_at_span[s];
      const double range = covering_radius(running);
      if (scratch.empty() || scratch.back().range != range) scratch.push_back({range, s});
    }
  }
  if (scratch.empty() || scratch.back().range != 0.0) {
    scratch.push_back({0.0, n == 0 ? std::size_t{0} : std::size_t{1}});
  }
  std::reverse(scratch.begin(), scratch.end());
  check_step_function(n, scratch);
  LargestComponentCurve curve(n);
  // Exact-size copy: the single retained allocation of a mobility step.
  curve.breakpoints_ = scratch;
  return curve;
}

LargestComponentCurve::LargestComponentCurve(std::size_t n, std::vector<WeightedEdge> mst_edges)
    : n_(n) {
  std::sort(mst_edges.begin(), mst_edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) { return a.weight < b.weight; });
  UnionFind dsu(n);
  build_from_sorted(n, mst_edges, dsu, breakpoints_);
}

LargestComponentCurve::LargestComponentCurve(std::size_t n,
                                             std::span<const WeightedEdge> sorted_mst_edges,
                                             UnionFind& dsu, std::vector<Breakpoint>& scratch)
    : n_(n) {
  build_from_sorted(n, sorted_mst_edges, dsu, scratch);
  // Exact-size copy: the single retained allocation of a mobility step.
  breakpoints_ = scratch;
}

std::size_t LargestComponentCurve::largest_component_at(double range) const {
  MANET_EXPECTS(range >= 0.0);
  // Last breakpoint with breakpoint.range <= range.
  auto it = std::upper_bound(
      breakpoints_.begin(), breakpoints_.end(), range,
      [](double r, const Breakpoint& b) { return r < b.range; });
  MANET_ENSURES(it != breakpoints_.begin());
  return std::prev(it)->size;
}

double LargestComponentCurve::largest_fraction_at(double range) const {
  if (n_ == 0) return 1.0;
  return static_cast<double>(largest_component_at(range)) / static_cast<double>(n_);
}

double LargestComponentCurve::range_for_size(std::size_t target_size) const {
  MANET_EXPECTS(target_size > 0 && target_size <= n_);
  const auto it = std::lower_bound(
      breakpoints_.begin(), breakpoints_.end(), target_size,
      [](const Breakpoint& b, std::size_t target) { return b.size < target; });
  MANET_ENSURES(it != breakpoints_.end());
  return it->range;
}

double LargestComponentCurve::critical_range() const {
  if (n_ <= 1) return 0.0;
  return breakpoints_.back().range;
}

double detail::bottleneck_reach_scale(const ScaledArcs& arcs) {
  // The reached set grows by its cheapest leaving arc; the largest scale
  // taken is the smallest at which every node is reached.
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> fringe;
  std::vector<char> reached(arcs.size(), 0);
  std::size_t count = 0;
  double scale = 0.0;
  fringe.push({0.0, 0});
  while (!fringe.empty()) {
    const auto [arc_scale, node] = fringe.top();
    fringe.pop();
    if (reached[node] != 0) continue;
    reached[node] = 1;
    scale = std::max(scale, arc_scale);
    if (++count == arcs.size()) return scale;
    for (const auto& [head, head_scale] : arcs[node]) {
      if (reached[head] == 0) fringe.emplace(head_scale, head);
    }
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace manet
