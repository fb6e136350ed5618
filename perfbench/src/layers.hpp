#pragma once

// The per-layer metric set (BENCHMARK.json "per_layer") and the traced
// wrappers shared by the simulation workloads.

#include <cstdint>
#include <span>

#include "bench.hpp"
#include "geometry/point.hpp"
#include "support/metrics.hpp"
#include "topology/critical_range.hpp"
#include "topology/emst_kinetic.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Per-layer values that do not come from the tracer's totals. A workload
/// fills in what it exercises; the rest stays 0 (layer not exercised).
struct LayerExtras {
  double iteration_s_p50 = 0.0;
  double iteration_s_max = 0.0;
  double busy_share = 0.0;
  double pool_tasks = 0.0;
  double pool_steals = 0.0;
  double emst_solves = 0.0;
  double emst_dense_fallbacks = 0.0;
  double emst_doubling_rounds = 0.0;
  double idle_polls = 0.0;
  double held_skips = 0.0;
  double transport_us_p50 = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double parse_errors = 0.0;
  double trace_overhead_s = 0.0;
  double trace_coverage = 0.0;
};

/// Appends every per-layer metric, in BENCHMARK.json order. Tracer totals
/// are divided by `passes` (per-layer values are per traced pass).
void add_per_layer(Report& report, const trace::Totals& totals, double passes,
                   const LayerExtras& extras);

/// The library's pool and batch-EMST counters (metrics::snapshot()) summed
/// over the calls made inside `around()` only, so that untraced passes run
/// between traced ones do not count.
class LibraryCounters {
 public:
  template <typename Fn>
  decltype(auto) around(Fn&& fn) {
    const manet::metrics::Snapshot before = manet::metrics::snapshot();
    decltype(auto) result = fn();
    add_delta(before, manet::metrics::snapshot());
    return result;
  }
  /// Sets the pool_* and emst_* fields of `extras`, per pass.
  void fill(LayerExtras& extras, double passes) const;

 private:
  void add_delta(const manet::metrics::Snapshot& before, const manet::metrics::Snapshot& after);
  double sums_[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
};

/// KineticEmstEngine::advance, timed and classified by the path the step
/// took (from the KineticStats delta around the call).
std::span<const manet::WeightedEdge> traced_advance(manet::KineticEmstEngine<2>& engine,
                                                    std::span<const manet::Point2> points);

/// LargestComponentCurve's workspace constructor, timed.
manet::LargestComponentCurve traced_curve(
    std::size_t n, std::span<const manet::WeightedEdge> tree, manet::UnionFind& dsu,
    std::vector<manet::LargestComponentCurve::Breakpoint>& scratch);

}  // namespace perfbench
