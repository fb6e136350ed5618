#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include <algorithm>

#include "geometry/box.hpp"
#include "mobility/mobility_model.hpp"
#include "sim/deployment.hpp"
#include "sim/trace_workspace.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"

namespace manet {

/// The connectivity record of one mobile-simulation iteration: the largest-
/// component-vs-range curve of every mobility step. Because a step is
/// connected at range r iff r >= its critical radius, this record answers
/// every MTRM question of the paper exactly, with no per-candidate-range
/// re-simulation:
///   - r_f ("connected during fraction f of the time", Figures 2-3, 7-9) is
///     an order statistic of the per-step critical radii;
///   - r0 ("largest range that yields no connected graphs") is their minimum;
///   - rl_phi ("mean largest component = phi * n", Figure 6) is an exact
///     selection over a range histogram of the per-step curves' breakpoints
///     (DESIGN.md section 10);
///   - mean/min largest-component sizes at any range (Figures 4-5) are curve
///     lookups.
class MobileConnectivityTrace {
 public:
  /// Takes one LargestComponentCurve per mobility step (>= 1 steps; every
  /// curve must be over `node_count` nodes).
  MobileConnectivityTrace(std::size_t node_count,
                          std::vector<LargestComponentCurve> per_step_curves);

  /// Shim kept for perfbench; delete with the next benchmark change. Same as
  /// the two-argument form; `event_scratch` is only cleared.
  MobileConnectivityTrace(std::size_t node_count,
                          std::vector<LargestComponentCurve> per_step_curves,
                          std::vector<CurveMergeEvent>& event_scratch);

  std::size_t node_count() const noexcept { return n_; }
  std::size_t steps() const noexcept { return curves_.size(); }

  /// Fraction of steps whose graph is connected at range r.
  double fraction_of_time_connected(double range) const;

  /// Minimum range such that at least ceil(f * steps) steps are connected
  /// (exact order statistic). f = 1 gives r100, f = 0.9 gives r90, ...
  /// Requires f in (0, 1].
  double range_for_time_fraction(double f) const;

  /// r0: the supremum of ranges at which *no* step is connected — the
  /// minimum per-step critical radius (at exactly this range the first step
  /// connects; see DESIGN.md convention 2).
  double largest_never_connected_range() const;

  /// Minimum range at which the mean (over all steps) largest-component size
  /// reaches phi * n (the paper's rl90/rl75/rl50). Requires phi in (0, 1].
  /// Walks the delta histogram to the first bin whose running total reaches
  /// the target, then gathers and sorts only that bin's breakpoints: O(B +
  /// steps log b + k log k) for B bins, b breakpoints per step and k in the
  /// bin (~64 on average).
  double range_for_mean_component_fraction(double phi) const;

  /// Mean largest-component fraction at range r over all steps. O(steps log
  /// b): one lookup per step curve.
  double mean_largest_fraction_at(double range) const;

  /// Mean largest-component fraction at range r over the *disconnected*
  /// steps only — the quantity plotted in Figures 4-5 ("averaged over the
  /// runs that yield a disconnected graph"). Returns 1.0 when every step is
  /// connected at r.
  double mean_largest_fraction_when_disconnected(double range) const;

  /// Minimum largest-component fraction at range r over all steps (the
  /// paper's "minimum size of the largest connected component").
  double min_largest_fraction_at(double range) const;

  /// Fraction of steps whose largest component holds at least phi * n nodes
  /// at range r — the degraded-mode availability of Section 1 ("the
  /// percentage of time for which a sufficiently large number of nodes are
  /// connected"). Requires phi in (0, 1].
  double fraction_of_time_component_at_least(double range, double phi) const;

  /// Mean of the per-step critical radii.
  double mean_critical_range() const;

  /// Ascending per-step critical radii.
  std::span<const double> sorted_critical_radii() const noexcept { return sorted_rc_; }

  /// Per-step critical radii in simulation order (step 0 first) — the
  /// timeline consumed by the outage-interval analysis (sim/outage.hpp).
  std::span<const double> critical_radius_timeline() const noexcept { return timeline_rc_; }

 private:
  std::size_t n_;
  std::vector<LargestComponentCurve> curves_;
  std::vector<double> sorted_rc_;
  std::vector<double> timeline_rc_;

  /// Sum over steps of the largest-component size at range 0: the first
  /// breakpoint sizes plus the deltas of breakpoints at range exactly 0.
  std::size_t total_at_zero_ = 0;
  /// delta_histogram_[b]: the summed size deltas of every positive-range
  /// breakpoint in bin b (B = delta_histogram_.size(), a power of two).
  std::vector<std::size_t> delta_histogram_;
};

/// Runs one mobile iteration: deploys n nodes uniformly, initializes the
/// mobility model, and records the component curve of the initial placement
/// and of every subsequent step (`steps` curves in total; steps = 1 is the
/// stationary case). Requires steps >= 1.
///
/// Each step's tree is a from-scratch EmstEngine::euclidean solve through
/// `workspace` (its `kinetic` member): dense Prim below kDenseCutoff, the
/// grid path above. tests/kinetic_differential_test checks every step's tree
/// against the test-only reference MST on both paths.
///
/// Pass a workspace to reuse its buffers across multiple traces — e.g. a
/// bench sweeping iterations serially — or leave it null for a per-call one.
/// Workspaces are single-threaded: concurrent traces need one each (see
/// core/mtrm.hpp).
template <int D>
MobileConnectivityTrace run_mobile_trace(std::size_t n, const Box<D>& box, std::size_t steps,
                                         MobilityModel<D>& model, Rng& rng,
                                         TraceWorkspace<D>* workspace = nullptr) {
  MANET_EXPECTS(steps >= 1);
  TraceWorkspace<D> local_workspace;
  TraceWorkspace<D>& ws = workspace != nullptr ? *workspace : local_workspace;
  uniform_deployment(n, box, rng, ws.positions);
  std::vector<Point<D>>& positions = ws.positions;
  model.initialize(positions, rng);

  std::vector<LargestComponentCurve> curves;
  curves.reserve(steps);
  curves.emplace_back(n, ws.kinetic.start(positions, box), ws.dsu, ws.breakpoints);
  for (std::size_t s = 1; s < steps; ++s) {
    model.step(positions, rng);
    // Whatever the model did, the trace must stay inside the deployment
    // region: every downstream occupancy / connectivity argument assumes it.
    MANET_INVARIANT(std::all_of(positions.begin(), positions.end(),
                                [&box](const Point<D>& p) { return box.contains(p); }));
    curves.emplace_back(n, ws.kinetic.advance(positions), ws.dsu, ws.breakpoints);
  }
  return MobileConnectivityTrace(n, std::move(curves));
}

}  // namespace manet
