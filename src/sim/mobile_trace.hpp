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
///   - rl_phi ("mean largest component = phi * n", Figure 6) comes from the
///     merged mean component curve;
///   - mean/min largest-component sizes at any range (Figures 4-5) are curve
///     lookups.
class MobileConnectivityTrace {
 public:
  /// Takes one LargestComponentCurve per mobility step (>= 1 steps; every
  /// curve must be over `node_count` nodes).
  MobileConnectivityTrace(std::size_t node_count,
                          std::vector<LargestComponentCurve> per_step_curves);

  /// Workspace variant: the mean-curve merge runs in `event_scratch`
  /// (cleared first, capacity reused across traces) instead of a fresh
  /// buffer — the form run_mobile_trace uses.
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
  double range_for_mean_component_fraction(double phi) const;

  /// Mean largest-component fraction at range r over all steps.
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
  /// Shared constructor body; `events` is merge scratch (cleared first).
  void build(std::vector<CurveMergeEvent>& events);

  std::size_t n_;
  std::vector<LargestComponentCurve> curves_;
  std::vector<double> sorted_rc_;
  std::vector<double> timeline_rc_;

  /// Merged mean largest-component curve: after all events with
  /// event.range <= r, the mean largest-component size is event.mean_size.
  struct MeanEvent {
    double range;
    double mean_size;
  };
  std::vector<MeanEvent> mean_curve_;
};

/// Runs one mobile iteration: deploys n nodes uniformly, initializes the
/// mobility model, and records the component curve of the initial placement
/// and of every subsequent step (`steps` curves in total; steps = 1 is the
/// stationary case). Requires steps >= 1.
///
/// The per-step curves are computed through `workspace` by the kinetic EMST
/// engine (topology/emst_kinetic.hpp): a full build on the deployment, then
/// an incremental repair per mobility step exploiting temporal coherence.
/// Its repair invariant makes every step's tree bit-identical to a
/// from-scratch batch EmstEngine solve, which tests/kinetic_differential_test
/// checks against exactly that reference.
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
  curves.push_back(kinetic_component_curve<D>(positions, box, ws, /*first_step=*/true));
  for (std::size_t s = 1; s < steps; ++s) {
    model.step(positions, rng);
    // Whatever the model did, the trace must stay inside the deployment
    // region: every downstream occupancy / connectivity argument assumes it.
    MANET_INVARIANT(std::all_of(positions.begin(), positions.end(),
                                [&box](const Point<D>& p) { return box.contains(p); }));
    curves.push_back(kinetic_component_curve<D>(positions, box, ws, /*first_step=*/false));
  }
  return MobileConnectivityTrace(n, std::move(curves), ws.merge_events);
}

}  // namespace manet
