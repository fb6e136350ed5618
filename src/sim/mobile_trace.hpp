#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "mobility/mobility_model.hpp"
#include "sim/deployment.hpp"
#include "sim/trace_workspace.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/emst_grid.hpp"

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
/// Each step is a from-scratch EmstEngine solve through `workspace` (its
/// `kinetic` member). On the dense path (EmstEngine::dense_path) the step's
/// curve comes straight from the Prim order of a parent-less Prim
/// (LargestComponentCurve::from_prim_order); on the grid path from the
/// sorted tree through the union-find. Below EmstEngine::kPrimBatchCutoff,
/// dense steps are solved in groups of EmstEngine::kPrimBatch: the model
/// advances through the group's steps first, in the usual draw order,
/// snapshotting each step's positions, and one batched solve then yields
/// every step's keys; a last group of fewer steps, and every step from the
/// cutoff on, is solved alone. No solve draws from `rng`, so the trace is
/// the same as with one solve per step. tests/kinetic_differential_test
/// checks every step against the test-only reference MST on both paths.
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
  ws.kinetic.begin(box);
  std::size_t s = 0;  // the next step to solve; step 0 is the deployment
  const auto advance = [&] {
    if (s == 0) return;
    model.step(positions, rng);
    // Whatever the model did, the trace must stay inside the deployment
    // region: every downstream occupancy / connectivity argument assumes it.
    MANET_INVARIANT(std::all_of(positions.begin(), positions.end(),
                                [&box](const Point<D>& p) { return box.contains(p); }));
  };
  // Solves the next K dense steps in one Prim pass: all but the last are
  // snapshots, the last is `positions` itself.
  const auto solve_dense = [&]<std::size_t K>(std::array<std::span<const Point<D>>, K>& batch) {
    for (std::size_t j = 0; j < K; ++j, ++s) {
      advance();
      if (j + 1 < K) {
        ws.step_batch[j].assign(positions.begin(), positions.end());
        batch[j] = ws.step_batch[j];
      } else {
        batch[j] = positions;
      }
    }
    for (const std::span<const double> keys : ws.kinetic.advance_prim_order(batch)) {
      curves.push_back(
          LargestComponentCurve::from_prim_order(n, keys, ws.prim_order, ws.breakpoints));
    }
  };
  if (EmstEngine<D>::dense_path(n)) {
    std::array<std::span<const Point<D>>, EmstEngine<D>::kPrimBatch> group;
    std::array<std::span<const Point<D>>, 1> single;
    if (n < EmstEngine<D>::kPrimBatchCutoff) {
      while (s + group.size() <= steps) solve_dense(group);
    }
    while (s < steps) solve_dense(single);
  } else {
    for (; s < steps; ++s) {
      advance();
      curves.push_back(
          LargestComponentCurve(n, ws.kinetic.advance(positions), ws.dsu, ws.breakpoints));
    }
  }
  return MobileConnectivityTrace(n, std::move(curves));
}

}  // namespace manet
