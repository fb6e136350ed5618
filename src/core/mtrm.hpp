#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "geometry/box.hpp"
#include "mobility/factory.hpp"
#include "sim/mobile_trace.hpp"
#include "sim/trace_workspace.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace manet {

/// Configuration of a MINIMUM TRANSMITTING RANGE MOBILE experiment: n nodes
/// in [0, side]^D, moved by `mobility` for `steps` steps, repeated over
/// `iterations` independent runs (the paper uses 50 iterations of 10 000
/// steps).
struct MtrmConfig {
  std::size_t node_count = 0;
  double side = 0.0;
  std::size_t steps = 1000;
  std::size_t iterations = 10;
  MobilityConfig mobility{};

  /// The time fractions f whose minimum range r_f is solved (the paper's
  /// r100 / r90 / r10).
  std::vector<double> time_fractions{1.0, 0.9, 0.1};

  /// The component fractions phi whose minimum range rl_phi (mean largest
  /// component >= phi * n) is solved (the paper's rl90 / rl75 / rl50).
  std::vector<double> component_fractions{0.9, 0.75, 0.5};

  /// Throws ConfigError when inconsistent.
  void validate() const;
};

/// Aggregated MTRM solution: one RunningStats per requested quantity,
/// accumulated across iterations (each iteration contributes the exact value
/// computed from its own trace, as the paper averages per-simulation values).
struct MtrmResult {
  std::vector<double> time_fractions;
  std::vector<double> component_fractions;

  /// r_f per time fraction (aligned with time_fractions).
  std::vector<RunningStats> range_for_time;
  /// r0: largest range with zero connected steps.
  RunningStats range_never_connected;
  /// rl_phi per component fraction (aligned with component_fractions).
  std::vector<RunningStats> range_for_component;

  /// Mean largest-component fraction over *disconnected* steps, evaluated at
  /// the iteration's own r_f (aligned with time_fractions) and at its r0 —
  /// the Figures 4-5 series.
  std::vector<RunningStats> lcc_at_range_for_time;
  RunningStats lcc_at_range_never;

  /// Minimum largest-component fraction over all steps at the iteration's
  /// own r_f.
  std::vector<RunningStats> min_lcc_at_range_for_time;

  /// Mean per-step critical radius.
  RunningStats mean_critical_range;
};

/// The per-iteration measurements folded into an MtrmResult: one value per
/// requested quantity, extracted from a single mobile trace.
struct MtrmIterationOutcome {
  std::vector<double> range_for_time;
  std::vector<double> lcc_at_range_for_time;
  std::vector<double> min_lcc_at_range_for_time;
  double range_never_connected = 0.0;
  double lcc_at_range_never = 0.0;
  std::vector<double> range_for_component;
  double mean_critical_range = 0.0;
};

/// One MTRM iteration: runs a single mobile trace seeded by `iteration_rng`
/// and extracts every requested quantity. The per-iteration unit of work of
/// solve_mtrm, exposed so the campaign runner (src/campaign/) can execute
/// exactly this code for a trial block and cache the outcomes — a replayed
/// unit is bit-identical to a freshly computed one because both are this
/// function of the same substream.
template <int D>
MtrmIterationOutcome run_mtrm_iteration(const MtrmConfig& config, Rng& iteration_rng) {
  const Box<D> region(config.side);
  const auto model = make_mobility_model<D>(config.mobility, region);
  // Per-iteration workspace: the step loop reuses its grid/edge/curve
  // buffers across all `steps` EMST solves, and because every iteration
  // owns its workspace nothing is shared across worker threads.
  TraceWorkspace<D> workspace;
  const MobileConnectivityTrace trace = run_mobile_trace<D>(
      config.node_count, region, config.steps, *model, iteration_rng, &workspace);

  MtrmIterationOutcome outcome;
  outcome.range_for_time.reserve(config.time_fractions.size());
  outcome.lcc_at_range_for_time.reserve(config.time_fractions.size());
  outcome.min_lcc_at_range_for_time.reserve(config.time_fractions.size());
  for (double f : config.time_fractions) {
    const double r_f = trace.range_for_time_fraction(f);
    outcome.range_for_time.push_back(r_f);
    outcome.lcc_at_range_for_time.push_back(trace.mean_largest_fraction_when_disconnected(r_f));
    outcome.min_lcc_at_range_for_time.push_back(trace.min_largest_fraction_at(r_f));
  }

  const double r0 = trace.largest_never_connected_range();
  outcome.range_never_connected = r0;
  outcome.lcc_at_range_never = trace.mean_largest_fraction_when_disconnected(r0);

  outcome.range_for_component.reserve(config.component_fractions.size());
  for (double phi : config.component_fractions) {
    outcome.range_for_component.push_back(trace.range_for_mean_component_fraction(phi));
  }

  outcome.mean_critical_range = trace.mean_critical_range();
  return outcome;
}

/// Folds per-iteration outcomes into the aggregate result, strictly in the
/// order given (= iteration-index order everywhere in this repo). The
/// RunningStats updates are order-sensitive floating point, so any path that
/// aggregates outcomes — solve_mtrm and the campaign runner's cached-unit
/// merge alike — must fold through this one function to stay bit-identical.
MtrmResult fold_mtrm_outcomes(const MtrmConfig& config,
                              std::span<const MtrmIterationOutcome> outcomes);

/// Flattens a result into the fixed vector layout digested by the golden
/// checksums (tests/determinism_test.cpp) and the campaign result.json
/// per-point checksum: means/variances of r_f, then r0 / lcc@r0, component
/// ranges, lcc and min-lcc series, mean critical range.
std::vector<double> flatten_mtrm_result(const MtrmResult& result);

/// Names each slot of flatten_mtrm_result's layout, in the same order
/// ("range_for_time[0].mean", ... , "mean_critical_range.mean") for the
/// given fraction counts. The manetd query engine uses these labels to
/// address individual statistics inside a campaign's flattened_result
/// vectors; tests pin that the label list and the flattened vector always
/// have equal length.
std::vector<std::string> flatten_mtrm_labels(std::size_t time_fraction_count,
                                             std::size_t component_fraction_count);

/// Solves MTRM by simulation: runs `iterations` independent mobile traces and
/// extracts every requested range exactly from the per-step critical radii
/// and component curves (DESIGN.md §2).
///
/// Iterations run through the deterministic parallel engine
/// (support/parallel.hpp): one draw from `rng` seeds an order-independent
/// substream per iteration, the iterations fan out over up to
/// `MANET_THREADS` threads, and the per-iteration outcomes are folded into
/// the RunningStats in iteration order — so the result is bit-identical at
/// any thread count, and `rng` always advances by exactly one draw.
template <int D>
MtrmResult solve_mtrm(const MtrmConfig& config, Rng& rng) {
  config.validate();
  const std::uint64_t trial_root = rng.next_u64();

  const auto outcomes = parallel_for_trials(
      config.iterations, trial_root, [&config](std::size_t, Rng& iteration_rng) {
        return run_mtrm_iteration<D>(config, iteration_rng);
      });
  return fold_mtrm_outcomes(config, outcomes);
}

}  // namespace manet
