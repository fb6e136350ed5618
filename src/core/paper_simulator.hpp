#pragma once

#include <cstddef>
#include <vector>

#include "geometry/box.hpp"
#include "mobility/factory.hpp"
#include "sim/mobile_trace.hpp"
#include "sim/trace_workspace.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace manet {

/// A faithful facade of the simulator described in Section 4.1 of the paper:
///
///   "The simulator distributes n nodes in [0,l]^d according to the uniform
///    distribution, then generates the communication graph assuming that all
///    nodes have the same transmitting range r. Parameters r, n, l and d are
///    given as input to the simulator, along with the number of iterations
///    to run and the number, #steps, of mobility steps for each iteration.
///    Setting #steps = 1 corresponds to the stationary case. The simulator
///    returns the percentage of connected graphs generated, the average size
///    of the largest connected component (averaged over the runs that yield
///    a disconnected graph) and the minimum size of the largest connected
///    component. All of these parameters are reported with reference both to
///    a single iteration (in this case, the averages are over all the
///    mobility steps) and to all the iterations."
///
/// Unlike the exact-threshold engine (core/mtrm.hpp), this interface takes
/// the transmitting range as an *input*, exactly like the 2002 tool.
struct PaperSimulatorInput {
  double r = 0.0;              ///< common transmitting range
  std::size_t n = 0;           ///< number of nodes
  double l = 0.0;              ///< region side
  std::size_t iterations = 1;  ///< independent runs
  std::size_t steps = 1;       ///< mobility steps per run (1 = stationary)
  MobilityConfig mobility{};   ///< mobility model and parameters

  void validate() const;
};

/// The three per-scope quantities the paper's simulator reports.
struct PaperSimulatorReport {
  /// Percentage (in [0, 1]) of generated graphs that were connected.
  double connected_fraction = 0.0;
  /// Mean largest-component size over the *disconnected* graphs only, in
  /// nodes; equals n when no graph was disconnected (the paper leaves this
  /// case unreported; we use the natural limit).
  double mean_largest_when_disconnected = 0.0;
  /// Minimum largest-component size over all graphs, in nodes.
  double min_largest = 0.0;
};

/// Full output: one report per iteration plus the all-iterations aggregate.
struct PaperSimulatorOutput {
  std::vector<PaperSimulatorReport> per_iteration;
  PaperSimulatorReport overall;
};

/// Runs the Section 4.1 simulator in D dimensions (the paper's runs use
/// D = 2). Iterations fan out through the deterministic parallel engine
/// (support/parallel.hpp) — one draw from `rng` seeds an order-independent
/// substream per iteration and the per-iteration reports aggregate in
/// iteration order, so the output is bit-identical at any thread count.
template <int D>
PaperSimulatorOutput run_paper_simulator(const PaperSimulatorInput& input, Rng& rng) {
  input.validate();
  const Box<D> region(input.l);
  const double n_as_double = static_cast<double>(input.n);
  const std::uint64_t trial_root = rng.next_u64();

  PaperSimulatorOutput output;
  output.per_iteration = parallel_for_trials(
      input.iterations, trial_root, [&input, &region, n_as_double](std::size_t, Rng& iteration_rng) {
        const auto model = make_mobility_model<D>(input.mobility, region);
        // Per-iteration workspace: buffer reuse across the step loop without
        // sharing anything between worker threads.
        TraceWorkspace<D> workspace;
        const MobileConnectivityTrace trace = run_mobile_trace<D>(
            input.n, region, input.steps, *model, iteration_rng, &workspace);

        PaperSimulatorReport report;
        report.connected_fraction = trace.fraction_of_time_connected(input.r);
        report.mean_largest_when_disconnected =
            trace.mean_largest_fraction_when_disconnected(input.r) * n_as_double;
        report.min_largest = trace.min_largest_fraction_at(input.r) * n_as_double;
        return report;
      });

  double overall_connected = 0.0;
  double overall_disconnected_lcc_sum = 0.0;
  std::size_t overall_disconnected_count = 0;
  double overall_min_largest = n_as_double;
  std::size_t overall_graphs = 0;

  for (const PaperSimulatorReport& report : output.per_iteration) {
    const auto steps = static_cast<double>(input.steps);
    const double disconnected_steps = steps * (1.0 - report.connected_fraction);
    overall_connected += report.connected_fraction * steps;
    if (disconnected_steps > 0.5) {  // at least one disconnected step
      overall_disconnected_lcc_sum +=
          report.mean_largest_when_disconnected * disconnected_steps;
      overall_disconnected_count += static_cast<std::size_t>(disconnected_steps + 0.5);
    }
    overall_min_largest = std::min(overall_min_largest, report.min_largest);
    overall_graphs += input.steps;
  }

  output.overall.connected_fraction =
      overall_connected / static_cast<double>(overall_graphs);
  output.overall.mean_largest_when_disconnected =
      overall_disconnected_count > 0
          ? overall_disconnected_lcc_sum / static_cast<double>(overall_disconnected_count)
          : n_as_double;
  output.overall.min_largest = overall_min_largest;
  return output;
}

}  // namespace manet
