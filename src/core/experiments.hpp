#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mtrm.hpp"
#include "graph/link_model.hpp"

namespace manet {

/// Simulation scale presets. `kPaper` is the paper's exact configuration
/// (50 iterations x 10 000 mobility steps per data point); the smaller
/// presets run the identical code path with fewer samples, which preserves
/// the figures' shapes at a fraction of the runtime (DESIGN.md §2).
enum class Preset { kQuick, kDefault, kPaper };

const char* preset_name(Preset preset);

/// Parses "quick" / "default" / "paper"; throws ConfigError otherwise.
Preset parse_preset(const std::string& text);

/// Sample counts attached to a preset.
struct ScaleParams {
  std::size_t iterations = 0;
  std::size_t steps = 0;
  /// Deployments used to estimate r_stationary.
  std::size_t stationary_trials = 0;
};

ScaleParams scale_for(Preset preset);

/// One data point of an MTRM sweep after seed derivation: the experiment
/// config plus the 64-bit root of its per-iteration substreams. The solved
/// result is a pure function of this pair (iteration i draws from
/// substream(trial_root, i)), which is what lets an executor decompose,
/// cache and replay points without reference to the enclosing sweep.
struct MtrmSweepPoint {
  MtrmConfig config;
  std::uint64_t trial_root = 0;
};

/// Strategy seam for executing a figure sweep's data points. Three
/// implementations: InProcessSweepExecutor below; the campaign runner
/// (src/campaign/campaign.hpp), which adds crash-safe persistence and resume
/// on top of the identical per-point computation; and the distributed drain
/// (src/service/drain.hpp). Implementations must return results in point
/// order, each bit-identical to solve_mtrm_point<2>(config, trial_root).
class MtrmSweepExecutor {
 public:
  MtrmSweepExecutor() = default;
  MtrmSweepExecutor(const MtrmSweepExecutor&) = delete;
  MtrmSweepExecutor& operator=(const MtrmSweepExecutor&) = delete;
  virtual ~MtrmSweepExecutor() = default;

  virtual std::vector<MtrmResult> run_points(std::vector<MtrmSweepPoint> points) = 0;
};

/// Solves the points in this process: they fan out through the
/// deterministic parallel engine (support/parallel.hpp) and each point's
/// iteration fan-out nests inside the same thread pool, so a sweep is
/// bit-identical at any thread count.
class InProcessSweepExecutor final : public MtrmSweepExecutor {
 public:
  std::vector<MtrmResult> run_points(std::vector<MtrmSweepPoint> points) override;
};

/// Experiment definitions mirroring the paper's Section 4 setups.
namespace experiments {

/// Solves one MTRM experiment per config — a figure's data points. Point i's
/// trial root is the first draw of substream(seed, i), the one rule every
/// figure sweep derives its streams by; the points then run on `executor`,
/// and a null `executor` means an InProcessSweepExecutor. Results come back
/// in config order and are bit-identical across executors
/// (tests/campaign_test.cpp, tests/distributed_drain_test.cpp).
std::vector<MtrmResult> solve_mtrm_sweep(const std::vector<MtrmConfig>& configs,
                                         std::uint64_t seed,
                                         MtrmSweepExecutor* executor = nullptr);

/// The system sizes of Figures 2-6: l in {256, 1K, 4K, 16K}.
std::vector<double> figure_l_values();

/// The paper's node count rule for Section 4: n = floor(sqrt(l)).
std::size_t paper_node_count(double l);

/// Figures 2/4/6 configuration: random waypoint with the paper's moderate-
/// mobility defaults over a side-l region.
MtrmConfig waypoint_experiment(double l, Preset preset);

/// Figures 3/5 configuration: drunkard model with the paper's defaults.
MtrmConfig drunkard_experiment(double l, Preset preset);

/// Section 4.3 base configuration: random waypoint, l = 4096, n = 64,
/// default mobility parameters (individual sweeps override one parameter).
MtrmConfig sweep_base_config(Preset preset);

/// Figure 7 sweep: p_stationary from 0 to 1 in steps of 0.2, refined to
/// steps of 0.02 inside [0.4, 0.6] where the paper found the threshold.
std::vector<double> figure7_pstationary_values();

/// Figure 8 sweep: t_pause from 0 to 10 000 mobility steps.
std::vector<double> figure8_tpause_values();

/// Figure 9 sweep: v_max from 0.01*l to 0.5*l, expressed as fractions of l.
std::vector<double> figure9_vmax_fractions();

/// Configuration of the per-link-model energy/savings trade-off sweep: the
/// paper's Section 4 question — how much transmit energy does tolerating a
/// small disconnection probability save? — re-asked under each link model.
struct LinkModelTradeoffConfig {
  std::size_t node_count = 64;  ///< paper's n = sqrt(l) at l = 4096
  double side = 4096.0;         ///< deployment region side l
  std::size_t trials = 100;     ///< independent deployments per model
  double alpha = 2.0;           ///< path-loss exponent of the energy model
  double p_full = 0.99;         ///< "always connected" target probability
  double p_tolerant = 0.90;     ///< relaxed connectivity target

  /// Throws ConfigError on inconsistent values (empty sweep, probabilities
  /// outside (0, 1], p_tolerant > p_full, alpha outside [1, inf), side <= 0).
  void validate() const;
};

/// One row of the trade-off table: the critical scales meeting the full and
/// tolerant connectivity targets under one link model, and the fractional
/// energy saved by relaxing from the former to the latter.
struct LinkModelTradeoffRow {
  std::string model;
  double r_full = 0.0;            ///< scale for P(connected) >= p_full
  double r_tolerant = 0.0;        ///< scale for P(connected) >= p_tolerant
  double mean_critical_range = 0.0;
  double range_reduction = 0.0;   ///< 1 - r_tolerant / r_full
  double energy_savings = 0.0;    ///< EnergyModel(alpha).savings(r_full, r_tolerant)
};

/// Runs the energy/savings trade-off once per family in `families` (2-D
/// deployments): samples the critical-scale distribution with
/// sample_link_model_critical_ranges, reads both targets off its exact
/// order statistics, and prices the relaxation with EnergyModel.
///
/// Family f draws everything from the substream (seed, f), so rows are
/// independent of each other and of sweep order, and the whole table is
/// bit-identical at any thread count (tests/parallel_determinism_test.cpp).
/// Null family pointers are rejected with ConfigError.
std::vector<LinkModelTradeoffRow> link_model_energy_tradeoff(
    const LinkModelTradeoffConfig& config, const std::vector<const LinkModelFamily*>& families,
    std::uint64_t seed);

}  // namespace experiments
}  // namespace manet
