#pragma once

#include <array>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/experiments.hpp"
#include "core/mtr.hpp"
#include "core/mtrm.hpp"
#include "service/drain.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace manet::bench {

/// Options shared by every figure-reproduction binary.
struct FigureOptions {
  Preset preset = Preset::kDefault;
  std::uint64_t seed = 2002;  // DSN 2002
  bool csv = false;
  /// Quantile of the stationary critical-radius distribution used as
  /// r_stationary. 0.95 calibrates our r100/r_stationary series onto the
  /// published Figure 2 almost exactly (see EXPERIMENTS.md).
  double rs_quantile = 0.95;
  /// Explicit overrides (win over the preset when set).
  std::optional<std::size_t> iterations;
  std::optional<std::size_t> steps;
  /// Worker threads for the parallel trial engine (support/parallel.hpp);
  /// 0 keeps the MANET_THREADS / hardware default, 1 forces the serial
  /// path. Results are bit-identical at any setting.
  std::size_t threads = 0;
  /// --metrics: append the run-metrics JSON (support/metrics.hpp, BenchReport
  /// schema) to stdout after the table. Opt-in so the default output stays
  /// exactly the table the smoke scripts compare.
  bool metrics = false;
  /// Campaign mode (--campaign flag family, campaign/cli.hpp): route the
  /// sweep through the crash-safe resumable runner. Only figures parsed with
  /// with_campaign=true register the flags.
  bool campaign = false;
  /// Campaign identity, derived from the summary prefix before ':'
  /// ("fig7_pstationary").
  std::string campaign_name;
  campaign::CampaignOptions campaign_options;
  /// Distributed mode (--distributed / --worker-id, service/cli.hpp): drain
  /// the campaign cooperatively through unit leases instead of running it
  /// single-process. Implies campaign mode.
  bool distributed = false;
  service::DrainOptions drain_options;

  ScaleParams scale() const {
    ScaleParams params = scale_for(preset);
    if (iterations) params.iterations = *iterations;
    if (steps) params.steps = *steps;
    return params;
  }
};

/// Registers the standard flags and parses argv. Returns nullopt after
/// printing the help text for --help; every invalid flag or value (unknown
/// flag, bad number, --rs-quantile outside (0, 1], inconsistent campaign
/// flags) raises ConfigError. `with_campaign` additionally registers the
/// --campaign flag family (campaign/cli.hpp).
std::optional<FigureOptions> parse_figure_options(int argc, const char* const* argv,
                                                  const std::string& summary,
                                                  bool with_campaign = false);

/// The body of every figure binary's main: runs `run`, and turns a
/// ConfigError escaping it into a one-line message and exit code 1.
int figure_main(int argc, char** argv, int (*run)(int, char**));

/// Builds the sweep executor the parsed options ask for: an
/// InProcessSweepExecutor (no campaign flag), a campaign::CampaignRunner
/// (--campaign), or a service::DistributedCampaignRunner (--distributed)
/// that cooperatively drains the same store alongside other workers. All
/// three produce bit-identical results; see DESIGN.md §11 and §16.
std::unique_ptr<MtrmSweepExecutor> make_sweep_executor(const FigureOptions& options);

/// r_stationary for n nodes in [0, l]^2 (DESIGN.md convention 1): the
/// `quantile` of the stationary critical-radius distribution.
double stationary_reference_range(double l, std::size_t n, std::size_t trials,
                                  double quantile, Rng& rng);

/// Applies the scale overrides to an experiment config.
void apply_scale(MtrmConfig& config, const FigureOptions& options);

/// Prints the table in text or CSV form per options, preceded by a header
/// line naming the experiment and scale. `footnote` is printed after the
/// table (empty = the standard paper-columns disclaimer; extension benches
/// without paper columns pass their own note).
void print_result(const TextTable& table, const FigureOptions& options,
                  const std::string& title, const std::string& footnote = "");

/// Formats a region side for table rows the way the paper labels its x axes
/// ("256", "1K", "4K", "16K").
std::string l_label(double l);

/// Approximate values read off a published figure, one per l in
/// {256, 1K, 4K, 16K}, used for side-by-side comparison columns.
struct PaperSeries {
  std::string label;
  std::array<double, 4> values;
};

/// One solved l-sweep of Figures 2-6 (l in {256, 1K, 4K, 16K}).
struct LSweep {
  /// r_stationary per l; empty unless the reference was asked for.
  std::vector<double> rs;
  std::vector<MtrmResult> results;
};

/// Solves the l-sweep under the waypoint (or drunkard) experiment through
/// experiments::solve_mtrm_sweep on `executor`, so point i's MTRM result
/// draws from substream(options.seed, i) whichever executor runs it. With
/// `with_stationary_reference`, r_stationary for l_i draws from
/// substream(options.seed, |L| + i), a stream no sweep point uses.
LSweep solve_l_sweep(const FigureOptions& options, bool drunkard,
                     bool with_stationary_reference, MtrmSweepExecutor& executor);

/// Figures 2-3 runner: the ratios r100/r90/r10/r0 over r_stationary for
/// l in {256, 1K, 4K, 16K} under the given mobility configuration factory.
/// `paper` supplies the digitized reference series in the same order.
void run_ratio_figure(const FigureOptions& options, bool drunkard,
                      const std::string& title, const std::vector<PaperSeries>& paper,
                      MtrmSweepExecutor& executor);

/// Figures 4-5 runner: the mean largest-connected-component fraction at
/// r90 / r10 / r0 for the same sweep.
void run_component_figure(const FigureOptions& options, bool drunkard,
                          const std::string& title, const std::vector<PaperSeries>& paper,
                          MtrmSweepExecutor& executor);

}  // namespace manet::bench
