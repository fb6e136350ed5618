#include "common/figure_bench.hpp"

#include "campaign/cli.hpp"
#include "service/cli.hpp"
#include "support/bench_json.hpp"
#include "support/metrics.hpp"

namespace manet::bench {

namespace {

/// "fig7_pstationary: r100/..." -> "fig7_pstationary".
std::string campaign_name_from_summary(const std::string& summary) {
  const std::size_t colon = summary.find(':');
  return colon == std::string::npos ? summary : summary.substr(0, colon);
}

}  // namespace

std::optional<FigureOptions> parse_figure_options(int argc, const char* const* argv,
                                                  const std::string& summary,
                                                  bool with_campaign) {
  CliParser cli(summary);
  cli.add_option("preset", "simulation scale: quick | default | paper", "default");
  cli.add_option("seed", "random seed", "2002");
  cli.add_option("rs-quantile",
                 "stationary critical-radius quantile defining r_stationary", "0.95");
  cli.add_option("iterations", "override: independent runs per data point", "");
  cli.add_option("steps", "override: mobility steps per run", "");
  cli.add_option("threads",
                 "worker threads for the trial engine (0 = MANET_THREADS / "
                 "hardware default, 1 = serial; results are identical)",
                 "0");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  cli.add_flag("metrics",
               "append the run-metrics JSON (counters/timings) after the table");
  if (with_campaign) {
    campaign::add_campaign_cli_options(cli);
    service::add_drain_cli_options(cli);
  }

  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return std::nullopt;
  }

  FigureOptions options;
  options.preset = parse_preset(cli.string_value("preset"));
  options.seed = cli.uint_value("seed");
  options.csv = cli.flag("csv");
  options.metrics = cli.flag("metrics");
  options.rs_quantile = cli.double_value("rs-quantile");
  if (!(options.rs_quantile > 0.0 && options.rs_quantile <= 1.0)) {
    throw ConfigError("--rs-quantile must be in (0, 1]");
  }
  if (cli.was_set("iterations")) {
    options.iterations = static_cast<std::size_t>(cli.uint_value("iterations"));
  }
  if (cli.was_set("steps")) {
    options.steps = static_cast<std::size_t>(cli.uint_value("steps"));
  }
  options.threads = static_cast<std::size_t>(cli.uint_value("threads"));
  if (options.threads != 0) set_max_parallelism(options.threads);
  if (with_campaign && (campaign::campaign_requested(cli) || service::drain_requested(cli))) {
    options.campaign = true;
    options.campaign_name = campaign_name_from_summary(summary);
    // Inconsistent campaign/drain flags raise ConfigError out of here.
    options.campaign_options = campaign::campaign_options_from_cli(cli, options.campaign_name);
    if (service::drain_requested(cli)) {
      options.distributed = true;
      options.drain_options = service::drain_options_from_cli(cli, options.campaign_name);
    }
  }
  return options;
}

int figure_main(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const ConfigError& error) {
    std::cerr << error.what() << '\n';
    return 1;
  }
}

std::unique_ptr<MtrmSweepExecutor> make_sweep_executor(const FigureOptions& options) {
  if (!options.campaign) return std::make_unique<InProcessSweepExecutor>();
  if (options.distributed) {
    return std::make_unique<service::DistributedCampaignRunner>(options.campaign_name,
                                                                options.drain_options);
  }
  return std::make_unique<campaign::CampaignRunner>(options.campaign_name,
                                                    options.campaign_options);
}

double stationary_reference_range(double l, std::size_t n, std::size_t trials,
                                  double quantile, Rng& rng) {
  const Box2 region(l);
  MtrOptions options;
  options.trials = trials;
  options.target_probability = quantile;
  return estimate_mtr<2>(n, region, options, rng).range;
}

void apply_scale(MtrmConfig& config, const FigureOptions& options) {
  const ScaleParams scale = options.scale();
  config.iterations = scale.iterations;
  config.steps = scale.steps;
}

namespace {

/// --metrics epilogue: one BenchReport-schema JSON document with the run's
/// counters and timings. Emitted after the table (never instead of it) so
/// existing output consumers are unaffected unless they opt in.
void print_metrics_epilogue(const FigureOptions& options) {
  BenchReport report("run_metrics");
  report.add_param("preset", JsonValue::string(preset_name(options.preset)));
  report.add_param("seed", JsonValue::number(static_cast<std::size_t>(options.seed)));
  report.add_extra("metrics", metrics::collect_json());
  std::cout << '\n' << report.dump() << '\n';
}

}  // namespace

void print_result(const TextTable& table, const FigureOptions& options,
                  const std::string& title, const std::string& footnote) {
  if (options.csv) {
    table.print_csv(std::cout);
    if (options.metrics) print_metrics_epilogue(options);
    return;
  }
  const ScaleParams scale = options.scale();
  std::cout << title << "\n"
            << "preset=" << preset_name(options.preset) << " (" << scale.iterations
            << " iterations x " << scale.steps << " steps, " << scale.stationary_trials
            << " stationary trials), seed=" << options.seed << "\n\n";
  table.print(std::cout);
  if (footnote.empty()) {
    std::cout << "\nPaper columns are approximate values read off the published figure;\n"
                 "shapes (orderings, trends, thresholds) are the reproduction target,\n"
                 "not absolute numbers. See EXPERIMENTS.md.\n";
  } else {
    std::cout << '\n' << footnote << '\n';
  }
  if (options.metrics) print_metrics_epilogue(options);
}

std::string l_label(double l) {
  if (l >= 1024.0) return std::to_string(static_cast<int>(l / 1024.0)) + "K";
  return std::to_string(static_cast<int>(l));
}

LSweep solve_l_sweep(const FigureOptions& options, bool drunkard,
                     bool with_stationary_reference, MtrmSweepExecutor& executor) {
  const ScaleParams scale = options.scale();
  const auto l_values = experiments::figure_l_values();

  std::vector<MtrmConfig> configs;
  configs.reserve(l_values.size());
  for (const double l : l_values) {
    MtrmConfig config = drunkard ? experiments::drunkard_experiment(l, options.preset)
                                 : experiments::waypoint_experiment(l, options.preset);
    apply_scale(config, options);
    configs.push_back(config);
  }

  LSweep sweep;
  sweep.results = experiments::solve_mtrm_sweep(configs, options.seed, &executor);
  if (with_stationary_reference) {
    for (std::size_t li = 0; li < l_values.size(); ++li) {
      Rng rs_rng = substream(options.seed, l_values.size() + li);
      sweep.rs.push_back(stationary_reference_range(
          l_values[li], experiments::paper_node_count(l_values[li]), scale.stationary_trials,
          options.rs_quantile, rs_rng));
    }
  }
  return sweep;
}

void run_ratio_figure(const FigureOptions& options, bool drunkard,
                      const std::string& title, const std::vector<PaperSeries>& paper,
                      MtrmSweepExecutor& executor) {
  TextTable table({"l", "n", "r_stationary", "r100/rs", "paper", "r90/rs", "paper",
                   "r10/rs", "paper", "r0/rs", "paper"});

  const auto l_values = experiments::figure_l_values();
  const LSweep sweep =
      solve_l_sweep(options, drunkard, /*with_stationary_reference=*/true, executor);
  for (std::size_t li = 0; li < l_values.size(); ++li) {
    const double l = l_values[li];
    const std::size_t n = experiments::paper_node_count(l);
    const double rs = sweep.rs[li];
    const MtrmResult& result = sweep.results[li];

    table.add_row({l_label(l), std::to_string(n), TextTable::num(rs, 1),
                   TextTable::num(result.range_for_time[0].mean() / rs, 3),
                   TextTable::num(paper[0].values[li], 2),
                   TextTable::num(result.range_for_time[1].mean() / rs, 3),
                   TextTable::num(paper[1].values[li], 2),
                   TextTable::num(result.range_for_time[2].mean() / rs, 3),
                   TextTable::num(paper[2].values[li], 2),
                   TextTable::num(result.range_never_connected.mean() / rs, 3),
                   TextTable::num(paper[3].values[li], 2)});
  }
  print_result(table, options, title);
}

void run_component_figure(const FigureOptions& options, bool drunkard,
                          const std::string& title, const std::vector<PaperSeries>& paper,
                          MtrmSweepExecutor& executor) {
  TextTable table({"l", "n", "LCC@r90", "paper", "LCC@r10", "paper", "LCC@r0", "paper"});

  const auto l_values = experiments::figure_l_values();
  const LSweep sweep =
      solve_l_sweep(options, drunkard, /*with_stationary_reference=*/false, executor);
  for (std::size_t li = 0; li < l_values.size(); ++li) {
    const double l = l_values[li];
    const std::size_t n = experiments::paper_node_count(l);
    const MtrmResult& result = sweep.results[li];

    table.add_row({l_label(l), std::to_string(n),
                   TextTable::num(result.lcc_at_range_for_time[1].mean(), 3),
                   TextTable::num(paper[0].values[li], 2),
                   TextTable::num(result.lcc_at_range_for_time[2].mean(), 3),
                   TextTable::num(paper[1].values[li], 2),
                   TextTable::num(result.lcc_at_range_never.mean(), 3),
                   TextTable::num(paper[2].values[li], 2)});
  }
  print_result(table, options, title);
}

}  // namespace manet::bench
