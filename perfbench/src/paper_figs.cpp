// paper_figs: Figures 2 (random waypoint) and 3 (drunkard) in the paper's
// shape — l in {256, 1K, 4K, 16K}, n = floor(sqrt(l)), 10 000 mobility steps
// per iteration, r_stationary from the stationary sampler — with the
// iteration count cut so that one pass fits several times into a run.
//
// Untraced, the sweeps run through experiments::solve_mtrm_sweep and the
// references through estimate_mtr. Traced, the same computation is driven
// through the layers' public functions (parallel_for_trials, deployment,
// the mobility model, the kinetic engine, the curve and trace constructors,
// fold_mtrm_outcomes), every call timed; its results must equal the
// untraced ones bit for bit.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/experiments.hpp"
#include "core/mtr.hpp"
#include "core/mtrm.hpp"
#include "layers.hpp"
#include "support/parallel.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using namespace manet;
using trace::Count;
using trace::Site;

/// The seed whose checksums are pinned below.
constexpr std::uint64_t kPinnedSeed = 2002;
/// FNV-1a of the concatenated flatten_mtrm_result vectors of each figure at
/// kPinnedSeed and full size.
constexpr std::uint64_t kPinnedChecksum[2] = {0xdb5bc8de0d66b087ull, 0xb37ee12dcbc45940ull};

constexpr double kRsQuantile = 0.95;  // r_stationary quantile of the figure benches
constexpr const char* kFigureNames[2] = {"waypoint", "drunkard"};

struct Plan {
  std::size_t iterations = 0;
  std::size_t steps = 0;
  std::size_t stationary_trials = 0;
  std::vector<double> l_values;
  std::vector<MtrmConfig> configs[2];
  std::uint64_t sweep_seed[2] = {0, 0};
  std::uint64_t stationary_seed[2] = {0, 0};
  std::size_t total_steps = 0;  // mobility steps of one pass
};

Plan make_plan(const Options& options) {
  Plan plan;
  plan.iterations = options.smoke ? 2 : 12;
  plan.steps = options.smoke ? 200 : 10000;  // the paper's steps per iteration
  plan.stationary_trials = options.smoke ? 50 : 1000;
  plan.l_values = experiments::figure_l_values();
  for (std::size_t figure = 0; figure < 2; ++figure) {
    Rng rng = substream(options.seed, figure);
    plan.sweep_seed[figure] = rng.next_u64();
    plan.stationary_seed[figure] = rng.next_u64();
    for (const double l : plan.l_values) {
      MtrmConfig config = figure == 0 ? experiments::waypoint_experiment(l, Preset::kPaper)
                                      : experiments::drunkard_experiment(l, Preset::kPaper);
      config.iterations = plan.iterations;
      config.steps = plan.steps;
      plan.configs[figure].push_back(config);
      plan.total_steps += config.iterations * config.steps;
    }
  }
  return plan;
}

std::uint64_t checksum(const std::vector<MtrmResult>& results) {
  std::uint64_t hash = kFnv1aOffset;
  for (const MtrmResult& result : results) {
    hash = fnv1a_bits(flatten_mtrm_result(result), hash);
  }
  return hash;
}

/// What one pass computed: the r_stationary references (figure-major) and
/// each figure's checksum.
struct Outputs {
  std::vector<double> stationary;
  std::uint64_t checksum[2] = {0, 0};

  bool operator==(const Outputs& other) const {
    return fnv1a_bits(stationary) == fnv1a_bits(other.stationary) &&
           checksum[0] == other.checksum[0] && checksum[1] == other.checksum[1];
  }
};

struct PassTimes {
  double setup = 0.0;
  double figure[2] = {0.0, 0.0};
};

// ---------------------------------------------------------------- untraced

Outputs untraced_pass(const Plan& plan, PassTimes& times) {
  Outputs out;
  const std::uint64_t setup_start = now_ns();
  for (std::size_t figure = 0; figure < 2; ++figure) {
    for (std::size_t i = 0; i < plan.l_values.size(); ++i) {
      const double l = plan.l_values[i];
      MtrOptions mtr;
      mtr.trials = plan.stationary_trials;
      mtr.target_probability = kRsQuantile;
      Rng rng = substream(plan.stationary_seed[figure], i);
      out.stationary.push_back(
          estimate_mtr<2>(experiments::paper_node_count(l), Box2(l), mtr, rng).range);
    }
  }
  times.setup = seconds_between(setup_start, now_ns());
  for (std::size_t figure = 0; figure < 2; ++figure) {
    const std::uint64_t start = now_ns();
    const auto results = experiments::solve_mtrm_sweep(plan.configs[figure],
                                                       plan.sweep_seed[figure]);
    times.figure[figure] = seconds_between(start, now_ns());
    out.checksum[figure] = checksum(results);
  }
  return out;
}

// ------------------------------------------------------------------ traced

/// One MTRM iteration through the public step functions: the body of
/// run_mtrm_iteration / run_mobile_trace (kinetic engine), every call timed.
MtrmIterationOutcome traced_iteration(const MtrmConfig& config, Rng& rng,
                                      std::uint32_t parent) {
  const trace::Span span("iteration", parent);
  const Box2 region(config.side);
  const auto model = make_mobility_model<2>(config.mobility, region);
  TraceWorkspace<2> ws;
  std::vector<Point2>& positions = ws.positions;
  const std::size_t n = config.node_count;
  trace::timed(Site::kMobilityDeploy, [&] {
    uniform_deployment(n, region, rng, positions);
    model->initialize(positions, rng);
  });

  std::vector<LargestComponentCurve> curves;
  curves.reserve(config.steps);
  const auto first =
      trace::timed(Site::kKineticStart, [&] { return ws.kinetic.start(positions, region); });
  curves.push_back(traced_curve(n, first, ws.dsu, ws.breakpoints));
  for (std::size_t s = 1; s < config.steps; ++s) {
    trace::timed(Site::kMobilityStep, [&] { model->step(positions, rng); });
    const auto tree = traced_advance(ws.kinetic, positions);
    curves.push_back(traced_curve(n, tree, ws.dsu, ws.breakpoints));
  }
  const MobileConnectivityTrace mobile = trace::timed(Site::kTraceMerge, [&] {
    return MobileConnectivityTrace(n, std::move(curves), ws.merge_events);
  });
  trace::add(Count::kMergeEvents, ws.merge_events.size());

  return trace::timed(Site::kMtrmExtract, [&] {
    MtrmIterationOutcome outcome;
    for (const double f : config.time_fractions) {
      const double r_f = mobile.range_for_time_fraction(f);
      outcome.range_for_time.push_back(r_f);
      outcome.lcc_at_range_for_time.push_back(
          mobile.mean_largest_fraction_when_disconnected(r_f));
      outcome.min_lcc_at_range_for_time.push_back(mobile.min_largest_fraction_at(r_f));
    }
    const double r0 = mobile.largest_never_connected_range();
    outcome.range_never_connected = r0;
    outcome.lcc_at_range_never = mobile.mean_largest_fraction_when_disconnected(r0);
    for (const double phi : config.component_fractions) {
      outcome.range_for_component.push_back(mobile.range_for_mean_component_fraction(phi));
    }
    outcome.mean_critical_range = mobile.mean_critical_range();
    return outcome;
  });
}

/// solve_mtrm_sweep's in-process path (points fan out, iterations nest in
/// the same pool), with every layer call timed.
std::vector<MtrmResult> traced_sweep(const std::vector<MtrmConfig>& configs,
                                     std::uint64_t seed, std::uint32_t parent) {
  return parallel_for_trials(configs.size(), seed, [&](std::size_t point, Rng& point_rng) {
    const trace::Span span("point", parent);
    const MtrmConfig& config = configs[point];
    config.validate();
    const std::uint64_t trial_root = point_rng.next_u64();
    const auto outcomes = parallel_for_trials(
        config.iterations, trial_root, [&config, &span](std::size_t, Rng& iteration_rng) {
          return traced_iteration(config, iteration_rng, span.id());
        });
    return trace::timed(Site::kMtrmFold, [&] { return fold_mtrm_outcomes(config, outcomes); });
  });
}

/// estimate_mtr's stationary sample, through deployment + critical_range.
double traced_stationary_range(double l, std::size_t trials, Rng& rng) {
  const std::size_t n = experiments::paper_node_count(l);
  const Box2 box(l);
  const std::uint64_t trial_root = rng.next_u64();
  std::vector<double> radii =
      parallel_for_trials(trials, trial_root, [n, &box](std::size_t, Rng& trial_rng) {
        const auto points = uniform_deployment(n, box, trial_rng);
        return trace::timed(Site::kStationaryCriticalRange,
                            [&] { return critical_range<2>(points, box); });
      });
  return StationaryRangeSample(std::move(radii)).range_for_probability(kRsQuantile);
}

/// One traced pass; `sweep_seconds` receives the two sweeps' wall time.
Outputs traced_pass(const Plan& plan, double& sweep_seconds) {
  Outputs out;
  const trace::Span pass("pass", 0);
  {
    const trace::Span stationary("stationary", pass.id());
    for (std::size_t figure = 0; figure < 2; ++figure) {
      for (std::size_t i = 0; i < plan.l_values.size(); ++i) {
        Rng rng = substream(plan.stationary_seed[figure], i);
        out.stationary.push_back(
            traced_stationary_range(plan.l_values[i], plan.stationary_trials, rng));
      }
    }
  }
  for (std::size_t figure = 0; figure < 2; ++figure) {
    const trace::Span sweep("sweep", pass.id());
    out.checksum[figure] = checksum(traced_sweep(plan.configs[figure], plan.sweep_seed[figure],
                                                 sweep.id()));
    sweep_seconds += sweep.elapsed();
  }
  return out;
}

}  // namespace

Report run_paper_figs(const Options& options) {
  // Up to 4 threads: every core of the 4-core hosts the repository is
  // measured on, and no more than that on bigger ones.
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  set_max_parallelism(std::min<std::size_t>(nproc, 4));
  const Plan plan = make_plan(options);
  Report report;
  PassSamples samples;
  Outputs reference;
  bool have_reference = false;
  std::vector<double> untraced_walls;

  const auto untraced = [&] {
    PassTimes times;
    const Outputs out = untraced_pass(plan, times);
    if (!have_reference) {
      reference = out;
      have_reference = true;
    }
    report.check_count(plan.l_values.size() * 2, out == reference ? 0 : 1,
                       "paper_figs: a pass differs from the first pass");
    const double wall = times.figure[0] + times.figure[1];
    samples.setup_s.push_back(times.setup);
    samples.wall_s.push_back(wall);
    samples.part1_s.push_back(times.figure[0]);
    samples.part2_s.push_back(times.figure[1]);
    samples.rate_per_s.push_back(static_cast<double>(plan.total_steps) / wall);
    untraced_walls.push_back(wall);
    return times.setup + wall;
  };

  if (!options.trace) {
    run_passes(options.seconds, untraced);
  } else {
    // The first pass gives the reference outputs and warms the process up;
    // after it, untraced and traced passes alternate, so that both sides of
    // trace.overhead_s see the same drift of the host.
    const double first = untraced();
    untraced_walls.clear();
    trace::reset();
    LibraryCounters counters;
    std::vector<double> traced_walls;
    const std::size_t passes = run_passes(options.seconds - first, [&] {
      const double plain = untraced();
      const std::uint64_t start = now_ns();
      double sweeps = 0.0;
      const Outputs out = counters.around([&] { return traced_pass(plan, sweeps); });
      report.check(out == reference, "paper_figs: traced outputs differ from untraced");
      traced_walls.push_back(sweeps);
      return plain + seconds_between(start, now_ns());
    });
    const trace::Totals totals = trace::collect();
    const double n = static_cast<double>(passes);

    LayerExtras extras;
    const std::vector<double> iterations = trace::span_seconds("iteration");
    double busy = 0.0;
    for (const double s : iterations) busy += s;
    double sweep_seconds = 0.0;
    for (const double s : traced_walls) sweep_seconds += s;
    extras.iteration_s_p50 = median(iterations);
    extras.iteration_s_max = quantile(iterations, 1.0);
    extras.busy_share = busy / (static_cast<double>(max_parallelism()) * sweep_seconds);
    counters.fill(extras, n);
    extras.trace_overhead_s = median(traced_walls) - median(untraced_walls);
    // Share of the iterations' time spent inside timed layer calls.
    const double layer_seconds =
        totals[Site::kMobilityDeploy].seconds() + totals[Site::kMobilityStep].seconds() +
        totals[Site::kKineticStart].seconds() + totals[Site::kKineticAdvance].seconds() +
        totals[Site::kCurveBuild].seconds() + totals[Site::kTraceMerge].seconds() +
        totals[Site::kMtrmExtract].seconds();
    extras.trace_coverage = layer_seconds / busy;
    add_per_layer(report, totals, n, extras);
  }

  samples.add_end_to_end(report);
  for (std::size_t figure = 0; figure < 2; ++figure) {
    report.digests.emplace_back(std::string("paper_figs.") + kFigureNames[figure],
                                hex_u64(reference.checksum[figure]));
    if (options.seed == kPinnedSeed && !options.smoke) {
      report.check(reference.checksum[figure] == kPinnedChecksum[figure],
                   std::string("paper_figs: ") + kFigureNames[figure] +
                       " checksum differs from the pinned value");
    }
  }
  report.digests.emplace_back("paper_figs.r_stationary",
                              hex_u64(fnv1a_bits(reference.stationary)));

  const auto& e2e = report.end_to_end;
  report.named = {{"waypoint_s", e2e[2].value, "s"},
                  {"drunkard_s", e2e[3].value, "s"},
                  {"steps_per_s", e2e[4].value, "1/s"}};
  std::printf("paper_figs: %zu points x %zu iterations x %zu steps per figure, %zu threads\n",
              plan.l_values.size(), plan.iterations, plan.steps, max_parallelism());
  return report;
}

}  // namespace perfbench
