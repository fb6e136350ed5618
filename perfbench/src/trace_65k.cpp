// trace_65k: paper-waypoint traces (v_max = 0.01*l, t_pause = 2000) at
// l = 1024, n = 65536 on a single thread, stepped through the kinetic EMST
// engine: the large-n regime where one waypoint step spans several grid
// cells, so most steps are mass-move rebuilds and a bottleneck that outruns
// the candidate radius forces a doubling rebuild.
//
// What one step costs there depends on when such growth rebuilds happen,
// which varies a lot between trajectories; a pass therefore runs several
// short independent traces (seeded from the workload seed) instead of one
// long one. Each trace is run_mobile_trace's kinetic loop driven from here,
// so every step can be timed and its MST weights folded into a digest. Two
// sampled steps per pass are re-solved from scratch by the batch EmstEngine
// and must give the same tree.
//
// A layer call here takes tens of milliseconds, so timing every call costs
// nothing measurable: untraced and traced runs drive the same timed loop and
// --trace only chooses which metrics are printed.
//
// This workload is a diagnostic run by hand; BENCHMARK.json does not declare
// it because its cost is not steady between seeds (see ../README.md).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "mobility/factory.hpp"
#include "sim/deployment.hpp"
#include "sim/mobile_trace.hpp"
#include "support/parallel.hpp"
#include "topology/emst_grid.hpp"
#include "topology/emst_kinetic.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using namespace manet;
using trace::Count;
using trace::Site;

constexpr double kSide = 1024.0;
constexpr std::uint64_t kPinnedSeed = 2002;
/// Per-step MST digest of the whole trace at kPinnedSeed and full size.
constexpr std::uint64_t kPinnedDigest = 0xaefc2a85c5b6ac5eull;

struct Plan {
  std::size_t nodes = 0;
  std::size_t traces = 0;  // independent trajectories per pass
  std::size_t steps = 0;   // curves per trace, the first from start()
  std::vector<std::uint64_t> trace_seeds;
  std::vector<std::pair<std::size_t, std::size_t>> sampled;  // (trace, step) re-solved
};

Plan make_plan(const Options& options) {
  Plan plan;
  plan.nodes = options.smoke ? 4096 : 65536;
  plan.traces = options.smoke ? 2 : 12;
  plan.steps = options.smoke ? 12 : 4;
  Rng rng = substream(options.seed, 0);
  for (std::size_t k = 0; k < plan.traces; ++k) plan.trace_seeds.push_back(rng.next_u64());
  // The last step of two traces drawn from the seed: a re-solve's cost
  // depends on how far the nodes have drifted from uniform, so a fixed step
  // keeps it comparable between seeds.
  for (int k = 0; k < 2; ++k) {
    plan.sampled.emplace_back(rng.uniform_index(plan.traces), plan.steps - 1);
  }
  return plan;
}

struct Outputs {
  std::uint64_t digest = kFnv1aOffset;    // every step's MST weights, trace after trace
  std::uint64_t timeline = kFnv1aOffset;  // the traces' per-step critical radii
  std::vector<std::uint64_t> sampled;     // per-step digests of the sampled steps
  std::uint64_t resolve_mismatches = 0;   // sampled steps the batch engine disagrees on
  bool operator==(const Outputs& other) const {
    return digest == other.digest && timeline == other.timeline && sampled == other.sampled;
  }
};

struct PassTimes {
  double setup = 0.0;      // deployments, initialize, start()
  double loop = 0.0;       // step loops + trace merges
  double resolve = 0.0;    // batch re-solves of the sampled steps
  double covered = 0.0;    // time inside layer calls of the step loops
  double loop_only = 0.0;  // step loops without the merges
  std::vector<double> step_ms;
};

/// Engines and buffers reused by every trace of the run, the way a serial
/// sweep reuses one TraceWorkspace: start() re-baselines the kinetic engine.
struct Workspace {
  KineticEmstEngine<2> kinetic;
  EmstEngine<2> batch;
  std::vector<Point2> positions;
  UnionFind dsu{0};
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  std::vector<CurveMergeEvent> merge_events;
};

/// One trace: set-up, then the step loop, every layer call timed.
void run_trace(const Plan& plan, std::size_t k, Workspace& ws, Outputs& out, PassTimes& times,
               std::vector<std::vector<Point2>>& sampled_positions) {
  const Box2 box(kSide);
  const std::size_t n = plan.nodes;
  const std::uint64_t setup_start = now_ns();
  Rng rng(plan.trace_seeds[k]);
  const auto model = make_mobility_model<2>(MobilityConfig::paper_waypoint(kSide), box);
  trace::timed(Site::kMobilityDeploy, [&] {
    uniform_deployment(n, box, rng, ws.positions);
    model->initialize(ws.positions, rng);
  });
  const auto first =
      trace::timed(Site::kKineticStart, [&] { return ws.kinetic.start(ws.positions, box); });
  times.setup += seconds_between(setup_start, now_ns());

  std::vector<LargestComponentCurve> curves;
  curves.reserve(plan.steps);
  const trace::Totals before = trace::collect();
  const std::uint64_t loop_start = now_ns();
  out.digest = fold_tree(first, out.digest);
  curves.push_back(traced_curve(n, first, ws.dsu, ws.scratch));
  for (std::size_t s = 1; s < plan.steps; ++s) {
    const std::uint64_t step_start = now_ns();
    trace::timed(Site::kMobilityStep, [&] { model->step(ws.positions, rng); });
    const auto tree = traced_advance(ws.kinetic, ws.positions);
    out.digest = fold_tree(tree, out.digest);
    for (const auto& [trace_index, step] : plan.sampled) {
      if (trace_index == k && step == s) {
        out.sampled.push_back(fold_tree(tree, kFnv1aOffset));
        sampled_positions.push_back(ws.positions);
      }
    }
    curves.push_back(traced_curve(n, tree, ws.dsu, ws.scratch));
    times.step_ms.push_back(seconds_between(step_start, now_ns()) * 1e3);
  }
  times.loop_only += seconds_between(loop_start, now_ns());
  const trace::Totals after = trace::collect();
  for (const Site site : {Site::kMobilityStep, Site::kKineticAdvance, Site::kCurveBuild}) {
    times.covered += after[site].seconds() - before[site].seconds();
  }

  const MobileConnectivityTrace mobile = trace::timed(Site::kTraceMerge, [&] {
    return MobileConnectivityTrace(n, std::move(curves), ws.merge_events);
  });
  trace::add(Count::kMergeEvents, ws.merge_events.size());
  out.timeline = fnv1a_bits(mobile.critical_radius_timeline(), out.timeline);
  times.loop += seconds_between(loop_start, now_ns());
}

Outputs run_pass(const Plan& plan, Workspace& ws, PassTimes& times) {
  Outputs out;
  std::vector<std::vector<Point2>> sampled_positions;
  for (std::size_t k = 0; k < plan.traces; ++k) {
    run_trace(plan, k, ws, out, times, sampled_positions);
  }
  // Batch re-solves of the sampled steps: the independent reference tree.
  const std::uint64_t resolve_start = now_ns();
  const Box2 box(kSide);
  for (std::size_t i = 0; i < sampled_positions.size(); ++i) {
    const auto tree = ws.batch.euclidean(sampled_positions[i], box);
    if (fold_tree(tree, kFnv1aOffset) != out.sampled[i]) ++out.resolve_mismatches;
  }
  times.resolve = seconds_between(resolve_start, now_ns());
  return out;
}

}  // namespace

Report run_trace_65k(const Options& options) {
  set_max_parallelism(1);
  const Plan plan = make_plan(options);
  const auto ws = std::make_unique<Workspace>();
  Report report;
  PassSamples samples;
  Outputs reference;
  bool have_reference = false;
  std::vector<double> step_ms;
  std::vector<double> coverage;
  LibraryCounters counters;

  const std::size_t passes = run_passes(options.seconds, [&] {
    const trace::Span span("pass", 0);
    PassTimes times;
    const Outputs out = counters.around([&] { return run_pass(plan, *ws, times); });
    if (!have_reference) {
      reference = out;
      have_reference = true;
    }
    report.check_count(out.sampled.size(), out.resolve_mismatches,
                       "trace_65k: batch EmstEngine re-solve differs from the kinetic tree");
    report.check_count(plan.traces * plan.steps, out == reference ? 0 : 1,
                       "trace_65k: a pass differs from the first pass");
    samples.setup_s.push_back(times.setup);
    samples.wall_s.push_back(times.loop + times.resolve);
    samples.part1_s.push_back(times.loop);
    samples.part2_s.push_back(times.resolve);
    samples.rate_per_s.push_back(static_cast<double>(plan.traces * plan.steps) / times.loop);
    step_ms.insert(step_ms.end(), times.step_ms.begin(), times.step_ms.end());
    coverage.push_back(times.covered / times.loop_only);
    return times.setup + times.loop + times.resolve;
  });

  if (options.trace) {
    LayerExtras extras;
    counters.fill(extras, static_cast<double>(passes));
    // Both runs time the same calls: the tracing has no separate overhead.
    extras.trace_overhead_s = 0.0;
    extras.trace_coverage = median(coverage);
    report.check(extras.trace_coverage >= 0.95,
                 "trace_65k: timed layer calls cover less than 95% of the step loops");
    add_per_layer(report, trace::collect(), static_cast<double>(passes), extras);
  }

  samples.add_end_to_end(report);
  report.digests.emplace_back("trace_65k.mst", hex_u64(reference.digest));
  report.digests.emplace_back("trace_65k.timeline", hex_u64(reference.timeline));
  if (options.seed == kPinnedSeed && !options.smoke) {
    report.check(reference.digest == kPinnedDigest,
                 "trace_65k: MST digest differs from the pinned value");
  }
  report.named = {{"steps_per_s", report.end_to_end[4].value, "1/s"},
                  {"step_ms_p50", quantile(step_ms, 0.5), "ms"},
                  {"step_ms_p95", quantile(step_ms, 0.95), "ms"},
                  {"step_samples", static_cast<double>(step_ms.size()), "count"}};
  std::printf("trace_65k: n = %zu, l = %g, %zu traces x %zu steps per pass, %zu re-solved\n",
              plan.nodes, kSide, plan.traces, plan.steps, plan.sampled.size());
  return report;
}

}  // namespace perfbench
