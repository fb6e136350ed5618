#include "layers.hpp"

namespace perfbench {

using trace::Count;
using trace::Site;

void add_per_layer(Report& report, const trace::Totals& totals, double passes,
                   const LayerExtras& extras) {
  const auto seconds = [&](Site site) { return totals[site].seconds() / passes; };
  const auto per_pass = [&](Count count) {
    return static_cast<double>(totals[count]) / passes;
  };
  const auto ms = [&](Site site, double q) { return totals[site].quantile_ns(q) * 1e-6; };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto add = [&](const char* name, double value, const char* unit) {
    report.per_layer.push_back({name, value, unit});
  };

  // mobility
  add("mobility.step_s", seconds(Site::kMobilityStep), "s");
  add("mobility.deploy_s", seconds(Site::kMobilityDeploy), "s");
  // topology: kinetic engine
  add("topology.kinetic_start_s", seconds(Site::kKineticStart), "s");
  add("topology.kinetic_advance_s", seconds(Site::kKineticAdvance), "s");
  add("topology.repair_step_ms_p50", ms(Site::kRepairStep, 0.5), "ms");
  add("topology.rebuild_step_ms_p50", ms(Site::kRebuildStep, 0.5), "ms");
  add("topology.repairs", per_pass(Count::kRepairs), "count");
  add("topology.full_rebuilds", per_pass(Count::kFullRebuilds), "count");
  add("topology.mass_move_rebuilds", per_pass(Count::kMassMoveRebuilds), "count");
  add("topology.radius_growths", per_pass(Count::kRadiusGrowths), "count");
  add("topology.radius_shrinks", per_pass(Count::kRadiusShrinks), "count");
  add("topology.boundary_crossings", per_pass(Count::kBoundaryCrossings), "count");
  add("topology.movers", per_pass(Count::kMovers), "count");
  add("topology.delta_pairs", per_pass(Count::kDeltaPairs), "count");
  add("topology.superseded", per_pass(Count::kSuperseded), "count");
  add("topology.candidate_edges_mean",
      ratio(static_cast<double>(totals[Count::kCandidateEdges]),
            static_cast<double>(totals[Count::kSparseAdvances])),
      "count");
  add("topology.repair_ratio",
      ratio(static_cast<double>(totals[Count::kRepairs]),
            static_cast<double>(totals[Count::kAdvances])),
      "ratio");
  // topology: batch EMST
  add("topology.stationary_critical_range_s", seconds(Site::kStationaryCriticalRange), "s");
  add("emst.solves", extras.emst_solves, "count");
  add("emst.dense_fallbacks", extras.emst_dense_fallbacks, "count");
  add("emst.doubling_rounds", extras.emst_doubling_rounds, "count");
  // topology: component curve
  add("topology.curve_build_s", seconds(Site::kCurveBuild), "s");
  add("topology.curve_breakpoints", per_pass(Count::kBreakpoints), "count");
  // sim
  add("sim.trace_merge_s", seconds(Site::kTraceMerge), "s");
  add("sim.merge_events", per_pass(Count::kMergeEvents), "count");
  // core
  add("core.mtrm_extract_s", seconds(Site::kMtrmExtract), "s");
  add("core.mtrm_fold_s", seconds(Site::kMtrmFold), "s");
  // support: parallel engine
  add("support.iteration_s_p50", extras.iteration_s_p50, "s");
  add("support.iteration_s_max", extras.iteration_s_max, "s");
  add("support.busy_share", extras.busy_share, "ratio");
  add("pool.tasks_executed", extras.pool_tasks, "count");
  add("pool.steals", extras.pool_steals, "count");
  // campaign
  add("campaign.decompose_s", seconds(Site::kDecompose), "s");
  add("campaign.execute_unit_s", seconds(Site::kExecuteUnit) - seconds(Site::kLeaseRefresh),
      "s");
  add("campaign.store_save_ms_p50", ms(Site::kStoreSave, 0.5), "ms");
  add("campaign.store_save_ms_p99", ms(Site::kStoreSave, 0.99), "ms");
  add("campaign.store_load_ms_p50", ms(Site::kStoreLoadHit, 0.5), "ms");
  add("campaign.store_bytes_written", per_pass(Count::kStoreBytesWritten), "B");
  add("campaign.merge_s", seconds(Site::kMergeUnits), "s");
  add("campaign.result_write_s", seconds(Site::kResultWrite), "s");
  add("campaign.units_computed", per_pass(Count::kUnitsComputed), "count");
  add("campaign.units_cached", per_pass(Count::kUnitsCached), "count");
  // service: leases
  add("service.lease_claim_ms_p50", ms(Site::kLeaseClaim, 0.5), "ms");
  add("service.lease_refresh_ms_p50", ms(Site::kLeaseRefresh, 0.5), "ms");
  add("service.lease_release_ms_p50", ms(Site::kLeaseRelease, 0.5), "ms");
  add("service.heartbeats", per_pass(Count::kHeartbeats), "count");
  add("service.idle_polls", extras.idle_polls, "count");
  add("service.held_skips", extras.held_skips, "count");
  // service: queries
  add("service.handle_us_p50", totals[Site::kHandle].quantile_ns(0.5) * 1e-3, "us");
  add("service.transport_us_p50", extras.transport_us_p50, "us");
  add("manetd.cache_hits", extras.cache_hits, "count");
  add("manetd.cache_misses", extras.cache_misses, "count");
  add("service.cache_hit_ratio",
      ratio(extras.cache_hits, extras.cache_hits + extras.cache_misses), "ratio");
  add("manetd.parse_errors", extras.parse_errors, "count");
  // the tracing itself
  add("trace.overhead_s", extras.trace_overhead_s, "s");
  add("trace.coverage", extras.trace_coverage, "ratio");
}

namespace {
constexpr const char* kLibraryCounters[5] = {"pool.tasks_executed", "pool.steals", "emst.solves",
                                             "emst.dense_fallbacks", "emst.doubling_rounds"};
}  // namespace

void LibraryCounters::add_delta(const manet::metrics::Snapshot& before,
                                const manet::metrics::Snapshot& after) {
  for (std::size_t i = 0; i < 5; ++i) {
    sums_[i] += static_cast<double>(after.counter_value(kLibraryCounters[i]) -
                                    before.counter_value(kLibraryCounters[i]));
  }
}

void LibraryCounters::fill(LayerExtras& extras, double passes) const {
  extras.pool_tasks = sums_[0] / passes;
  extras.pool_steals = sums_[1] / passes;
  extras.emst_solves = sums_[2] / passes;
  extras.emst_dense_fallbacks = sums_[3] / passes;
  extras.emst_doubling_rounds = sums_[4] / passes;
}

std::span<const manet::WeightedEdge> traced_advance(manet::KineticEmstEngine<2>& engine,
                                                    std::span<const manet::Point2> points) {
  const manet::KineticStats before = engine.stats();
  const std::uint64_t start = now_ns();
  const auto tree = engine.advance(points);
  const std::uint64_t elapsed = now_ns() - start;
  const manet::KineticStats& after = engine.stats();

  trace::record(Site::kKineticAdvance, elapsed);
  if (after.full_rebuilds > before.full_rebuilds) {
    trace::record(Site::kRebuildStep, elapsed);
  } else if (after.incremental_repairs > before.incremental_repairs) {
    trace::record(Site::kRepairStep, elapsed);
  }
  trace::add(Count::kAdvances, 1);
  trace::add(Count::kRepairs, after.incremental_repairs - before.incremental_repairs);
  trace::add(Count::kFullRebuilds, after.full_rebuilds - before.full_rebuilds);
  trace::add(Count::kMassMoveRebuilds, after.mass_move_rebuilds - before.mass_move_rebuilds);
  trace::add(Count::kRadiusGrowths, after.radius_growths - before.radius_growths);
  trace::add(Count::kRadiusShrinks, after.radius_shrinks - before.radius_shrinks);
  trace::add(Count::kBoundaryCrossings, after.boundary_crossings - before.boundary_crossings);
  trace::add(Count::kMovers, after.last_moved);
  trace::add(Count::kDeltaPairs, after.last_delta);
  trace::add(Count::kSuperseded, after.last_superseded);
  if (!after.dense_mode) {
    trace::add(Count::kCandidateEdges, after.candidate_edges);
    trace::add(Count::kSparseAdvances, 1);
  }
  return tree;
}

manet::LargestComponentCurve traced_curve(
    std::size_t n, std::span<const manet::WeightedEdge> tree, manet::UnionFind& dsu,
    std::vector<manet::LargestComponentCurve::Breakpoint>& scratch) {
  const std::uint64_t start = now_ns();
  manet::LargestComponentCurve curve(n, tree, dsu, scratch);
  trace::record(Site::kCurveBuild, now_ns() - start);
  trace::add(Count::kBreakpoints, curve.breakpoints().size());
  return curve;
}

}  // namespace perfbench
