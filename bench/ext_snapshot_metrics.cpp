// EXTENSION bench: what the operated network looks like from the inside.
//
// Figures 4-5 report only the largest-component size. This bench adds the
// structural detail behind the paper's commentary: per-snapshot degree
// statistics, isolated-node counts, component counts and hop diameters at
// the three operating ranges (r100 / r90 / r10 solved from a probe trace),
// plus the fraction of disconnections that are caused purely by isolated
// nodes — making the paper's "on the average disconnection is caused by only
// a few isolated nodes" quantitative.
//
// Expected: at r90 nearly all disconnections are isolate-only; at r10 the
// network fragments into real multi-node components and the hop diameter of
// the largest component grows.

#include "common/figure_bench.hpp"
#include "graph/link_model.hpp"
#include "sim/mobile_trace.hpp"
#include "sim/snapshot_stats.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "ext_snapshot_metrics: degree/isolate/diameter structure at r100/r90/r10");
  if (!options) return 0;

  Rng rng(options->seed);
  const ScaleParams scale = options->scale();
  const double l = 4096.0;
  const std::size_t n = experiments::paper_node_count(l);
  const Box2 region(l);
  const MobilityConfig mobility = MobilityConfig::paper_waypoint(l);

  // Probe trace to solve the operating ranges.
  Rng probe_rng = rng.split();
  auto probe_model = make_mobility_model<2>(mobility, region);
  const auto probe =
      run_mobile_trace<2>(n, region, scale.steps, *probe_model, probe_rng);

  TextTable table({"operating range", "r", "mean degree", "min degree", "isolated",
                   "components", "LCC fraction", "LCC diameter", "isolate-only downs"});
  const std::pair<const char*, double> points[] = {
      {"r100", probe.range_for_time_fraction(1.0)},
      {"r90", probe.range_for_time_fraction(0.9)},
      {"r10", probe.range_for_time_fraction(0.1)},
  };
  for (const auto& [label, range] : points) {
    Rng point_rng = rng.split();
    auto model = make_mobility_model<2>(mobility, region);
    const UnitDiskLinkModel link(range);
    const auto stats =
        collect_snapshot_stats<2>(n, region, scale.steps, link, *model, point_rng);
    table.add_row({label, TextTable::num(range, 1),
                   TextTable::num(stats.mean_degree.mean(), 2),
                   TextTable::num(stats.min_degree.mean(), 2),
                   TextTable::num(stats.isolated_count.mean(), 2),
                   TextTable::num(stats.component_count.mean(), 2),
                   TextTable::num(stats.largest_fraction.mean(), 3),
                   TextTable::num(stats.largest_component_diameter.mean(), 2),
                   TextTable::num(stats.disconnection_by_isolates_fraction, 3)});
  }
  print_result(table, *options,
               "Extension — snapshot structure at the solved operating ranges "
               "(l=4096, n=64, random waypoint)",
               "Extension beyond the paper: no published reference series. See EXPERIMENTS.md.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
