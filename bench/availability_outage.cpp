// ABLATION / dependability bench: the temporal structure of downtime.
//
// The paper estimates availability as the fraction of time the network is
// connected (Section 1). That fraction says nothing about *how* the
// downtime is distributed — 10% downtime as many one-step glitches is a very
// different dependability story than one 1000-step blackout. This bench
// operates the paper's l = 4096 network at its own r100/r90/r10 and reports
// the outage-interval statistics under both mobility models.
//
// Expected: at r90 the outages are short relative to the trace (mobility
// heals gaps); at r10 the network lives in long outages broken by brief
// connected windows — the environmental-monitoring regime of Section 4.

#include "common/figure_bench.hpp"
#include "core/availability.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "availability_outage: outage-interval structure at r100/r90/r10");
  if (!options) return 0;

  Rng rng(options->seed);
  const double l = 4096.0;

  TextTable table({"model", "f", "range", "availability", "outages", "longest outage",
                   "mean outage", "longest uptime"});
  for (bool drunkard : {false, true}) {
    Rng point_rng = rng.split();
    MtrmConfig config = drunkard ? experiments::drunkard_experiment(l, options->preset)
                                 : experiments::waypoint_experiment(l, options->preset);
    apply_scale(config, *options);
    const auto aggregates = solve_outage_structure<2>(config, point_rng);

    for (const OutageAggregate& aggregate : aggregates) {
      table.add_row({drunkard ? "drunkard" : "waypoint",
                     TextTable::num(aggregate.time_fraction, 2),
                     TextTable::num(aggregate.operating_range.mean(), 1),
                     TextTable::num(aggregate.availability.mean(), 3),
                     TextTable::num(aggregate.outage_count.mean(), 1),
                     TextTable::num(aggregate.longest_outage.mean(), 1),
                     TextTable::num(aggregate.mean_outage_length.mean(), 1),
                     TextTable::num(aggregate.longest_uptime.mean(), 1)});
    }
  }
  print_result(table, *options,
               "Dependability — outage-interval structure at the solved ranges "
               "(l=4096, n=64)",
               "Dependability extension beyond the paper: interval structure of downtime.\n"
               "See EXPERIMENTS.md.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
