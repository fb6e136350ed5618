#pragma once

#include <cstddef>
#include <vector>

#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "graph/metrics.hpp"
#include "graph/scc.hpp"
#include "mobility/mobility_model.hpp"
#include "sim/deployment.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace manet {

/// Per-snapshot structural statistics of a mobile network operated at a
/// fixed range, aggregated over a trace. Where MobileConnectivityTrace
/// answers "what range do I need", this answers "what does the graph look
/// like while I operate": degrees, isolated nodes (the paper's observed
/// disconnection mode), component counts and hop diameters.
///
/// Under a directed link model (graph/link_model.hpp) the degree/component
/// statistics describe the *bidirectional* (symmetric-closure) subgraph and
/// `strongly_connected_fraction` censuses the directed graph; for symmetric
/// models it equals `connected_fraction`.
struct SnapshotAggregate {
  std::size_t steps = 0;
  double range = 0.0;

  RunningStats mean_degree;
  RunningStats min_degree;
  RunningStats isolated_count;
  RunningStats component_count;
  RunningStats largest_fraction;
  /// Hop diameter of the largest component (per connected-enough snapshot).
  RunningStats largest_component_diameter;
  /// Fraction of snapshots whose (bidirectional) graph is connected.
  double connected_fraction = 0.0;
  /// Fraction of snapshots whose directed graph is strongly connected.
  double strongly_connected_fraction = 0.0;
  /// Fraction of disconnected snapshots where removing the isolated nodes
  /// would restore connectivity — quantifies the paper's "disconnection is
  /// caused by only a few isolated nodes".
  double disconnection_by_isolates_fraction = 0.0;
};

/// Runs a mobility trace of `steps` steps and aggregates snapshot statistics
/// of the communication graph under `link` (any LinkModel). Throws
/// ConfigError — in every build mode, these are user-facing simulation
/// parameters — unless steps >= 1 and node_count >= 1; empty deployments
/// are rejected rather than producing an all-zero aggregate whose
/// per-snapshot averages would be 0/0.
template <int D>
SnapshotAggregate collect_snapshot_stats(std::size_t node_count, const Box<D>& region,
                                         std::size_t steps, const LinkModel& link,
                                         MobilityModel<D>& model, Rng& rng) {
  if (steps < 1) throw ConfigError("collect_snapshot_stats: steps must be >= 1");
  if (node_count < 1) throw ConfigError("collect_snapshot_stats: node_count must be >= 1");
  link.validate_for(node_count);

  SnapshotAggregate aggregate;
  aggregate.steps = steps;
  aggregate.range = link.max_link_distance();

  auto positions = uniform_deployment(node_count, region, rng);
  model.initialize(positions, rng);

  const bool directed = link.symmetry() == LinkSymmetry::kDirected;
  std::size_t connected_snapshots = 0;
  std::size_t strongly_connected_snapshots = 0;
  std::size_t disconnected_snapshots = 0;
  std::size_t healed_by_isolate_removal = 0;

  for (std::size_t s = 0; s < steps; ++s) {
    if (s > 0) model.step(positions, rng);

    const AdjacencyGraph graph = build_link_communication_graph<D>(positions, region, link);
    const DegreeStats degrees = degree_stats(graph);
    const auto sizes = component_sizes(graph);

    aggregate.mean_degree.add(degrees.mean_degree);
    aggregate.min_degree.add(static_cast<double>(degrees.min_degree));
    aggregate.isolated_count.add(static_cast<double>(degrees.isolated_count));
    aggregate.component_count.add(static_cast<double>(sizes.size()));
    aggregate.largest_fraction.add(static_cast<double>(sizes.front()) /
                                   static_cast<double>(node_count));

    // Diameter of the largest component (find one of its members).
    std::size_t member = 0;
    for (std::size_t v = 0; v < node_count; ++v) {
      if (reachable_count(graph, v) == sizes.front()) {
        member = v;
        break;
      }
    }
    aggregate.largest_component_diameter.add(
        static_cast<double>(component_diameter(graph, member)));

    if (sizes.size() <= 1) {
      ++connected_snapshots;
    } else {
      ++disconnected_snapshots;
      // "Healed by removing isolates": every non-largest component is a
      // singleton.
      bool only_singletons = true;
      for (std::size_t c = 1; c < sizes.size(); ++c) {
        if (sizes[c] > 1) {
          only_singletons = false;
          break;
        }
      }
      if (only_singletons) ++healed_by_isolate_removal;
    }

    if (!directed) {
      // Symmetric: strong and weak connectivity coincide; no extra work.
      if (sizes.size() <= 1) ++strongly_connected_snapshots;
    } else {
      const auto arcs = link_model_arcs<D>(positions, region, link);
      if (strongly_connected_components(node_count, arcs).strongly_connected()) {
        ++strongly_connected_snapshots;
      }
    }
  }

  aggregate.connected_fraction =
      static_cast<double>(connected_snapshots) / static_cast<double>(steps);
  aggregate.strongly_connected_fraction =
      static_cast<double>(strongly_connected_snapshots) / static_cast<double>(steps);
  if (disconnected_snapshots > 0) {
    aggregate.disconnection_by_isolates_fraction =
        static_cast<double>(healed_by_isolate_removal) /
        static_cast<double>(disconnected_snapshots);
  }
  return aggregate;
}

}  // namespace manet
