#include "graph/robustness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "sim/deployment.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"

namespace manet {
namespace {

using Edge = std::pair<std::size_t, std::size_t>;

AdjacencyGraph make_graph(std::size_t n, std::vector<Edge> edges) {
  return AdjacencyGraph(n, edges);
}

/// Brute-force articulation check: remove v, count components among the
/// rest.
bool is_articulation_naive(const AdjacencyGraph& graph, std::size_t removed) {
  const std::size_t n = graph.vertex_count();
  std::vector<bool> visited(n, false);
  visited[removed] = true;

  std::size_t components = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (visited[start]) continue;
    ++components;
    std::vector<std::size_t> stack = {start};
    visited[start] = true;
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      for (std::size_t w : graph.neighbors(v)) {
        if (!visited[w]) {
          visited[w] = true;
          stack.push_back(w);
        }
      }
    }
  }

  // Components among the full graph (without removal).
  std::vector<bool> visited2(n, false);
  std::size_t base_components = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (visited2[start]) continue;
    ++base_components;
    std::vector<std::size_t> stack = {start};
    visited2[start] = true;
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      for (std::size_t w : graph.neighbors(v)) {
        if (!visited2[w]) {
          visited2[w] = true;
          stack.push_back(w);
        }
      }
    }
  }
  // Removing an isolated vertex reduces component count by one; it is not
  // an articulation point.
  const std::size_t base_without_v =
      graph.degree(removed) == 0 ? base_components - 1 : base_components;
  return components > base_without_v;
}

TEST(ArticulationPoints, PathGraphInteriorVertices) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}};
  const auto graph = make_graph(4, edges);
  const auto points = articulation_points(graph);
  EXPECT_EQ(points, (std::vector<std::size_t>{1, 2}));
}

TEST(ArticulationPoints, CycleHasNone) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const auto graph = make_graph(4, edges);
  EXPECT_TRUE(articulation_points(graph).empty());
}

TEST(ArticulationPoints, StarCenter) {
  std::vector<Edge> edges = {{0, 1}, {0, 2}, {0, 3}};
  const auto graph = make_graph(4, edges);
  EXPECT_EQ(articulation_points(graph), (std::vector<std::size_t>{0}));
}

TEST(ArticulationPoints, TwoTrianglesSharingAVertex) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}};
  const auto graph = make_graph(5, edges);
  EXPECT_EQ(articulation_points(graph), (std::vector<std::size_t>{2}));
}

TEST(ArticulationPoints, DisconnectedGraphHandledPerComponent) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {3, 4}};
  const auto graph = make_graph(5, edges);
  EXPECT_EQ(articulation_points(graph), (std::vector<std::size_t>{1}));
}

TEST(ArticulationPoints, MatchesNaiveOnRandomGeometricGraphs) {
  Rng rng(1);
  const Box2 box(50.0);
  for (int trial = 0; trial < 15; ++trial) {
    const auto points = uniform_deployment(25, box, rng);
    const double radius = rng.uniform(8.0, 30.0);
    const AdjacencyGraph graph =
        build_link_communication_graph<2>(points, box, UnitDiskLinkModel(radius));
    const auto fast = articulation_points(graph);
    std::vector<std::size_t> naive;
    for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
      if (is_articulation_naive(graph, v)) naive.push_back(v);
    }
    EXPECT_EQ(fast, naive) << "trial " << trial << " radius " << radius;
  }
}

/// Brute-force bridge check: remove the edge, test reachability.
bool is_bridge_naive(std::size_t n, std::vector<Edge> edges, const Edge& removed) {
  std::vector<Edge> remaining;
  for (const Edge& e : edges) {
    if (e != removed && Edge{removed.second, removed.first} != e) remaining.push_back(e);
  }
  const AdjacencyGraph without(n, remaining);
  // Components increase iff the endpoints separate.
  const auto dist = bfs_distances(without, removed.first);
  return dist[removed.second] == std::numeric_limits<std::size_t>::max();
}

TEST(Bridges, MatchesNaiveOnRandomGeometricGraphs) {
  Rng rng(11);
  const Box2 box(50.0);
  for (int trial = 0; trial < 10; ++trial) {
    const auto points = uniform_deployment(20, box, rng);
    const double radius = rng.uniform(10.0, 30.0);
    const AdjacencyGraph graph =
        build_link_communication_graph<2>(points, box, UnitDiskLinkModel(radius));

    // Rebuild the edge list from adjacency for the naive check.
    std::vector<Edge> edges;
    for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
      for (std::size_t w : graph.neighbors(v)) {
        if (v < w) edges.emplace_back(v, w);
      }
    }

    const auto fast = bridges(graph);
    std::vector<Edge> naive;
    for (const Edge& e : edges) {
      if (is_bridge_naive(graph.vertex_count(), edges, e)) naive.push_back(e);
    }
    std::sort(naive.begin(), naive.end());
    EXPECT_EQ(fast, naive) << "trial " << trial;
  }
}

TEST(Bridges, PathGraphAllEdges) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}};
  const auto graph = make_graph(4, edges);
  const auto result = bridges(graph);
  EXPECT_EQ(result, (std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(Bridges, CycleHasNone) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  const auto graph = make_graph(3, edges);
  EXPECT_TRUE(bridges(graph).empty());
}

TEST(Bridges, MixedGraph) {
  // Triangle {0,1,2} with a pendant chain 2-3-4: bridges are 2-3 and 3-4.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}};
  const auto graph = make_graph(5, edges);
  EXPECT_EQ(bridges(graph), (std::vector<Edge>{{2, 3}, {3, 4}}));
}

TEST(SurvivesAnySingleFailure, Cases) {
  // Cycle: biconnected.
  EXPECT_TRUE(survives_any_single_failure(
      make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}})));
  // Path: interior vertex is critical.
  EXPECT_FALSE(survives_any_single_failure(make_graph(3, {{0, 1}, {1, 2}})));
  // Disconnected: fails immediately.
  EXPECT_FALSE(survives_any_single_failure(make_graph(3, {{0, 1}})));
  // Tiny graphs.
  EXPECT_TRUE(survives_any_single_failure(make_graph(1, {})));
  EXPECT_TRUE(survives_any_single_failure(make_graph(2, {{0, 1}})));
  EXPECT_FALSE(survives_any_single_failure(make_graph(2, {})));
}

TEST(InjectFailures, SurvivesRedundantTopology) {
  // Complete graph on 5 vertices: any 3 removals leave a connected pair.
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  }
  const auto graph = make_graph(5, edges);
  const FailureReport report = inject_failures(graph, {0, 1, 2});
  EXPECT_EQ(report.failures_injected, 3u);
  EXPECT_EQ(report.failures_survived, 3u);
  EXPECT_DOUBLE_EQ(report.final_largest_fraction, 1.0);
}

TEST(InjectFailures, DetectsFirstDisconnection) {
  // Path 0-1-2-3-4: removing 2 splits the survivors.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  const auto graph = make_graph(5, edges);
  const FailureReport report = inject_failures(graph, {2});
  EXPECT_EQ(report.failures_survived, 0u);  // the very first removal broke it
  EXPECT_DOUBLE_EQ(report.final_largest_fraction, 0.5);
}

TEST(InjectFailures, EndpointRemovalIsHarmless) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  const auto graph = make_graph(5, edges);
  const FailureReport report = inject_failures(graph, {0, 4});
  EXPECT_EQ(report.failures_survived, 2u);
  EXPECT_DOUBLE_EQ(report.final_largest_fraction, 1.0);
}

TEST(InjectFailures, ValidatesInput) {
  const auto graph = make_graph(3, {{0, 1}});
  EXPECT_THROW(inject_failures(graph, {3}), ContractViolation);
  EXPECT_THROW(inject_failures(graph, {0, 0}), ContractViolation);
}

TEST(InjectFailures, DenseNetworksSurviveMoreRandomFailures) {
  Rng rng(2);
  const Box2 box(60.0);
  const auto points = uniform_deployment(40, box, rng);
  const double rc = critical_range<2>(points, box);

  // At 1.5x the critical range the graph has slack; at exactly rc the
  // bottleneck edge makes it fragile.
  const AdjacencyGraph dense =
      build_link_communication_graph<2>(points, box, UnitDiskLinkModel(rc * 1.5));
  const AdjacencyGraph tight =
      build_link_communication_graph<2>(points, box, UnitDiskLinkModel(rc));

  double dense_survived = 0.0;
  double tight_survived = 0.0;
  const int rounds = 30;
  for (int round = 0; round < rounds; ++round) {
    // Random failure order of 10 distinct nodes.
    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    order.resize(10);
    dense_survived += static_cast<double>(inject_failures(dense, order).failures_survived);
    tight_survived += static_cast<double>(inject_failures(tight, order).failures_survived);
  }
  EXPECT_GE(dense_survived, tight_survived);
}

}  // namespace
}  // namespace manet
