// Unit-disk graph construction through the LinkModel seam
// (graph/link_model.hpp): edge enumeration, the CSR builder and the
// component census under UnitDiskLinkModel.

#include "graph/link_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geometry/box.hpp"
#include "sim/deployment.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

TEST(ProximityEdges, TriangleAtVaryingRadius) {
  const Box2 box(10.0);
  const std::vector<Point2> points = {{{0.0, 0.0}}, {{3.0, 0.0}}, {{0.0, 4.0}}};
  // Pairwise distances: 3 (0-1), 4 (0-2), 5 (1-2).
  EXPECT_EQ(link_model_edges<2>(points, box, UnitDiskLinkModel(2.9)).size(), 0u);
  EXPECT_EQ(link_model_edges<2>(points, box, UnitDiskLinkModel(3.0)).size(), 1u);
  EXPECT_EQ(link_model_edges<2>(points, box, UnitDiskLinkModel(4.5)).size(), 2u);
  EXPECT_EQ(link_model_edges<2>(points, box, UnitDiskLinkModel(5.0)).size(), 3u);
}

TEST(ProximityEdges, FewerThanTwoPoints) {
  const Box2 box(10.0);
  const std::vector<Point2> none;
  const std::vector<Point2> one = {{{1.0, 1.0}}};
  EXPECT_TRUE(link_model_edges<2>(none, box, UnitDiskLinkModel(1.0)).empty());
  EXPECT_TRUE(link_model_edges<2>(one, box, UnitDiskLinkModel(1.0)).empty());
}

TEST(BuildCommunicationGraph, DegreesMatchGeometry) {
  const Box2 box(10.0);
  const std::vector<Point2> points = {{{0.0, 0.0}}, {{1.0, 0.0}}, {{2.0, 0.0}}, {{9.0, 9.0}}};
  const AdjacencyGraph graph =
      build_link_communication_graph<2>(points, box, UnitDiskLinkModel(1.5));
  EXPECT_EQ(graph.vertex_count(), 4u);
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_EQ(graph.degree(0), 1u);
  EXPECT_EQ(graph.degree(1), 2u);
  EXPECT_EQ(graph.degree(2), 1u);
  EXPECT_EQ(graph.degree(3), 0u);
}

TEST(AnalyzeComponents, ChainTopology) {
  const Box2 box(10.0);
  const std::vector<Point2> points = {{{0.0, 0.0}}, {{1.0, 0.0}}, {{2.0, 0.0}}, {{3.0, 0.0}}};
  const ComponentSummary summary =
      analyze_link_components<2>(points, box, UnitDiskLinkModel(1.0));
  EXPECT_EQ(summary.node_count, 4u);
  EXPECT_EQ(summary.component_count, 1u);
  EXPECT_EQ(summary.largest_size, 4u);
  EXPECT_EQ(summary.isolated_count, 0u);
  EXPECT_TRUE(summary.connected());
  EXPECT_DOUBLE_EQ(summary.largest_fraction(), 1.0);
}

TEST(AnalyzeComponents, SplitTopologyWithIsolatedNode) {
  const Box2 box(100.0);
  const std::vector<Point2> points = {
      {{0.0, 0.0}}, {{1.0, 0.0}},   // pair
      {{50.0, 50.0}},               // isolated
      {{90.0, 90.0}}, {{91.0, 90.0}}, {{92.0, 90.0}}};  // triple
  const ComponentSummary summary =
      analyze_link_components<2>(points, box, UnitDiskLinkModel(1.2));
  EXPECT_EQ(summary.component_count, 3u);
  EXPECT_EQ(summary.largest_size, 3u);
  EXPECT_EQ(summary.isolated_count, 1u);
  EXPECT_FALSE(summary.connected());
  EXPECT_DOUBLE_EQ(summary.largest_fraction(), 0.5);
}

TEST(AnalyzeComponents, EmptyAndSingleNode) {
  const Box2 box(10.0);
  const std::vector<Point2> none;
  const ComponentSummary empty = analyze_link_components<2>(none, box, UnitDiskLinkModel(1.0));
  EXPECT_TRUE(empty.connected());
  EXPECT_DOUBLE_EQ(empty.largest_fraction(), 1.0);

  const std::vector<Point2> one = {{{5.0, 5.0}}};
  const ComponentSummary single = analyze_link_components<2>(one, box, UnitDiskLinkModel(1.0));
  EXPECT_TRUE(single.connected());
  EXPECT_EQ(single.component_count, 1u);
  EXPECT_EQ(single.largest_size, 1u);
  EXPECT_EQ(single.isolated_count, 1u);
}

TEST(AnalyzeComponents, AgreesWithAdjacencyGraphOnRandomInputs) {
  Rng rng(1);
  const Box2 box(50.0);
  for (int trial = 0; trial < 20; ++trial) {
    const auto points = uniform_deployment(60, box, rng);
    const double radius = rng.uniform(2.0, 25.0);
    const UnitDiskLinkModel link(radius);
    const ComponentSummary summary = analyze_link_components<2>(points, box, link);
    const AdjacencyGraph graph = build_link_communication_graph<2>(points, box, link);

    // Cross-check against BFS reachability.
    std::size_t isolated = 0;
    for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
      if (graph.degree(v) == 0) ++isolated;
    }
    EXPECT_EQ(summary.isolated_count, isolated);
    EXPECT_EQ(summary.connected(), reachable_count(graph, 0) == points.size());
  }
}

TEST(AnalyzeComponents, WorksIn1DAnd3D) {
  const Box1 line(10.0);
  const std::vector<Point1> on_line = {{{0.0}}, {{1.0}}, {{2.5}}, {{9.0}}};
  const ComponentSummary line_summary =
      analyze_link_components<1>(on_line, line, UnitDiskLinkModel(1.6));
  EXPECT_EQ(line_summary.component_count, 2u);
  EXPECT_EQ(line_summary.largest_size, 3u);

  const Box3 cube(10.0);
  const std::vector<Point3> in_cube = {{{0, 0, 0}}, {{1, 1, 1}}, {{9, 9, 9}}};
  const ComponentSummary cube_summary =
      analyze_link_components<3>(in_cube, cube, UnitDiskLinkModel(2.0));
  EXPECT_EQ(cube_summary.component_count, 2u);
  EXPECT_EQ(cube_summary.isolated_count, 1u);
}

}  // namespace
}  // namespace manet
