// Differential suite of the LinkModel seam (graph/link_model.hpp):
//  - UnitDiskLinkModel is pinned to a brute-force all-pairs oracle across
//    dimensions, duplicates and exact-boundary configurations;
//  - shadowing links are deterministic in the fading seed and degenerate
//    exactly to the unit disk at sigma = 0;
//  - the SCC engine is checked against a brute-force reachability oracle;
//  - heterogeneous ranges produce the documented directed semantics, and
//    their symmetric projection agrees with symmetric_graph_connected —
//    boundary ties included;
//  - every arc's admitting scale is the smallest the model's own predicate
//    admits, and link_model_critical_range equals a brute-force oracle for
//    every family (bit-identical to the EMST bottleneck for the unit disk).

#include "graph/link_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "graph/metrics.hpp"
#include "graph/scc.hpp"
#include "sim/stationary_sample.hpp"
#include "sim/deployment.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/range_assignment.hpp"

namespace manet {
namespace {

void expect_summary_equal(const ComponentSummary& a, const ComponentSummary& b) {
  EXPECT_EQ(a.node_count, b.node_count);
  EXPECT_EQ(a.component_count, b.component_count);
  EXPECT_EQ(a.largest_size, b.largest_size);
  EXPECT_EQ(a.isolated_count, b.isolated_count);
  EXPECT_EQ(a.scc_count, b.scc_count);
  EXPECT_EQ(a.largest_scc_size, b.largest_scc_size);
}

using EdgeList = std::vector<std::pair<std::size_t, std::size_t>>;

// Brute-force all-pairs oracle of the unit-disk rule: edge iff dist <= r,
// compared in squared space (the documented tie rule). Lexicographic order.
template <int D>
EdgeList brute_force_unit_disk_edges(std::span<const Point<D>> points, double radius) {
  EdgeList edges;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (squared_distance(points[i], points[j]) <= radius * radius) edges.emplace_back(i, j);
    }
  }
  return edges;
}

// The component census of the oracle's edge set, read off its CSR graph.
template <int D>
ComponentSummary brute_force_unit_disk_summary(std::span<const Point<D>> points,
                                               double radius) {
  const AdjacencyGraph graph(points.size(), brute_force_unit_disk_edges<D>(points, radius));
  const std::vector<std::size_t> sizes = component_sizes(graph);
  ComponentSummary summary;
  summary.node_count = points.size();
  summary.component_count = summary.scc_count = sizes.size();
  summary.largest_size = summary.largest_scc_size = sizes.empty() ? 0 : sizes.front();
  for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
    if (graph.degree(v) == 0) ++summary.isolated_count;
  }
  return summary;
}

template <int D>
void expect_unit_disk_matches_brute_force(std::span<const Point<D>> points, const Box<D>& box,
                                          double radius) {
  const UnitDiskLinkModel model(radius);
  // Same edge set as the oracle, each pair once as (u < v).
  const EdgeList edges = link_model_edges<D>(points, box, model);
  EdgeList sorted = edges;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, brute_force_unit_disk_edges<D>(points, radius));
  expect_summary_equal(analyze_link_components<D>(points, box, model),
                       brute_force_unit_disk_summary<D>(points, radius));
  // Every symmetric model's arcs are the edges, both orientations.
  const auto arcs = link_model_arcs<D>(points, box, model);
  ASSERT_EQ(arcs.size(), 2 * edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    EXPECT_EQ(arcs[2 * e], (DirectedEdge{edges[e].first, edges[e].second}));
    EXPECT_EQ(arcs[2 * e + 1], (DirectedEdge{edges[e].second, edges[e].first}));
  }
}

TEST(UnitDiskLinkModel, MatchesBruteForceAcrossDimensionsAndRadii) {
  Rng rng(101);
  for (std::size_t n : {0ul, 1ul, 2ul, 7ul, 60ul}) {
    {
      const Box<1> box(50.0);
      const auto points = uniform_deployment<1>(n, box, rng);
      for (double radius : {0.5, 3.0, 60.0}) {
        expect_unit_disk_matches_brute_force<1>(points, box, radius);
      }
    }
    {
      const Box<2> box(50.0);
      const auto points = uniform_deployment<2>(n, box, rng);
      for (double radius : {0.5, 8.0, 80.0}) {
        expect_unit_disk_matches_brute_force<2>(points, box, radius);
      }
    }
    {
      const Box<3> box(30.0);
      const auto points = uniform_deployment<3>(n, box, rng);
      for (double radius : {0.5, 10.0, 60.0}) {
        expect_unit_disk_matches_brute_force<3>(points, box, radius);
      }
    }
  }
}

TEST(UnitDiskLinkModel, MatchesBruteForceOnDuplicatesAndBoundaryTies) {
  // Duplicate points (distance 0) and a pair at exactly the radius: the tie
  // must land on the same side as the oracle's (<=, compared in squared
  // space).
  const Box<2> box(20.0);
  const std::vector<Point2> points = {
      {{1.0, 1.0}}, {{1.0, 1.0}},   // duplicates
      {{4.0, 1.0}}, {{4.0, 5.0}},   // 3-4-5 triangle with the first pair
      {{19.0, 19.0}},               // far corner
  };
  for (double radius : {3.0, 4.0, 5.0, std::nextafter(5.0, 0.0), 25.5}) {
    expect_unit_disk_matches_brute_force<2>(points, box, radius);
  }
}

TEST(UnitDiskLinkModel, ExactBoundaryTieIsAnEdge) {
  // dist((0,0), (3,4)) = 5 exactly in floating point: dist2 = 25.0. The
  // documented rule is inclusive (dist <= r), so radius 5 has the edge and
  // the next double below 5 does not.
  const Box<2> box(10.0);
  const std::vector<Point2> pair = {{{0.0, 0.0}}, {{3.0, 4.0}}};
  const UnitDiskLinkModel at(5.0);
  const UnitDiskLinkModel below(std::nextafter(5.0, 0.0));
  EXPECT_EQ(link_model_edges<2>(pair, box, at).size(), 1u);
  EXPECT_EQ(link_model_edges<2>(pair, box, below).size(), 0u);
  EXPECT_TRUE(analyze_link_components<2>(pair, box, at).connected());
  EXPECT_FALSE(analyze_link_components<2>(pair, box, below).connected());
}

TEST(UnitDiskLinkModel, RejectsNonPositiveRadius) {
  EXPECT_THROW(UnitDiskLinkModel(0.0), ConfigError);
  EXPECT_THROW(UnitDiskLinkModel(-1.0), ConfigError);
  EXPECT_THROW(UnitDiskLinkModel(std::numeric_limits<double>::quiet_NaN()), ConfigError);
}

TEST(LinkModelAnalyses, EmptyAndSingletonSemantics) {
  // Documented empty-deployment behavior: all-zero census, vacuous
  // connectivity, largest_fraction == 1.
  const Box<2> box(10.0);
  const UnitDiskLinkModel model(1.0);
  const std::vector<Point2> none;
  const ComponentSummary empty = analyze_link_components<2>(none, box, model);
  EXPECT_EQ(empty.node_count, 0u);
  EXPECT_EQ(empty.component_count, 0u);
  EXPECT_EQ(empty.largest_size, 0u);
  EXPECT_EQ(empty.scc_count, 0u);
  EXPECT_EQ(empty.largest_scc_size, 0u);
  EXPECT_TRUE(empty.connected());
  EXPECT_TRUE(empty.strongly_connected());
  EXPECT_DOUBLE_EQ(empty.largest_fraction(), 1.0);
  EXPECT_TRUE(link_model_edges<2>(none, box, model).empty());
  EXPECT_TRUE(link_model_arcs<2>(none, box, model).empty());

  const std::vector<Point2> one = {{{5.0, 5.0}}};
  const ComponentSummary single = analyze_link_components<2>(one, box, model);
  EXPECT_EQ(single.component_count, 1u);
  EXPECT_EQ(single.scc_count, 1u);
  EXPECT_EQ(single.isolated_count, 1u);
  EXPECT_TRUE(single.connected());
  EXPECT_TRUE(single.strongly_connected());
}

// ---------------------------------------------------------------------------
// Shadowing
// ---------------------------------------------------------------------------

TEST(ShadowingLinkModel, SameSeedSameGraphDifferentSeedUsuallyNot) {
  Rng rng(202);
  const Box<2> box(100.0);
  const auto points = uniform_deployment<2>(40, box, rng);
  ShadowingParams params;
  params.reference_range = 18.0;
  params.fading_seed = 77;

  const ShadowingLinkModel a(params);
  const ShadowingLinkModel b(params);
  EXPECT_EQ(link_model_edges<2>(points, box, a), link_model_edges<2>(points, box, b));

  params.fading_seed = 78;
  const ShadowingLinkModel c(params);
  EXPECT_NE(link_model_edges<2>(points, box, a), link_model_edges<2>(points, box, c));
}

TEST(ShadowingLinkModel, PairGainIsSymmetricAndOrderIndependent) {
  ShadowingParams params;
  params.fading_seed = 5;
  const ShadowingLinkModel model(params);
  for (std::size_t u = 0; u < 10; ++u) {
    for (std::size_t v = u + 1; v < 10; ++v) {
      EXPECT_DOUBLE_EQ(model.pair_gain(u, v), model.pair_gain(v, u));
      EXPECT_GT(model.pair_gain(u, v), 0.0);
      EXPECT_LE(model.pair_gain(u, v) * params.reference_range,
                model.max_link_distance() * (1.0 + 1e-12));
    }
  }
  // Distinct pairs should not share a gain (substream decorrelation).
  EXPECT_NE(model.pair_gain(0, 1), model.pair_gain(0, 2));
  EXPECT_NE(model.pair_gain(0, 1), model.pair_gain(1, 2));
}

TEST(ShadowingLinkModel, SigmaZeroDegeneratesToUnitDisk) {
  Rng rng(203);
  const Box<2> box(60.0);
  const auto points = uniform_deployment<2>(50, box, rng);
  ShadowingParams params;
  params.reference_range = 12.0;
  params.sigma_db = 0.0;
  const ShadowingLinkModel shadowing(params);
  EXPECT_DOUBLE_EQ(shadowing.pair_gain(3, 9), 1.0);
  EXPECT_DOUBLE_EQ(shadowing.max_link_distance(), 12.0);
  const UnitDiskLinkModel unit_disk(12.0);
  EXPECT_EQ(link_model_edges<2>(points, box, shadowing),
            link_model_edges<2>(points, box, unit_disk));
  expect_summary_equal(analyze_link_components<2>(points, box, shadowing),
                       analyze_link_components<2>(points, box, unit_disk));
}

TEST(ShadowingLinkModel, NoLinkBeyondMaxLinkDistance) {
  // The enumeration-bound contract: a pair farther apart than
  // max_link_distance() can never link, whatever the fading draw.
  ShadowingParams params;
  params.reference_range = 10.0;
  params.sigma_db = 8.0;
  params.path_loss_exponent = 2.0;
  const ShadowingLinkModel model(params);
  const double beyond = model.max_link_distance() * 1.0000001;
  for (std::size_t u = 0; u < 50; ++u) {
    EXPECT_FALSE(model.symmetric_link(u, u + 1, beyond * beyond));
  }
}

TEST(ShadowingParams, Validation) {
  ShadowingParams params;
  params.reference_range = 0.0;
  EXPECT_THROW(params.validate(), ConfigError);
  params = {};
  params.sigma_db = -1.0;
  EXPECT_THROW(params.validate(), ConfigError);
  params = {};
  params.path_loss_exponent = 0.0;
  EXPECT_THROW(params.validate(), ConfigError);
  params = {};
  params.z_clip = 0.0;
  EXPECT_THROW(params.validate(), ConfigError);
  // Infinity (CLI parsing accepts "inf") in any field.
  for (double ShadowingParams::*field :
       {&ShadowingParams::reference_range, &ShadowingParams::sigma_db,
        &ShadowingParams::path_loss_exponent, &ShadowingParams::z_clip}) {
    params = {};
    params.*field = std::numeric_limits<double>::infinity();
    EXPECT_THROW(params.validate(), ConfigError);
  }
  // Finite fields whose maximum fading gain overflows: 10^(1e3 * 1e3 / 30).
  params = {};
  params.sigma_db = 1e3;
  params.z_clip = 1e3;
  EXPECT_THROW(params.validate(), ConfigError);
  EXPECT_THROW(ShadowingLinkFamily{params}, ConfigError);
  params = {};
  EXPECT_NO_THROW(params.validate());
  EXPECT_GT(params.max_gain_factor(), 1.0);
}

// ---------------------------------------------------------------------------
// SCC vs brute-force reachability oracle
// ---------------------------------------------------------------------------

std::vector<std::vector<bool>> reachability_closure(std::size_t n,
                                                    std::span<const DirectedEdge> arcs) {
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t v = 0; v < n; ++v) reach[v][v] = true;
  for (const DirectedEdge& arc : arcs) reach[arc.from][arc.to] = true;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = true;
      }
    }
  }
  return reach;
}

void expect_scc_matches_oracle(std::size_t n, std::span<const DirectedEdge> arcs) {
  const SccPartition scc = strongly_connected_components(n, arcs);
  const auto reach = reachability_closure(n, arcs);
  ASSERT_EQ(scc.component_of.size(), n);

  std::vector<std::size_t> size_of(scc.component_count, 0);
  std::size_t largest = 0;
  for (std::size_t v = 0; v < n; ++v) {
    ASSERT_LT(scc.component_of[v], scc.component_count);
    largest = std::max(largest, ++size_of[scc.component_of[v]]);
  }
  EXPECT_EQ(scc.largest_size, largest);
  for (std::size_t s : size_of) EXPECT_GE(s, 1u);  // no empty component ids

  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      const bool mutual = reach[u][v] && reach[v][u];
      EXPECT_EQ(scc.component_of[u] == scc.component_of[v], mutual)
          << "vertices " << u << ", " << v;
    }
  }
}

TEST(Scc, MatchesReachabilityOracleOnRandomDigraphs) {
  Rng rng(303);
  for (std::size_t n : {0ul, 1ul, 2ul, 3ul, 6ul, 12ul, 20ul}) {
    for (double p : {0.0, 0.05, 0.15, 0.4, 1.0}) {
      std::vector<DirectedEdge> arcs;
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = 0; v < n; ++v) {
          if (u != v && rng.bernoulli(p)) arcs.push_back({u, v});
        }
      }
      expect_scc_matches_oracle(n, arcs);
    }
  }
}

TEST(Scc, HandCheckedShapes) {
  // Directed 3-cycle: one component.
  EXPECT_EQ(strongly_connected_components(3, std::vector<DirectedEdge>{{0, 1}, {1, 2}, {2, 0}})
                .component_count,
            1u);
  // Directed path: all singletons, numbered in reverse topological order.
  const SccPartition path =
      strongly_connected_components(3, std::vector<DirectedEdge>{{0, 1}, {1, 2}});
  EXPECT_EQ(path.component_count, 3u);
  EXPECT_EQ(path.largest_size, 1u);
  EXPECT_TRUE(path.component_of[2] < path.component_of[1] &&
              path.component_of[1] < path.component_of[0]);
  // Self-loops and parallel arcs are harmless.
  const SccPartition loops = strongly_connected_components(
      2, std::vector<DirectedEdge>{{0, 0}, {0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(loops.component_count, 1u);
  // Empty graph: vacuously strongly connected.
  EXPECT_TRUE(strongly_connected_components(0, {}).strongly_connected());
  EXPECT_EQ(strongly_connected_components(0, {}).largest_size, 0u);
}

TEST(Scc, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(strongly_connected_components(2, std::vector<DirectedEdge>{{0, 2}}),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Heterogeneous ranges / directed semantics
// ---------------------------------------------------------------------------

TEST(HeterogeneousRangeLinkModel, DirectedRuleAndSymmetricProjection) {
  const HeterogeneousRangeLinkModel model(RangeAssignment({6.0, 2.0}));
  bool fwd = false;
  bool back = false;
  model.directed_link(0, 1, 25.0, fwd, back);  // dist 5: only node 0 reaches
  EXPECT_TRUE(fwd);
  EXPECT_FALSE(back);
  EXPECT_FALSE(model.symmetric_link(0, 1, 25.0));  // projection needs both
  model.directed_link(0, 1, 4.0, fwd, back);  // dist 2 == min range: mutual
  EXPECT_TRUE(fwd && back);
  EXPECT_TRUE(model.symmetric_link(0, 1, 4.0));
  EXPECT_EQ(model.symmetry(), LinkSymmetry::kDirected);
  EXPECT_DOUBLE_EQ(model.max_link_distance(), 6.0);
}

TEST(HeterogeneousRangeLinkModel, BoundaryTieMatchesSymmetricGraphConnected) {
  // Nodes at exactly min(r_u, r_v) apart: both the O(n^2) RangeAssignment
  // path and the grid path must call the tie an edge (inclusive <=, squared
  // comparison in both). 3-4-5 triangle, ranges pinning dist == 5 == min.
  const Box<2> box(10.0);
  const std::vector<Point2> points = {{{0.0, 0.0}}, {{3.0, 4.0}}};
  const RangeAssignment at({5.0, 7.0});
  EXPECT_TRUE(symmetric_graph_connected<2>(points, at));
  const HeterogeneousRangeLinkModel model_at(RangeAssignment({5.0, 7.0}));
  EXPECT_TRUE(analyze_link_components<2>(points, box, model_at).connected());
  EXPECT_TRUE(analyze_link_components<2>(points, box, model_at).strongly_connected());

  const double below = std::nextafter(5.0, 0.0);
  const RangeAssignment under({below, 7.0});
  EXPECT_FALSE(symmetric_graph_connected<2>(points, under));
  const HeterogeneousRangeLinkModel model_under(RangeAssignment({below, 7.0}));
  EXPECT_FALSE(analyze_link_components<2>(points, box, model_under).connected());
  EXPECT_FALSE(analyze_link_components<2>(points, box, model_under).strongly_connected());
}

TEST(HeterogeneousRangeLinkModel, ProjectionAgreesWithSymmetricGraphConnected) {
  // Random deployments, random per-node ranges: the grid-based symmetric
  // projection and the O(n^2) oracle must agree on connectivity every time.
  Rng rng(404);
  const Box<2> box(40.0);
  for (int trial = 0; trial < 25; ++trial) {
    const auto points = uniform_deployment<2>(18, box, rng);
    std::vector<double> ranges;
    for (std::size_t i = 0; i < points.size(); ++i) ranges.push_back(rng.uniform(0.0, 25.0));
    const RangeAssignment assignment(ranges);
    const HeterogeneousRangeLinkModel model{RangeAssignment(ranges)};
    EXPECT_EQ(analyze_link_components<2>(points, box, model).connected(),
              symmetric_graph_connected<2>(points, assignment))
        << "trial " << trial;
  }
}

TEST(HeterogeneousRangeLinkModel, EqualRangesMatchUnitDisk) {
  Rng rng(405);
  const Box<2> box(50.0);
  const auto points = uniform_deployment<2>(30, box, rng);
  const double r = 14.0;
  const HeterogeneousRangeLinkModel hetero(
      RangeAssignment(std::vector<double>(points.size(), r)));
  const UnitDiskLinkModel unit_disk(r);
  EXPECT_EQ(link_model_edges<2>(points, box, hetero),
            link_model_edges<2>(points, box, unit_disk));
  const ComponentSummary summary = analyze_link_components<2>(points, box, hetero);
  expect_summary_equal(summary, analyze_link_components<2>(points, box, unit_disk));
}

TEST(HeterogeneousRangeLinkModel, OneWayBridgeGadgetIsStrongButNotWeak) {
  // Two mutual pairs bridged by opposite one-way long arcs: strongly
  // connected, bidirectionally split. This is the configuration that forces
  // the directed census to differ from the undirected one.
  const Box<2> box(30.0);
  const std::vector<Point2> points = {
      {{0.0, 0.0}}, {{2.0, 0.0}}, {{22.0, 0.0}}, {{20.0, 0.0}}};
  const HeterogeneousRangeLinkModel model(RangeAssignment({20.0, 2.0, 20.0, 2.0}));
  const ComponentSummary summary = analyze_link_components<2>(points, box, model);
  EXPECT_FALSE(summary.connected());
  EXPECT_EQ(summary.component_count, 2u);
  EXPECT_EQ(summary.largest_size, 2u);
  EXPECT_TRUE(summary.strongly_connected());
  EXPECT_EQ(summary.scc_count, 1u);
  EXPECT_EQ(summary.largest_scc_size, 4u);
  EXPECT_EQ(summary.isolated_count, 0u);  // every node has a mutual neighbor
}

TEST(HeterogeneousRangeLinkModel, ValidateForRejectsSizeMismatch) {
  const HeterogeneousRangeLinkModel model(RangeAssignment({1.0, 1.0}));
  EXPECT_NO_THROW(model.validate_for(2));
  EXPECT_THROW(model.validate_for(3), ConfigError);
  const Box<2> box(10.0);
  const std::vector<Point2> three = {{{1.0, 1.0}}, {{2.0, 2.0}}, {{3.0, 3.0}}};
  EXPECT_THROW(link_model_edges<2>(three, box, model), ConfigError);
  EXPECT_THROW(analyze_link_components<2>(three, box, model), ConfigError);
}

// ---------------------------------------------------------------------------
// Families, factory, critical-range search
// ---------------------------------------------------------------------------

TEST(LinkModelFamily, FactoryNamesAndErrors) {
  for (const std::string& name : link_model_family_names()) {
    const auto family = make_link_model_family(name);
    EXPECT_EQ(family->name(), name);
  }
  EXPECT_THROW(make_link_model_family("quasi-unit-disk"), ConfigError);
  EXPECT_THROW(make_link_model_family(""), ConfigError);

  LinkModelMenu bad;
  bad.min_range_factor = 0.0;
  EXPECT_THROW(make_link_model_family("heterogeneous", bad), ConfigError);
  bad = {};
  bad.min_range_factor = 2.0;
  bad.max_range_factor = 1.0;
  EXPECT_THROW(make_link_model_family("heterogeneous", bad), ConfigError);
  bad = {};
  bad.shadowing.sigma_db = -3.0;
  EXPECT_THROW(make_link_model_family("shadowing", bad), ConfigError);
}

TEST(LinkModelFamily, AtRangeRejectsNonPositiveRange) {
  for (const std::string& name : link_model_family_names()) {
    const auto family = make_link_model_family(name);
    EXPECT_THROW(family->at_range(0.0, 4, 1), ConfigError) << name;
    EXPECT_THROW(family->at_range(-2.0, 4, 1), ConfigError) << name;
  }
}

// The families the critical-range tests sweep: the three defaults, the two
// parameter sets whose bisection bracket overflowed (the largest fading gain
// 10^300, and a 1e-300 node factor), and a zero-sigma shadowing family
// (the unit disk in disguise).
std::vector<std::unique_ptr<LinkModelFamily>> critical_range_families() {
  std::vector<std::unique_ptr<LinkModelFamily>> families;
  for (const std::string& name : link_model_family_names()) {
    families.push_back(make_link_model_family(name));
  }
  ShadowingParams extreme;
  extreme.sigma_db = 100.0;
  extreme.z_clip = 30.0;
  extreme.path_loss_exponent = 1.0;
  families.push_back(std::make_unique<ShadowingLinkFamily>(extreme));
  families.push_back(std::make_unique<HeterogeneousRangeLinkFamily>(1e-300, 1.0));
  ShadowingParams flat;
  flat.sigma_db = 0.0;
  families.push_back(std::make_unique<ShadowingLinkFamily>(flat));
  return families;
}

bool admits_arc(const LinkModelFamily& family, std::size_t n, std::uint64_t seed, std::size_t u,
                std::size_t v, double d2, double scale) {
  if (scale == 0.0) return d2 == 0.0;
  bool u_to_v = false;
  bool v_to_u = false;
  family.at_range(scale, n, seed)->directed_link(u, v, d2, u_to_v, v_to_u);
  return u_to_v;
}

// Brute-force oracle of link_model_critical_range: each arc's admitting scale
// is found by bisecting the non-negative doubles (ordered like their bit
// patterns) on the model's own predicate, at_range(r)->directed_link; then
// the arcs are added in ascending order of scale until the digraph is
// strongly connected.
template <int D>
double brute_force_critical_scale(std::span<const Point<D>> points,
                                  const LinkModelFamily& family, std::uint64_t seed) {
  const std::size_t n = points.size();
  struct Arc {
    double scale;
    DirectedEdge edge;
  };
  std::vector<Arc> arcs;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      const double d2 = squared_distance(points[u], points[v]);
      const double top = std::numeric_limits<double>::max();
      double scale = std::numeric_limits<double>::infinity();
      if (admits_arc(family, n, seed, u, v, d2, top)) {
        std::uint64_t lo = 0;
        std::uint64_t hi = std::bit_cast<std::uint64_t>(top);
        while (lo < hi) {
          const std::uint64_t mid = lo + (hi - lo) / 2;
          if (admits_arc(family, n, seed, u, v, d2, std::bit_cast<double>(mid))) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        scale = std::bit_cast<double>(lo);
      }
      arcs.push_back({scale, {u, v}});
    }
  }
  std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) { return a.scale < b.scale; });
  std::vector<DirectedEdge> taken;
  for (const Arc& arc : arcs) {
    taken.push_back(arc.edge);
    if (strongly_connected_components(n, taken).component_count == 1) return arc.scale;
  }
  return n <= 1 ? 0.0 : std::numeric_limits<double>::infinity();
}

template <int D>
bool strongly_connected_at(std::span<const Point<D>> points, const Box<D>& box,
                           const LinkModelFamily& family, std::uint64_t seed, double scale) {
  const auto model = family.at_range(scale, points.size(), seed);
  return analyze_link_components<D>(points, box, *model).strongly_connected();
}

template <int D>
void expect_critical_range_matches_oracle(std::uint64_t rng_seed, double side) {
  Rng rng(rng_seed);
  const Box<D> box(side);
  const auto families = critical_range_families();
  for (std::size_t n : {2ul, 3ul, 6ul, 10ul}) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto points = uniform_deployment<D>(n, box, rng);
      const std::uint64_t seed = rng.next_u64();
      for (const auto& family : families) {
        const double r = link_model_critical_range<D>(points, box, *family, seed);
        SCOPED_TRACE(testing::Message() << family->name() << " D=" << D << " n=" << n);
        EXPECT_EQ(r, brute_force_critical_scale<D>(points, *family, seed));
        ASSERT_TRUE(std::isfinite(r));
        ASSERT_GT(r, 0.0);
        EXPECT_TRUE(strongly_connected_at<D>(points, box, *family, seed, r));
        EXPECT_FALSE(strongly_connected_at<D>(points, box, *family, seed, std::nextafter(r, 0.0)));
      }
    }
  }
}

TEST(LinkModelCriticalRange, MatchesBruteForceOracle1D) {
  expect_critical_range_matches_oracle<1>(601, 64.0);
}
TEST(LinkModelCriticalRange, MatchesBruteForceOracle2D) {
  expect_critical_range_matches_oracle<2>(602, 4096.0);
}
TEST(LinkModelCriticalRange, MatchesBruteForceOracle3D) {
  expect_critical_range_matches_oracle<3>(603, 1.0);
}

TEST(LinkModelCriticalRange, LargeBracketsReturnTheExactFiniteValue) {
  // The parameter sets whose bisection bracket (diagonal * 10^300 and
  // diagonal / 1e-300) swamped its bracket-relative tolerance: the bisection
  // returned ~5.5e300 on a side-4096 region whatever the deployment.
  Rng rng(604);
  const Box<2> box(4096.0);
  ShadowingParams extreme;
  extreme.sigma_db = 100.0;
  extreme.z_clip = 30.0;
  extreme.path_loss_exponent = 1.0;
  const ShadowingLinkFamily shadowing(extreme);
  const HeterogeneousRangeLinkFamily heterogeneous(1e-300, 1.0);
  for (const LinkModelFamily* family :
       std::initializer_list<const LinkModelFamily*>{&shadowing, &heterogeneous}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto points = uniform_deployment<2>(12, box, rng);
      const double r = link_model_critical_range<2>(points, box, *family, 17);
      EXPECT_EQ(r, brute_force_critical_scale<2>(points, *family, 17)) << family->name();
      EXPECT_LT(r, 1e200) << family->name();
    }
  }
}

template <int D>
void expect_unit_disk_is_the_euclidean_bottleneck(std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  const Box<D> box(64.0);
  const UnitDiskLinkFamily family;
  for (std::size_t n : {2ul, 25ul, 200ul}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto points = uniform_deployment<D>(n, box, rng);
      // Bit-identical to the EMST bottleneck — no tolerance.
      EXPECT_EQ(link_model_critical_range<D>(points, box, family, 7),
                critical_range<D>(points, box));
    }
  }
  // Duplicates and lattice ties.
  std::vector<Point<D>> lattice;
  for (int i = 0; i < 12; ++i) {
    Point<D> p{};
    p.coords[0] = 3.0 * (i % 4);
    p.coords[D - 1] += 5.0 * (i / 4);
    lattice.push_back(p);
    if (i % 5 == 0) lattice.push_back(p);
  }
  EXPECT_EQ(link_model_critical_range<D>(lattice, box, family, 7),
            critical_range<D>(lattice, box));
  // Points 1e-160 apart: squared distances are subnormal, so a wide run of
  // ranges below sqrt(d2) already passes d2 <= r*r.
  std::vector<Point<D>> close(5);
  double widest_gap2 = 0.0;
  for (std::size_t i = 0; i < close.size(); ++i) {
    close[i].coords[D - 1] = 1e-160 * static_cast<double>(i);
    if (i > 0) widest_gap2 = std::max(widest_gap2, squared_distance(close[i - 1], close[i]));
  }
  const double rc = critical_range<D>(close, box);
  EXPECT_EQ(link_model_critical_range<D>(close, box, family, 7), rc);
  EXPECT_LT(rc, std::sqrt(widest_gap2));
}

TEST(LinkModelCriticalRange, UnitDiskTakesTheExactPath) {
  expect_unit_disk_is_the_euclidean_bottleneck<1>(505);
  expect_unit_disk_is_the_euclidean_bottleneck<2>(506);
  expect_unit_disk_is_the_euclidean_bottleneck<3>(507);
}

TEST(LinkModelCriticalRange, ShadowingAtSigmaZeroIsTheUnitDiskBitwise) {
  // sigma = 0 shadowing is the unit disk through another family: the exact
  // solver must land on the same bits.
  Rng rng(506);
  const Box<2> box(64.0);
  ShadowingParams base;
  base.sigma_db = 0.0;
  const ShadowingLinkFamily family(base);
  for (int trial = 0; trial < 5; ++trial) {
    const auto points = uniform_deployment<2>(150, box, rng);
    EXPECT_EQ(link_model_critical_range<2>(points, box, family, 7),
              critical_range<2>(points, box));
  }
}

// The bisection link_model_critical_range ran before it became exact: the
// bracket [0, diagonal * bracket_factor] (the largest fading gain for
// shadowing, 1 / min_factor for heterogeneous ranges) halved until narrower
// than 1e-6 of its initial width; the answer was its upper end.
template <int D>
double former_bisection(std::span<const Point<D>> points, const Box<D>& box,
                        const LinkModelFamily& family, std::uint64_t seed, double bracket_factor) {
  double lo = 0.0;
  double hi = box.diagonal() * bracket_factor;
  const double width_goal = 1e-6 * hi;
  for (int iter = 0; iter < 80 && hi - lo > width_goal; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    (strongly_connected_at<D>(points, box, family, seed, mid) ? hi : lo) = mid;
  }
  return hi;
}

TEST(LinkModelCriticalRange, FormerBisectionBracketContainsTheExactValue) {
  Rng rng(608);
  const Box<2> box(4096.0);
  const ShadowingLinkFamily shadowing{ShadowingParams{}};
  const HeterogeneousRangeLinkFamily heterogeneous(0.5, 1.0);
  const std::pair<const LinkModelFamily*, double> cases[] = {
      {&shadowing, ShadowingParams{}.max_gain_factor()}, {&heterogeneous, 1.0 / 0.5}};
  for (const auto& [family, bracket_factor] : cases) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto points = uniform_deployment<2>(64, box, rng);
      const double exact = link_model_critical_range<2>(points, box, *family, 31);
      const double former = former_bisection<2>(points, box, *family, 31, bracket_factor);
      EXPECT_LE(exact, former) << family->name();
      EXPECT_LE(former, exact + 1e-6 * box.diagonal() * bracket_factor) << family->name();
    }
  }
}

TEST(LinkModelCriticalRange, ResultIsConnectedAndDeterministic) {
  Rng rng(507);
  const Box<2> box(100.0);
  const auto points = uniform_deployment<2>(300, box, rng);
  for (const auto& family : critical_range_families()) {
    const double rc = link_model_critical_range<2>(points, box, *family, 99);
    // The returned scale connects the deployment, the next smaller double
    // does not, and repeated calls agree bitwise (the fading seed pins all
    // randomness).
    EXPECT_TRUE(strongly_connected_at<2>(points, box, *family, 99, rc)) << family->name();
    EXPECT_FALSE(strongly_connected_at<2>(points, box, *family, 99, std::nextafter(rc, 0.0)))
        << family->name();
    EXPECT_EQ(rc, link_model_critical_range<2>(points, box, *family, 99)) << family->name();
    EXPECT_GT(rc, 0.0) << family->name();
  }
}

TEST(LinkModelCriticalRange, TrivialDeployments) {
  const Box<2> box(10.0);
  const std::vector<Point2> none;
  const std::vector<Point2> one = {{{5.0, 5.0}}};
  const std::vector<Point2> coincident(4, Point2{{{3.0, 3.0}}});
  for (const auto& family : critical_range_families()) {
    EXPECT_EQ(link_model_critical_range<2>(none, box, *family, 1), 0.0);
    EXPECT_EQ(link_model_critical_range<2>(one, box, *family, 1), 0.0);
    EXPECT_EQ(link_model_critical_range<2>(coincident, box, *family, 1), 0.0);
  }
}

TEST(LinkModelCriticalRange, TinyCriticalRangeInAWideRegion) {
  // The search radius starts at the Euclidean critical range, 1e-150 here:
  // the cell grid must clamp side / radius (1e151 cells per axis) before
  // converting it to an integer. At 1e-160 the squared distances are
  // subnormal: each arc's admitting scale lies ~1e11 doubles below sqrt(d2) / k.
  const Box<2> box(10.0);
  const std::vector<Point2> pair = {{{1.0, 1.0}}, {{1.0 + 1e-15, 1.0}}};
  const std::vector<Point2> tiny = {{{0.0, 0.0}}, {{1e-150, 0.0}}, {{0.0, 1e-150}}};
  const std::vector<Point2> subnormal = {{{0.0, 0.0}}, {{1e-160, 0.0}}, {{0.0, 1e-160}}};
  for (const auto& family : critical_range_families()) {
    for (const auto* points : {&pair, &tiny, &subnormal}) {
      EXPECT_EQ(link_model_critical_range<2>(*points, box, *family, 3),
                brute_force_critical_scale<2>(*points, *family, 3))
          << family->name();
    }
  }
}

TEST(LinkModelCriticalRange, OverflowingCriticalScaleThrows) {
  // Every node factor is the subnormal 1e-320: each arc needs a scale near
  // d / 1e-320, beyond the largest double.
  const Box<2> box(100.0);
  const std::vector<Point2> pair = {{{1.0, 1.0}}, {{50.0, 50.0}}};
  const HeterogeneousRangeLinkFamily family(1e-320, 1e-320);
  EXPECT_THROW(link_model_critical_range<2>(pair, box, family, 1), ConfigError);
  Rng rng(609);
  EXPECT_THROW(sample_link_model_critical_ranges<2>(16, box, 3, rng, family), ConfigError);
}

template <int D>
void expect_admitting_scales_are_tight(std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  constexpr std::size_t kNodes = 40;
  for (double side : {1e-3, 1.0, 4096.0, 1e6}) {
    const Box<D> box(side);
    const auto points = uniform_deployment<D>(kNodes, box, rng);
    for (const auto& family : critical_range_families()) {
      const std::uint64_t seed = rng.next_u64();
      const auto unit = family->at_range(1.0, kNodes, seed);
      for (int draw = 0; draw < 40; ++draw) {
        const auto u = static_cast<std::size_t>(rng.uniform_index(kNodes));
        const auto v = (u + 1 + static_cast<std::size_t>(rng.uniform_index(kNodes - 1))) % kNodes;
        const double d2 = squared_distance(points[u], points[v]);
        const double t = admitting_scale(d2, unit->arc_reach(u, v));
        SCOPED_TRACE(testing::Message() << family->name() << " D=" << D << " side=" << side);
        ASSERT_TRUE(std::isfinite(t));
        ASSERT_GT(t, 0.0);
        EXPECT_TRUE(admits_arc(*family, kNodes, seed, u, v, d2, t));
        EXPECT_FALSE(admits_arc(*family, kNodes, seed, u, v, d2, std::nextafter(t, 0.0)));
      }
    }
  }
}

TEST(LinkModelAdmittingScale, IsTheSmallestScaleTheModelAdmits1D) {
  expect_admitting_scales_are_tight<1>(701);
}
TEST(LinkModelAdmittingScale, IsTheSmallestScaleTheModelAdmits2D) {
  expect_admitting_scales_are_tight<2>(702);
}
TEST(LinkModelAdmittingScale, IsTheSmallestScaleTheModelAdmits3D) {
  expect_admitting_scales_are_tight<3>(703);
}

TEST(LinkModelAdmittingScale, IsTightOverTheWholeExponentRange) {
  // Every binade of d2, subnormal squares (where fl(r*r) is coarse and the
  // answer lies up to ~30% below the estimate sqrt(d2) / k) and overflowing
  // ones included: the result admits, the next smaller double does not.
  Rng rng(704);
  const auto admits = [](double d2, double reach, double r) {
    return d2 <= (r * reach) * (r * reach);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(admitting_scale(0.0, 1.0), 0.0);
  const double overflowing = covering_radius(kInf);  // r*r overflows to infinity
  EXPECT_TRUE(admits(kInf, 1.0, overflowing));
  EXPECT_FALSE(admits(kInf, 1.0, std::nextafter(overflowing, 0.0)));
  for (int exponent = -1073; exponent <= 1024; ++exponent) {
    for (const double reach : {1.0, rng.uniform(1e-3, 1e3), 1e-300, 1e-320}) {
      const double d2 = std::ldexp(rng.uniform(0.5, 1.0), exponent);
      const double t = admitting_scale(d2, reach);
      SCOPED_TRACE(testing::Message() << "d2=" << d2 << " reach=" << reach);
      if (t == kInf) {
        EXPECT_FALSE(admits(d2, reach, std::numeric_limits<double>::max()));
        continue;
      }
      EXPECT_TRUE(admits(d2, reach, t));
      EXPECT_FALSE(admits(d2, reach, std::nextafter(t, 0.0)));
    }
  }
  // No finite scale admits an arc of zero reach or one beyond the doubles.
  EXPECT_EQ(admitting_scale(1.0, 0.0), kInf);
  EXPECT_EQ(admitting_scale(1e300, 1e-320), kInf);
}

TEST(HeterogeneousRangeLinkFamily, PerNodeFactorsAreSeedDeterministic) {
  const HeterogeneousRangeLinkFamily family(0.5, 1.0);
  const auto a = family.at_range(10.0, 20, 42);
  const auto b = family.at_range(10.0, 20, 42);
  const auto* ha = dynamic_cast<const HeterogeneousRangeLinkModel*>(a.get());
  const auto* hb = dynamic_cast<const HeterogeneousRangeLinkModel*>(b.get());
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  ASSERT_EQ(ha->assignment().node_count(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(ha->assignment().range(i), hb->assignment().range(i));
    EXPECT_GE(ha->assignment().range(i), 10.0 * 0.5);
    EXPECT_LE(ha->assignment().range(i), 10.0 * 1.0);
  }
}

TEST(HeterogeneousRangeLinkFamily, RejectsNonFiniteFactors) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(HeterogeneousRangeLinkFamily(0.5, kInf), ConfigError);
  EXPECT_THROW(HeterogeneousRangeLinkFamily(kInf, kInf), ConfigError);
  EXPECT_THROW(HeterogeneousRangeLinkFamily(0.5, std::numeric_limits<double>::quiet_NaN()),
               ConfigError);
  LinkModelMenu menu;
  menu.max_range_factor = kInf;
  EXPECT_THROW(make_link_model_family("heterogeneous", menu), ConfigError);
}

}  // namespace
}  // namespace manet
