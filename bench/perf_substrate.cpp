// Microbenchmarks (google-benchmark) of the simulation substrate: the hot
// paths executed millions of times by the figure benches — unit-disk graph
// construction, MST / critical-radius extraction, component-curve building,
// union-find sweeps and mobility stepping.

#include <benchmark/benchmark.h>

#include <vector>

#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "graph/union_find.hpp"
#include "mobility/factory.hpp"
#include "sim/deployment.hpp"
#include "sim/mobile_trace.hpp"
#include "support/contracts.hpp"
#include "topology/critical_range.hpp"
#include "topology/emst_grid.hpp"
#include "topology/mst.hpp"

namespace {

using namespace manet;

std::vector<Point2> bench_points(std::size_t n, double side, std::uint64_t seed) {
  Rng rng(seed);
  const Box2 box(side);
  return uniform_deployment(n, box, rng);
}

void BM_ProximityEdges(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = 1024.0;
  const Box2 box(side);
  const auto points = bench_points(n, side, 1);
  // A radius near the connectivity threshold: the interesting regime.
  const UnitDiskLinkModel link(critical_range<2>(points, box));
  for (auto _ : state) {
    auto edges = link_model_edges<2>(points, box, link);
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProximityEdges)->Arg(16)->Arg(64)->Arg(128)->Arg(512)->Arg(2048);

void BM_AnalyzeComponents(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = 1024.0;
  const Box2 box(side);
  const auto points = bench_points(n, side, 2);
  const UnitDiskLinkModel link(critical_range<2>(points, box) * 0.8);
  for (auto _ : state) {
    auto summary = analyze_link_components<2>(points, box, link);
    benchmark::DoNotOptimize(summary);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AnalyzeComponents)->Arg(16)->Arg(64)->Arg(128)->Arg(512)->Arg(2048);

void BM_EuclideanMst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = bench_points(n, 1024.0, 3);
  for (auto _ : state) {
    auto mst = euclidean_mst<2>(std::span<const Point2>(points));
    benchmark::DoNotOptimize(mst);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EuclideanMst)->Arg(16)->Arg(64)->Arg(128)->Arg(512);

void BM_LargestComponentCurve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Box2 box(1024.0);
  const auto points = bench_points(n, box.side(), 4);
  EmstEngine<2> engine;
  UnionFind dsu(n);
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  for (auto _ : state) {
    const LargestComponentCurve curve(n, engine.euclidean(points, box), dsu, scratch);
    benchmark::DoNotOptimize(curve);
  }
}
BENCHMARK(BM_LargestComponentCurve)->Arg(16)->Arg(64)->Arg(128)->Arg(512);

void BM_UnionFindSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::pair<std::size_t, std::size_t>> unions;
  unions.reserve(4 * n);
  for (std::size_t i = 0; i < 4 * n; ++i) {
    unions.emplace_back(rng.uniform_index(n), rng.uniform_index(n));
  }
  for (auto _ : state) {
    UnionFind dsu(n);
    for (const auto& [a, b] : unions) {
      if (a != b) dsu.unite(a, b);
    }
    benchmark::DoNotOptimize(dsu.largest_component_size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(unions.size()));
}
BENCHMARK(BM_UnionFindSweep)->Arg(128)->Arg(1024)->Arg(8192);

void BM_MobilityStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool drunkard = state.range(1) == 1;
  const double side = 4096.0;
  const Box2 box(side);
  Rng rng(6);
  auto positions = uniform_deployment(n, box, rng);
  const MobilityConfig config =
      drunkard ? MobilityConfig::paper_drunkard(side) : MobilityConfig::paper_waypoint(side);
  auto model = make_mobility_model<2>(config, box);
  model->initialize(positions, rng);
  for (auto _ : state) {
    model->step(positions, rng);
    benchmark::DoNotOptimize(positions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(drunkard ? "drunkard" : "waypoint");
}
BENCHMARK(BM_MobilityStep)->Args({64, 0})->Args({64, 1})->Args({1024, 0})->Args({1024, 1});

void BM_MobileTraceIteration(benchmark::State& state) {
  // One full mobile-simulation iteration at the paper's l = 4096 scale:
  // deploy, step, build a component curve per step.
  const std::size_t steps = static_cast<std::size_t>(state.range(0));
  const double side = 4096.0;
  const Box2 box(side);
  const std::size_t n = 64;
  std::uint64_t seed = 7;
  for (auto _ : state) {
    Rng rng(seed++);
    auto model = make_mobility_model<2>(MobilityConfig::paper_waypoint(side), box);
    auto trace = run_mobile_trace<2>(n, box, steps, *model, rng);
    benchmark::DoNotOptimize(trace.range_for_time_fraction(1.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_MobileTraceIteration)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Contract-overhead check (ISSUE: "compiled to nothing in Release").
//
// The two benchmarks below run the same accumulation loop with and without a
// MANET_INVARIANT in the body. In Release / any NDEBUG build without
// MANET_SANITIZE, MANET_ENABLE_CONTRACTS is 0 and the macro expands to an
// unevaluated sizeof — the two benches must report identical times (the
// condition `acc >= 0.0` is never even computed). In contract-enabled builds
// they quantify the cost of one predicate per iteration.
// ---------------------------------------------------------------------------

void BM_PlainAccumulate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> values(n);
  for (double& v : values) v = rng.uniform();
  for (auto _ : state) {
    double acc = 0.0;
    for (double v : values) acc += v;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(MANET_ENABLE_CONTRACTS ? "contracts=on" : "contracts=off");
}
BENCHMARK(BM_PlainAccumulate)->Arg(4096)->Arg(65536);

void BM_ContractGuardedAccumulate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> values(n);
  for (double& v : values) v = rng.uniform();
  for (auto _ : state) {
    double acc = 0.0;
    for (double v : values) {
      acc += v;
      MANET_INVARIANT(acc >= 0.0);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(MANET_ENABLE_CONTRACTS ? "contracts=on" : "contracts=off");
}
BENCHMARK(BM_ContractGuardedAccumulate)->Arg(4096)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
