// Allocation discipline of the mobile hot path: after warm-up, one mobility
// step must cost O(1) heap allocations — the exact-size breakpoint copy each
// step's curve retains, plus nothing that scales with n. Verified by
// replacing the global allocation functions with counting wrappers and
// differencing two traces of different lengths, which cancels the per-trace
// fixed cost (deployment, model setup, final trace aggregation).
//
// This test lives in its own binary because the counting operator new is
// global to the process.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point_store.hpp"
#include "mobility/factory.hpp"
#include "sim/deployment.hpp"
#include "sim/mobile_trace.hpp"
#include "sim/trace_workspace.hpp"
#include "support/rng.hpp"
#include "topology/emst_grid.hpp"
#include "topology/emst_kinetic.hpp"

namespace {

// Single-threaded test binary: a plain counter is enough.
std::size_t g_news = 0;
bool g_counting = false;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_news;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) { return counted_alloc(size); }
void* operator new[](std::size_t size, std::align_val_t) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace manet {
namespace {

std::size_t count_trace_allocations(std::size_t n, const Box2& box, std::size_t steps,
                                    TraceWorkspace<2>& workspace) {
  const MobilityConfig config = MobilityConfig::paper_waypoint(box.side());
  const auto model = make_mobility_model<2>(config, box);
  Rng rng(0xA110Cull);
  g_news = 0;
  g_counting = true;
  const auto trace = run_mobile_trace<2>(n, box, steps, *model, rng, &workspace);
  g_counting = false;
  EXPECT_EQ(trace.steps(), steps);
  return g_news;
}

/// Differences the allocations of two warm traces of n nodes in `box`: one
/// step must cost about one allocation.
void expect_constant_allocation_per_step(std::size_t n, const Box2& box) {
  constexpr std::size_t kShort = 60;
  constexpr std::size_t kLong = 180;

  TraceWorkspace<2> workspace;
  // Warm-up: grows every pooled buffer (grid bins, candidate edges, DSU,
  // breakpoint scratch) to steady-state capacity. Both lengths run once:
  // the candidate count and the grid radius of a step depend on the
  // positions, so each length's first run can grow a pooled buffer a few
  // times before capacities cover its whole trajectory.
  count_trace_allocations(n, box, kLong, workspace);
  count_trace_allocations(n, box, kShort, workspace);

  const std::size_t short_allocs = count_trace_allocations(n, box, kShort, workspace);
  const std::size_t long_allocs = count_trace_allocations(n, box, kLong, workspace);

  ASSERT_GT(long_allocs, short_allocs);
  const std::size_t delta_steps = kLong - kShort;
  const double per_step =
      static_cast<double>(long_allocs - short_allocs) / static_cast<double>(delta_steps);
  // Each step retains exactly one allocation (the curve's breakpoint buffer);
  // everything else is pooled, and the final trace aggregation makes a fixed
  // number of allocations (TraceBuildAllocationsDoNotGrowWithEvents), so the
  // per-step average must stay close to 1 — and far below the O(n) per step
  // that per-step buffer churn would cost.
  EXPECT_LE(per_step, 3.0) << "long=" << long_allocs << " short=" << short_allocs;
  EXPECT_GE(per_step, 1.0);
}

TEST(AllocDiscipline, MobileTraceStepLoopIsConstantAllocationPerStep) {
  // n above EmstEngine::kDenseCutoff so the grid path (grid rebuild,
  // candidate collection, Kruskal) is what's being measured.
  const std::size_t n = 1000;
  static_assert(n >= EmstEngine<2>::kDenseCutoff);
  expect_constant_allocation_per_step(n, Box2(32.0));
}

TEST(AllocDiscipline, DenseTraceStepLoopIsConstantAllocationPerStep) {
  // The paper's largest figure shape: the dense path, whose curve comes from
  // the Prim order through the pooled run stack and span keys.
  const std::size_t n = 128;
  static_assert(EmstEngine<2>::dense_path(n));
  expect_constant_allocation_per_step(n, Box2(16384.0));
}

std::size_t count_trace_build_allocations(const LargestComponentCurve& curve, std::size_t steps) {
  std::vector<LargestComponentCurve> curves(steps, curve);
  g_news = 0;
  g_counting = true;
  const MobileConnectivityTrace trace(curve.node_count(), std::move(curves));
  g_counting = false;
  EXPECT_EQ(trace.steps(), steps);
  return g_news;
}

TEST(AllocDiscipline, TraceBuildAllocationsDoNotGrowWithEvents) {
  // Aggregating the step curves into a trace keeps fixed-size summaries (the
  // critical-radius timeline, its sorted copy, one delta histogram): no
  // buffer grows by push_back with the number of breakpoints.
  const std::size_t n = 64;
  std::vector<Point2> points;
  Rng rng(0xC0DE);
  uniform_deployment(n, Box2(16.0), rng, points);
  EmstEngine<2> engine;
  const auto tree = engine.euclidean(points, Box2(16.0));
  UnionFind dsu(n);
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  const LargestComponentCurve curve(n, tree, dsu, scratch);
  ASSERT_GT(curve.breakpoints().size(), 2u);

  const std::size_t few = count_trace_build_allocations(curve, 100);
  const std::size_t many = count_trace_build_allocations(curve, 10'000);
  EXPECT_EQ(few, many);
}

/// Steps `model` through `warm` solves of `engine`, then counts the heap
/// allocations of `measured` more. Returns that count.
std::size_t count_warm_step_allocations(KineticEmstEngine<2>& engine, MobilityModel<2>& model,
                                        std::vector<Point2>& positions, const Box2& box,
                                        Rng& rng, int warm, int measured) {
  engine.start(positions, box);
  for (int s = 0; s < warm; ++s) {
    model.step(positions, rng);
    engine.advance(positions);
  }
  g_news = 0;
  g_counting = true;
  for (int s = 0; s < measured; ++s) {
    model.step(positions, rng);
    engine.advance(positions);
  }
  g_counting = false;
  return g_news;
}

TEST(AllocDiscipline, KineticAdvanceMakesZeroSteadyStateAllocations) {
  // A warm trace step on the grid path (the trace engine's advance(): grid
  // rebuild, candidate collection, sort, Kruskal) must perform ZERO heap
  // allocations: the grid bins, candidate buffer, forest and tree keep their
  // capacity, and the sort's scatter buffer is the thread's.
  const std::size_t n = 1024;
  static_assert(n >= EmstEngine<2>::kDenseCutoff);
  const double side = 64.0;
  const Box2 box(side);
  MobilityConfig config = MobilityConfig::paper_waypoint(side);
  config.waypoint.p_stationary = 0.5;
  const auto model = make_mobility_model<2>(config, box);
  Rng rng(0xA110C2ull);
  auto positions = uniform_deployment(n, box, rng);
  model->initialize(positions, rng);

  KineticEmstEngine<2> engine;
  const std::size_t news =
      count_warm_step_allocations(engine, *model, positions, box, rng, 200, 200);
  EXPECT_EQ(news, 0u) << "a warm grid-path step touched the heap";
  EXPECT_FALSE(engine.stats().dense_mode);
  EXPECT_EQ(engine.stats().full_rebuilds, 401u);
}

TEST(AllocDiscipline, PaperDrunkardWindowAtN1024MakesZeroAllocations) {
  // The paper's drunkard in the Figure 3 shape n = sqrt(l) at n = 1024
  // (l = 2^20), the first such size on the grid path: most nodes move every
  // step, and the candidate count of a step varies with the positions. A
  // fresh window after the start-up transient must not touch the heap.
  const std::size_t n = 1024;
  static_assert(n >= EmstEngine<2>::kDenseCutoff);
  const double side = 1048576.0;
  const Box2 box(side);
  Rng rng(0xA110C5ull);
  const auto drunkard = make_mobility_model<2>(MobilityConfig::paper_drunkard(side), box);
  auto walkers = uniform_deployment(n, box, rng);
  drunkard->initialize(walkers, rng);

  KineticEmstEngine<2> engine;
  const std::size_t news =
      count_warm_step_allocations(engine, *drunkard, walkers, box, rng, 1000, 500);
  EXPECT_EQ(news, 0u) << "a warm paper-drunkard step touched the heap";
  EXPECT_FALSE(engine.stats().dense_mode);
}

TEST(AllocDiscipline, WarmDenseSolvesMakeZeroAllocations) {
  // The dense path serves every keys-only solve below kDenseCutoff (every
  // paper-figure step, the stationary critical range): its fringes and key
  // buffer are pooled, so warm prim_order_keys solves at the largest dense
  // size, of one set and of a trace's batch, must not touch the heap.
  const std::size_t n = EmstEngine<2>::kDenseCutoff - 1;
  const double side = 16384.0;
  const Box2 box(side);
  const auto model = make_mobility_model<2>(MobilityConfig::paper_drunkard(side), box);
  Rng rng(0xA110C4ull);
  auto positions = uniform_deployment(n, box, rng);
  model->initialize(positions, rng);
  std::array<std::vector<Point2>, EmstEngine<2>::kPrimBatch> steps;
  std::array<std::span<const Point2>, EmstEngine<2>::kPrimBatch> batch;
  for (std::size_t j = 0; j < steps.size(); ++j) {
    model->step(positions, rng);
    steps[j] = positions;
    batch[j] = steps[j];
  }

  EmstEngine<2> engine;
  const auto solve = [&] {
    std::size_t keys = engine.prim_order_keys<1>({batch[0]})[0].size();
    for (const auto set : engine.prim_order_keys(batch)) keys += set.size();
    return keys;
  };
  for (int s = 0; s < 20; ++s) solve();
  g_news = 0;
  g_counting = true;
  std::size_t keys = 0;
  for (int s = 0; s < 50; ++s) keys += solve();
  g_counting = false;
  EXPECT_EQ(g_news, 0u) << "a warm dense solve touched the heap";
  EXPECT_TRUE(engine.stats().dense_fallback);
  EXPECT_EQ(keys, 50u * (1 + batch.size()) * (n - 1));
}

TEST(AllocDiscipline, WarmPointStoreOperationsNeverTouchTheHeap) {
  // The SoA bridge feeds every warm step (the dense-Prim fringe, the grid's
  // slot coordinates, waypoint scratch), so its whole surface — assign,
  // gather, scatter, resize within capacity — must be allocation-free once
  // capacity has grown.
  const std::size_t n = 512;
  Rng rng(0xA110C3ull);
  const Box2 box(64.0);
  auto points = uniform_deployment(n, box, rng);
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = n - 1 - i;

  PointStore<2> a, b;
  a.reserve(n);
  b.reserve(n);

  g_news = 0;
  g_counting = true;
  for (int round = 0; round < 50; ++round) {
    a.assign(points);
    b.assign_gather(points, ids);
    b.clear();
    b.resize(n);
    b.scatter_to(points);
  }
  g_counting = false;
  EXPECT_EQ(g_news, 0u) << "a warm PointStore operation touched the heap";
}

TEST(AllocDiscipline, RepeatedTracesOnWarmWorkspaceStayBounded) {
  const std::size_t n = 160;
  const Box2 box(32.0);
  TraceWorkspace<2> workspace;
  count_trace_allocations(n, box, 100, workspace);  // warm-up

  const std::size_t first = count_trace_allocations(n, box, 100, workspace);
  const std::size_t second = count_trace_allocations(n, box, 100, workspace);
  // A warm workspace makes repeat traces allocation-stable: no monotone
  // growth, no cold-start spike.
  EXPECT_LE(second, first + 8);
  EXPECT_LE(first, second + 8);
}

}  // namespace
}  // namespace manet
