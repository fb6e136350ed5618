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

TEST(AllocDiscipline, MobileTraceStepLoopIsConstantAllocationPerStep) {
  // n above EmstEngine::kDenseCutoff so the grid path (grid rebuild,
  // candidate collection, Kruskal) is what's being measured.
  const std::size_t n = 160;
  static_assert(160 >= EmstEngine<2>::kDenseCutoff);
  const Box2 box(32.0);
  constexpr std::size_t kShort = 60;
  constexpr std::size_t kLong = 180;

  TraceWorkspace<2> workspace;
  // Warm-up: grows every pooled buffer (grid bins, candidate edges, DSU,
  // breakpoint scratch, merge-event scratch) to steady-state capacity. Both
  // lengths run once — the rare fallback steps (radius growth/shrink
  // rebuilds) regrid at radii that depend on where in the trajectory the
  // trace ends, so each length's first run can grow a pooled bin vector a
  // few times before capacities cover its whole trajectory.
  count_trace_allocations(n, box, kLong, workspace);
  count_trace_allocations(n, box, kShort, workspace);

  const std::size_t short_allocs = count_trace_allocations(n, box, kShort, workspace);
  const std::size_t long_allocs = count_trace_allocations(n, box, kLong, workspace);

  ASSERT_GT(long_allocs, short_allocs);
  const std::size_t delta_steps = kLong - kShort;
  const double per_step =
      static_cast<double>(long_allocs - short_allocs) / static_cast<double>(delta_steps);
  // Each step retains exactly one allocation (the curve's breakpoint buffer);
  // everything else is pooled. Amortized vector growth in the final trace
  // aggregation adds a logarithmic number of extra allocations, so the
  // per-step average must stay close to 1 — and far below the O(n) per step
  // (~160 here) that per-step buffer churn would cost.
  EXPECT_LE(per_step, 3.0) << "long=" << long_allocs << " short=" << short_allocs;
  EXPECT_GE(per_step, 1.0);
}

TEST(AllocDiscipline, KineticAdvanceMakesZeroSteadyStateAllocations) {
  // The kinetic engine's discipline is stricter than the trace loop's: a
  // warm advance() — incremental repair, no fallback — must perform ZERO
  // heap allocations. Every buffer (grid lists, edge pool, merge scratch,
  // DSU, retained tree) is preallocated and reused; the merge goes through
  // the pooled merged_ buffer precisely because std::inplace_merge would
  // allocate here.
  const std::size_t n = 256;
  const double side = 64.0;
  const Box2 box(side);
  MobilityConfig config = MobilityConfig::paper_waypoint(side);
  config.waypoint.p_stationary = 0.5;  // incremental path, never mass-move
  const auto model = make_mobility_model<2>(config, box);
  Rng rng(0xA110C2ull);
  auto positions = uniform_deployment(n, box, rng);
  model->initialize(positions, rng);

  KineticEmstEngine<2> kinetic;
  kinetic.start(positions, box);
  // Warm-up: grow all pooled buffers past their steady-state high-water
  // marks (including a few radius-growth/shrink rebuilds if they happen).
  for (int s = 0; s < 200; ++s) {
    model->step(positions, rng);
    kinetic.advance(positions);
  }
  ASSERT_FALSE(kinetic.stats().dense_mode);
  const std::size_t repairs_before = kinetic.stats().incremental_repairs;

  g_news = 0;
  g_counting = true;
  for (int s = 0; s < 200; ++s) {
    model->step(positions, rng);
    kinetic.advance(positions);
  }
  g_counting = false;
  EXPECT_EQ(g_news, 0u) << "a warm kinetic advance() touched the heap";
  EXPECT_GT(kinetic.stats().incremental_repairs, repairs_before)
      << "measurement window never took the incremental path";

  // The paper's drunkard in the Figure 3 shape n = sqrt(l), at the first
  // such size the kinetic repair serves (n = 160, l = 25600): most nodes
  // move every step, so every advance scans many movers and grows the delta
  // buffer per mover, and radius-growth rebuilds interleave with the
  // repairs. Once warm, none of it may allocate.
  const std::size_t paper_n = 160;
  const double paper_side = 25600.0;
  static_assert(paper_n >= KineticEmstEngine<2>::kDenseCutoff);
  const Box2 paper_box(paper_side);
  const auto drunkard =
      make_mobility_model<2>(MobilityConfig::paper_drunkard(paper_side), paper_box);
  auto walkers = uniform_deployment(paper_n, paper_box, rng);
  drunkard->initialize(walkers, rng);
  KineticEmstEngine<2> paper_kinetic;
  paper_kinetic.start(walkers, paper_box);
  for (int s = 0; s < 1000; ++s) {
    drunkard->step(walkers, rng);
    paper_kinetic.advance(walkers);
  }
  ASSERT_FALSE(paper_kinetic.stats().dense_mode);
  const KineticStats warm = paper_kinetic.stats();

  g_news = 0;
  g_counting = true;
  std::size_t movers = 0;
  for (int s = 0; s < 500; ++s) {
    drunkard->step(walkers, rng);
    paper_kinetic.advance(walkers);
    movers += paper_kinetic.stats().last_moved;
  }
  g_counting = false;
  EXPECT_EQ(g_news, 0u) << "a warm paper-drunkard advance() touched the heap";
  EXPECT_GT(paper_kinetic.stats().incremental_repairs, warm.incremental_repairs);
  EXPECT_GT(movers, 500u * paper_n / 2) << "the trace should move most nodes every step";
}

TEST(AllocDiscipline, ReplayedPaperDrunkardWindowAtN256MakesZeroAllocations) {
  // The paper's drunkard at n = 256, l = 65536. At this shape a growth
  // rebuild with more candidates than any before it still grows the
  // candidate and sort buffers after thousands of steps (a known engine
  // item), so a fresh window is not guaranteed allocation-free. The window
  // is replayed instead: one pass over the same 500 positions from start()
  // warms the engine, and the second, identical pass must not touch the
  // heap. Any per-step churn allocates in the second pass as much as in the
  // first.
  const std::size_t paper_n = 256;
  const double paper_side = 65536.0;
  static_assert(paper_n >= KineticEmstEngine<2>::kDenseCutoff);
  const Box2 paper_box(paper_side);
  Rng rng(0xA110C5ull);
  const auto drunkard =
      make_mobility_model<2>(MobilityConfig::paper_drunkard(paper_side), paper_box);
  auto walkers = uniform_deployment(paper_n, paper_box, rng);
  drunkard->initialize(walkers, rng);
  for (int s = 0; s < 1000; ++s) drunkard->step(walkers, rng);  // past the start-up transient
  std::vector<std::vector<Point2>> window;
  for (int s = 0; s < 500; ++s) {
    drunkard->step(walkers, rng);
    window.push_back(walkers);
  }

  KineticEmstEngine<2> paper_kinetic;
  paper_kinetic.start(window[0], paper_box);
  for (std::size_t s = 1; s < window.size(); ++s) paper_kinetic.advance(window[s]);
  ASSERT_FALSE(paper_kinetic.stats().dense_mode);
  const KineticStats warm = paper_kinetic.stats();

  paper_kinetic.start(window[0], paper_box);
  g_news = 0;
  g_counting = true;
  std::size_t movers = 0;
  for (std::size_t s = 1; s < window.size(); ++s) {
    paper_kinetic.advance(window[s]);
    movers += paper_kinetic.stats().last_moved;
  }
  g_counting = false;
  EXPECT_EQ(g_news, 0u) << "a replayed paper-drunkard advance() touched the heap";
  EXPECT_GT(paper_kinetic.stats().incremental_repairs, 0u);
  EXPECT_EQ(paper_kinetic.stats().incremental_repairs, warm.incremental_repairs);
  EXPECT_GT(paper_kinetic.stats().radius_growths, 0u)
      << "the window should interleave growth rebuilds with the repairs";
  EXPECT_GT(movers, 499u * paper_n / 2) << "the trace should move most nodes every step";
}

TEST(AllocDiscipline, WarmDenseSolvesMakeZeroAllocations) {
  // The dense path serves every solve below kDenseCutoff (every paper-figure
  // size): its fringe, candidate buffer, sort scratch and tree are pooled,
  // so warm batch solves and warm dense-mode kinetic advances at the
  // largest dense size must not touch the heap.
  const std::size_t n = EmstEngine<2>::kDenseCutoff - 1;
  const double side = 16384.0;
  const Box2 box(side);
  const auto model = make_mobility_model<2>(MobilityConfig::paper_drunkard(side), box);
  Rng rng(0xA110C4ull);
  auto positions = uniform_deployment(n, box, rng);
  model->initialize(positions, rng);

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  kinetic.start(positions, box);
  ASSERT_TRUE(kinetic.stats().dense_mode);
  for (int s = 0; s < 20; ++s) {
    model->step(positions, rng);
    batch.euclidean(positions, box);
    kinetic.advance(positions);
  }

  g_news = 0;
  g_counting = true;
  std::size_t edges = 0;
  for (int s = 0; s < 200; ++s) {
    model->step(positions, rng);
    edges += batch.euclidean(positions, box).size();
    edges += kinetic.advance(positions).size();
  }
  g_counting = false;
  EXPECT_EQ(g_news, 0u) << "a warm dense solve touched the heap";
  EXPECT_TRUE(batch.stats().dense_fallback);
  EXPECT_EQ(edges, 2u * 200u * (n - 1));
}

TEST(AllocDiscipline, WarmPointStoreOperationsNeverTouchTheHeap) {
  // The SoA bridge feeds every warm step (kinetic snapshots, waypoint
  // scratch), so its whole surface — assign, both gathers, scatter, resize
  // within capacity, swap — must be allocation-free once capacity has grown.
  const std::size_t n = 512;
  Rng rng(0xA110C3ull);
  const Box2 box(64.0);
  auto points = uniform_deployment(n, box, rng);
  std::vector<std::size_t> ids(n);
  std::vector<std::uint32_t> ids32(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = n - 1 - i;
    ids32[i] = static_cast<std::uint32_t>(i / 2);
  }

  PointStore<2> a, b;
  a.reserve(n);
  b.reserve(n);

  g_news = 0;
  g_counting = true;
  for (int round = 0; round < 50; ++round) {
    a.assign(points);
    b.assign_gather(points, ids);
    b.assign_gather(a, std::span<const std::uint32_t>(ids32));
    b.clear();
    b.resize(n);
    swap(a, b);
    a.scatter_to(points);
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
