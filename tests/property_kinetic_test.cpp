// Adversarial property tests for the kinetic EMST engine: degenerate motion
// patterns that stress the engine's bookkeeping rather than its throughput —
// a node parked exactly on a cell boundary, whole-population teleports, the
// dense-fallback handoff around kDenseCutoff — plus the crash-safety
// guarantee: a campaign killed mid-run and resumed must still be
// bit-identical to an uninterrupted in-process sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/experiments.hpp"
#include "core/mtrm.hpp"
#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "sim/deployment.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topology/emst_grid.hpp"
#include "topology/emst_kinetic.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignRunner;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_trees_identical(std::span<const WeightedEdge> batch,
                            std::span<const WeightedEdge> kinetic, std::size_t step) {
  ASSERT_EQ(batch.size(), kinetic.size()) << "step " << step;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].u, kinetic[i].u) << "step " << step << " edge " << i;
    EXPECT_EQ(batch[i].v, kinetic[i].v) << "step " << step << " edge " << i;
    EXPECT_TRUE(bits_equal(batch[i].weight, kinetic[i].weight))
        << "step " << step << " edge " << i;
  }
}

TEST(PropertyKinetic, NodeOscillatingOnExactCellBoundary) {
  // One node hops between EXACTLY representable coordinates — 8.0, 16.0
  // and 24.0, cell boundaries whenever the cell width divides 8 (this
  // deployment's grid has 15 cells of width 4.0 on side 60) and round binary
  // values regardless — while the bulk jiggles. The dangerous case is the
  // boundary value itself: the kinetic cell assignment must place it in the
  // same cell as a fresh CellGrid rebuild would, every time it lands there,
  // or candidate edges silently go missing. n is above kDenseCutoff, so the
  // kinetic repair (not the dense delegate) serves every step.
  const double side = 60.0;
  const Box2 box(side);
  Rng rng(71);
  auto positions = uniform_deployment(160, box, rng);
  positions[0] = {{16.0, 16.0}};

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  ASSERT_FALSE(kinetic.stats().dense_mode);

  const double cycle[6] = {8.0, 16.0, 24.0, 16.0, 8.0, 16.0};
  for (std::size_t s = 1; s <= 60; ++s) {
    positions[0] = {{cycle[s % 6], cycle[(s + 2) % 6]}};
    for (std::size_t j = 1; j < positions.size(); j += 7) {
      positions[j].coords[0] =
          std::clamp(positions[j].coords[0] + rng.uniform(-0.25, 0.25), 0.0, side);
    }
    expect_trees_identical(batch.euclidean(positions, box), kinetic.advance(positions), s);
  }
  EXPECT_GT(kinetic.stats().boundary_crossings, 0u)
      << "the oscillating node never changed cells — the scenario lost its point";
}

TEST(PropertyKinetic, AllNodesTeleportEveryStep) {
  // Whole-population reflection p -> side - p: every node moves a
  // teleport-scale distance every step, which must route through the
  // mass-move rebuild — and produce batch-identical trees throughout.
  const double side = 80.0;
  const Box2 box(side);
  Rng rng(73);
  auto positions = uniform_deployment(150, box, rng);

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);

  for (std::size_t s = 1; s <= 20; ++s) {
    for (auto& p : positions) {
      p.coords[0] = side - p.coords[0];
      p.coords[1] = side - p.coords[1];
    }
    expect_trees_identical(batch.euclidean(positions, box), kinetic.advance(positions), s);
    EXPECT_EQ(kinetic.stats().mass_move_rebuilds, s) << "teleport step took the wrong path";
  }
}

TEST(PropertyKinetic, DenseFallbackHandoffAroundCutoff) {
  // n straddling kDenseCutoff: below it the kinetic engine must hand every
  // call to the embedded batch engine (dense_mode), at and above it the
  // incremental path takes over — with identical results on both sides.
  static_assert(KineticEmstEngine<2>::kDenseCutoff == EmstEngine<2>::kDenseCutoff);
  const double side = 64.0;
  const Box2 box(side);
  constexpr std::size_t kCutoff = KineticEmstEngine<2>::kDenseCutoff;
  for (const std::size_t n : {std::size_t{8}, kCutoff - 1, kCutoff, kCutoff + 1}) {
    Rng rng(74 + n);
    auto positions = uniform_deployment(n, box, rng);

    EmstEngine<2> batch;
    KineticEmstEngine<2> kinetic;
    expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
    EXPECT_EQ(kinetic.stats().dense_mode, n < KineticEmstEngine<2>::kDenseCutoff) << "n=" << n;

    for (std::size_t s = 1; s <= 30; ++s) {
      for (auto& p : positions) {
        p.coords[0] = std::clamp(p.coords[0] + rng.uniform(-2.0, 2.0), 0.0, side);
        p.coords[1] = std::clamp(p.coords[1] + rng.uniform(-2.0, 2.0), 0.0, side);
      }
      expect_trees_identical(batch.euclidean(positions, box), kinetic.advance(positions), s);
    }
  }
}

// --- kill / resume through the kinetic path --------------------------------
// Reuses the campaign test machinery (tests/campaign_test.cpp): a campaign
// killed mid-run, then resumed, must be bit-identical to the uninterrupted
// in-process sweep (no campaign at all) — every unit's trace runs the
// kinetic engine, which carries state across steps, so a resumed unit must
// re-derive it from its substream alone.

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> flatten_all(const std::vector<MtrmResult>& results) {
  std::vector<double> values;
  for (const MtrmResult& result : results) {
    const auto flat = flatten_mtrm_result(result);
    values.insert(values.end(), flat.begin(), flat.end());
  }
  return values;
}

struct CampaignDirs {
  explicit CampaignDirs(const std::string& tag)
      : root(std::filesystem::path(::testing::TempDir()) / ("property_kinetic_" + tag)) {
    std::filesystem::remove_all(root);
    campaign_dir = (root / "campaign").string();
    store_dir = (root / "store").string();
  }
  ~CampaignDirs() { std::filesystem::remove_all(root); }

  CampaignOptions options() const {
    CampaignOptions opts;
    opts.dir = campaign_dir;
    opts.store_dir = store_dir;
    opts.quiet = true;
    return opts;
  }

  std::filesystem::path root;
  std::string campaign_dir;
  std::string store_dir;
};

struct KillHookGuard {
  ~KillHookGuard() { campaign::detail::set_kill_hook({}); }
};
struct ParallelismGuard {
  ~ParallelismGuard() { set_max_parallelism(0); }
};
struct KillSignal {};

TEST(PropertyKinetic, KilledAndResumedKineticCampaignMatchesBatchRun) {
  const std::vector<MtrmConfig> configs = {
      experiments::waypoint_experiment(256.0, Preset::kQuick),
      experiments::drunkard_experiment(256.0, Preset::kQuick)};
  constexpr std::uint64_t kSeed = 20020623;

  // Reference: uninterrupted, no campaign.
  const auto expected = flatten_all(experiments::solve_mtrm_sweep(configs, kSeed));

  // Count the campaign's units so the kill lands mid-run.
  CampaignDirs reference_dirs("unit_count");
  CampaignRunner reference("tiny", reference_dirs.options());
  const auto uninterrupted = experiments::solve_mtrm_sweep(configs, kSeed, &reference);
  EXPECT_TRUE(bit_identical(expected, flatten_all(uninterrupted)))
      << "campaign diverged from the in-process sweep even without a kill";
  const std::size_t units_total = reference.report().units_total;
  ASSERT_GE(units_total, 4u);

  // Kill halfway (serial execution makes the kill point exact), then resume
  // and compare against the uninterrupted reference.
  const ParallelismGuard parallelism_guard;
  set_max_parallelism(1);
  const KillHookGuard hook_guard;
  campaign::detail::set_kill_hook([] { throw KillSignal{}; });

  CampaignDirs dirs("kill_resume");
  const std::size_t kill_after = units_total / 2;
  CampaignOptions kill_options = dirs.options();
  kill_options.kill_after = kill_after;
  kill_options.checkpoint_every = 1;
  CampaignRunner killed("tiny", kill_options);
  EXPECT_THROW(experiments::solve_mtrm_sweep(configs, kSeed, &killed), KillSignal);

  campaign::detail::set_kill_hook({});
  CampaignOptions resume_options = dirs.options();
  resume_options.resume = true;
  CampaignRunner resumed("tiny", resume_options);
  const auto results = experiments::solve_mtrm_sweep(configs, kSeed, &resumed);

  EXPECT_TRUE(bit_identical(expected, flatten_all(results)));
  EXPECT_EQ(resumed.report().cache_hits, kill_after);
  EXPECT_EQ(resumed.report().executed, units_total - kill_after);
}

}  // namespace
}  // namespace manet
