// End-to-end tests of the distributed drain (src/service/drain.hpp): N
// workers sharing one campaign + store must merge to results — and a
// result.json — byte-identical to the single-process CampaignRunner,
// including when a worker is hard-killed mid-unit and its dangling lease
// has to be stolen on resume. Workers here are threads (the lease protocol
// is pure filesystem, so thread vs process only changes who owns the fds);
// scripts/distributed_smoke.sh runs the same drill with real processes.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/experiments.hpp"
#include "core/mtrm.hpp"
#include "service/drain.hpp"
#include "service/lease.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/parallel.hpp"

namespace manet {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignRunner;
using service::DistributedCampaignRunner;
using service::DrainOptions;

constexpr std::uint64_t kSeed = 20020623;

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> flatten_all(const std::vector<MtrmResult>& results) {
  std::vector<double> values;
  for (const MtrmResult& result : results) {
    const auto flat = flatten_mtrm_result(result);
    values.insert(values.end(), flat.begin(), flat.end());
  }
  return values;
}

/// Fresh scratch directories per test, wiped on entry so reruns start clean.
struct DrainDirs {
  explicit DrainDirs(const std::string& tag)
      : root(std::filesystem::path(::testing::TempDir()) / ("drain_test_" + tag)) {
    std::filesystem::remove_all(root);
    campaign_dir = (root / "campaign").string();
    store_dir = (root / "store").string();
  }
  ~DrainDirs() { std::filesystem::remove_all(root); }

  CampaignOptions campaign_options() const {
    CampaignOptions opts;
    opts.dir = campaign_dir;
    opts.store_dir = store_dir;
    opts.quiet = true;
    return opts;
  }

  DrainOptions drain_options(const std::string& worker) const {
    DrainOptions opts;
    opts.campaign = campaign_options();
    opts.worker = worker;
    opts.poll_seconds = 0.01;
    return opts;
  }

  std::filesystem::path result_path() const {
    return std::filesystem::path(campaign_dir) / "result.json";
  }

  std::filesystem::path root;
  std::string campaign_dir;
  std::string store_dir;
};

std::vector<MtrmConfig> tiny_sweep() {
  return {experiments::waypoint_experiment(256.0, Preset::kQuick),
          experiments::drunkard_experiment(256.0, Preset::kQuick)};
}

/// Restores the default kill behavior / thread count on scope exit even if
/// an assertion fails mid-test.
struct KillHookGuard {
  ~KillHookGuard() { campaign::detail::set_kill_hook({}); }
};
struct ParallelismGuard {
  ~ParallelismGuard() { set_max_parallelism(0); }
};

/// The exception our test kill hook throws in place of std::_Exit.
struct KillSignal {};

/// The single-process reference: runs the campaign with CampaignRunner in
/// its own directory pair and returns (results, result.json bytes).
std::pair<std::vector<MtrmResult>, std::string> reference_run(
    const std::vector<MtrmConfig>& configs, const std::string& tag) {
  DrainDirs dirs(tag);
  CampaignRunner runner("drain_test", dirs.campaign_options());
  auto results = experiments::solve_mtrm_sweep(configs, kSeed, &runner);
  std::string bytes = read_text_file(dirs.result_path());
  return {std::move(results), std::move(bytes)};
}

TEST(DistributedDrain, ValidatesOptions) {
  const DrainDirs dirs("validate");
  DrainOptions missing_worker = dirs.drain_options("");
  EXPECT_THROW(DistributedCampaignRunner("drain_test", missing_worker), ConfigError);

  DrainOptions bad_ttl = dirs.drain_options("w0");
  bad_ttl.lease_ttl_seconds = 0.0;
  EXPECT_THROW(DistributedCampaignRunner("drain_test", bad_ttl), ConfigError);

  DrainOptions bad_poll = dirs.drain_options("w0");
  bad_poll.poll_seconds = -0.5;
  EXPECT_THROW(DistributedCampaignRunner("drain_test", bad_poll), ConfigError);

  // A non-positive stall horizon would fire "campaign looks wedged" on the
  // very first idle pass — reject it up front like the TTL and poll knobs.
  DrainOptions bad_max_wait = dirs.drain_options("w0");
  bad_max_wait.max_wait_seconds = 0.0;
  EXPECT_THROW(DistributedCampaignRunner("drain_test", bad_max_wait), ConfigError);

  // Non-finite or huge horizons: the idle sleep converts the poll to time_t,
  // which is undefined past its range, so each is a ConfigError up front.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, nan, 1e300}) {
    SCOPED_TRACE(::testing::Message() << "value=" << bad);
    if (!std::isfinite(bad)) {  // a huge finite TTL only means "never steal"
      DrainOptions ttl = dirs.drain_options("w0");
      ttl.lease_ttl_seconds = bad;
      EXPECT_THROW(DistributedCampaignRunner("drain_test", ttl), ConfigError);
    }
    DrainOptions poll = dirs.drain_options("w0");
    poll.poll_seconds = bad;
    EXPECT_THROW(DistributedCampaignRunner("drain_test", poll), ConfigError);
    DrainOptions max_wait = dirs.drain_options("w0");
    max_wait.max_wait_seconds = bad;
    EXPECT_THROW(DistributedCampaignRunner("drain_test", max_wait), ConfigError);
  }

  // A poll longer than the stall horizon could only end the drain by
  // timing out after one full sleep.
  DrainOptions poll_past_max_wait = dirs.drain_options("w0");
  poll_past_max_wait.poll_seconds = 2.0;
  poll_past_max_wait.max_wait_seconds = 1.0;
  EXPECT_THROW(DistributedCampaignRunner("drain_test", poll_past_max_wait), ConfigError);

  DrainOptions at_limits = dirs.drain_options("w0");
  at_limits.max_wait_seconds = DrainOptions::kMaxWaitLimit;
  at_limits.poll_seconds = at_limits.max_wait_seconds;
  EXPECT_NO_THROW(DistributedCampaignRunner("drain_test", at_limits));
}

TEST(DistributedDrain, SingleWorkerMatchesSingleProcessByteIdentical) {
  const auto configs = tiny_sweep();
  const auto [expected, expected_bytes] = reference_run(configs, "single_ref");

  const DrainDirs dirs("single");
  DistributedCampaignRunner worker("drain_test", dirs.drain_options("w0"));
  const auto results = experiments::solve_mtrm_sweep(configs, kSeed, &worker);

  EXPECT_TRUE(bit_identical(flatten_all(expected), flatten_all(results)));
  EXPECT_EQ(read_text_file(dirs.result_path()), expected_bytes);
  EXPECT_EQ(worker.report().executed, worker.report().units_total);
  EXPECT_EQ(worker.report().store_hits, 0u);
}

TEST(DistributedDrain, FourWorkersMergeByteIdenticalToSingleProcess) {
  const auto configs = tiny_sweep();
  const auto [expected, expected_bytes] = reference_run(configs, "four_ref");
  const auto expected_flat = flatten_all(expected);

  const DrainDirs dirs("four");
  constexpr std::size_t kWorkers = 4;

  std::vector<std::unique_ptr<DistributedCampaignRunner>> workers;
  workers.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<DistributedCampaignRunner>(
        "drain_test", dirs.drain_options("w" + std::to_string(w))));
  }

  std::vector<std::vector<MtrmResult>> all_results(kWorkers);
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      all_results[w] = experiments::solve_mtrm_sweep(configs, kSeed, workers[w].get());
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every worker returns the merged sweep, and every one matches the
  // single-process reference bitwise — as does the shared result.json.
  std::size_t executed_total = 0;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(bit_identical(expected_flat, flatten_all(all_results[w]))) << "worker " << w;
    const auto& report = workers[w]->report();
    EXPECT_EQ(report.store_hits + report.executed + report.stolen, report.units_total)
        << "worker " << w;
    executed_total += report.executed + report.stolen;
  }
  // Leases keep duplicated execution rare, but only determinism makes it
  // safe — so the partition can exceed units_total, never undershoot it.
  EXPECT_GE(executed_total, workers[0]->report().units_total);
  EXPECT_EQ(read_text_file(dirs.result_path()), expected_bytes);
}

TEST(DistributedDrain, KilledWorkerLeavesDanglingLeaseAndResumeSteals) {
  const auto configs = tiny_sweep();
  const auto [expected, expected_bytes] = reference_run(configs, "kill_ref");

  const ParallelismGuard parallelism_guard;
  set_max_parallelism(1);
  const KillHookGuard hook_guard;
  campaign::detail::set_kill_hook([] { throw KillSignal{}; });

  const DrainDirs dirs("kill");
  DrainOptions killed_options = dirs.drain_options("victim");
  killed_options.campaign.kill_after = 1;
  DistributedCampaignRunner victim("drain_test", killed_options);
  EXPECT_THROW(experiments::solve_mtrm_sweep(configs, kSeed, &victim), KillSignal);

  // The kill fires *before* the unit is persisted, so the claim survives as
  // a dangling lease — the worst crash the protocol must absorb.
  const std::filesystem::path claims = std::filesystem::path(dirs.store_dir) / "claims";
  std::vector<std::filesystem::path> leases;
  for (const auto& entry : std::filesystem::directory_iterator(claims)) {
    leases.push_back(entry.path());
  }
  ASSERT_EQ(leases.size(), 1u);

  // Rewind the lease's heartbeat so the resuming worker sees it stale now
  // instead of waiting out a real TTL.
  std::filesystem::last_write_time(
      leases.front(), std::filesystem::file_time_type::clock::now() - std::chrono::hours(2));

  DistributedCampaignRunner rescuer("drain_test", dirs.drain_options("rescuer"));
  const auto results = experiments::solve_mtrm_sweep(configs, kSeed, &rescuer);

  EXPECT_TRUE(bit_identical(flatten_all(expected), flatten_all(results)));
  EXPECT_EQ(read_text_file(dirs.result_path()), expected_bytes);
  EXPECT_EQ(rescuer.report().stolen, 1u);
  EXPECT_EQ(rescuer.report().store_hits, 0u);
}

TEST(DistributedDrain, WedgedCampaignTimesOutWithConfigError) {
  const auto configs = tiny_sweep();

  const ParallelismGuard parallelism_guard;
  set_max_parallelism(1);
  const KillHookGuard hook_guard;
  campaign::detail::set_kill_hook([] { throw KillSignal{}; });

  const DrainDirs dirs("wedged");
  DrainOptions killed_options = dirs.drain_options("victim");
  killed_options.campaign.kill_after = 1;
  DistributedCampaignRunner victim("drain_test", killed_options);
  EXPECT_THROW(experiments::solve_mtrm_sweep(configs, kSeed, &victim), KillSignal);

  // The dangling lease stays fresh (nobody rewinds it) and the TTL is huge,
  // so the second worker finishes everything else, then can only wait — and
  // must give up after max_wait_seconds instead of spinning forever.
  DrainOptions stuck_options = dirs.drain_options("stuck");
  stuck_options.lease_ttl_seconds = 3600.0;
  stuck_options.poll_seconds = 0.01;
  stuck_options.max_wait_seconds = 0.1;
  DistributedCampaignRunner stuck("drain_test", stuck_options);
  EXPECT_THROW(experiments::solve_mtrm_sweep(configs, kSeed, &stuck), ConfigError);
  EXPECT_GT(stuck.report().idle_polls, 0u);
}

TEST(DistributedDrain, SecondRunIsServedEntirelyFromStore) {
  const auto configs = tiny_sweep();

  const DrainDirs dirs("cached");
  DistributedCampaignRunner first("drain_test", dirs.drain_options("w0"));
  const auto first_results = experiments::solve_mtrm_sweep(configs, kSeed, &first);

  DrainOptions resume_options = dirs.drain_options("w1");
  resume_options.campaign.resume = true;
  DistributedCampaignRunner second("drain_test", resume_options);
  const auto second_results = experiments::solve_mtrm_sweep(configs, kSeed, &second);

  EXPECT_TRUE(bit_identical(flatten_all(first_results), flatten_all(second_results)));
  EXPECT_EQ(second.report().executed, 0u);
  EXPECT_EQ(second.report().store_hits, second.report().units_total);
}

TEST(DistributedDrain, ResumeRejectsForeignManifest) {
  const auto configs = tiny_sweep();

  const DrainDirs dirs("foreign");
  DistributedCampaignRunner first("drain_test", dirs.drain_options("w0"));
  (void)experiments::solve_mtrm_sweep(configs, kSeed, &first);

  // Same directories, different campaign identity (other seed) — resume
  // must refuse rather than mix sweeps.
  DrainOptions resume_options = dirs.drain_options("w1");
  resume_options.campaign.resume = true;
  DistributedCampaignRunner second("drain_test", resume_options);
  EXPECT_THROW(experiments::solve_mtrm_sweep(configs, kSeed + 1, &second), ConfigError);
}

}  // namespace
}  // namespace manet
