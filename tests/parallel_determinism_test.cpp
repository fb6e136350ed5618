// The parallel engine's headline guarantee, tested adversarially: every
// simulation result is BIT-IDENTICAL at any thread count — serial (1),
// 2 threads and 8 threads must agree to the last bit for MTRM, stationary
// sampling and Monte-Carlo threshold search, because trial substreams are
// pure functions of (seed, trial index) and reductions run in trial order
// (support/parallel.hpp). Run under the tsan preset these tests double as
// the race-detection workload of CI (`MANET_THREADS=8`).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/mtrm.hpp"
#include "core/paper_simulator.hpp"
#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "sim/stationary_sample.hpp"
#include "sim/threshold_search.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

/// Restores the process-wide thread-count override on scope exit so a
/// failing assertion cannot leak a parallelism setting into later tests.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t threads) { set_max_parallelism(threads); }
  ~ScopedThreads() { set_max_parallelism(0); }
};

const std::vector<std::size_t> kThreadCounts = {1, 2, 8};

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << a << " and " << b << " differ in bits";
}

MtrmConfig mtrm_config(bool drunkard) {
  MtrmConfig config;
  config.node_count = 16;
  config.side = 256.0;
  config.steps = 60;
  config.iterations = 6;
  config.mobility = drunkard ? MobilityConfig::paper_drunkard(config.side)
                             : MobilityConfig::paper_waypoint(config.side);
  return config;
}

std::vector<double> flatten(const MtrmResult& result) {
  std::vector<double> values;
  for (const RunningStats& stats : result.range_for_time) {
    values.push_back(stats.mean());
    values.push_back(stats.variance());
  }
  values.push_back(result.range_never_connected.mean());
  values.push_back(result.lcc_at_range_never.mean());
  for (const RunningStats& stats : result.range_for_component) values.push_back(stats.mean());
  for (const RunningStats& stats : result.lcc_at_range_for_time) values.push_back(stats.mean());
  for (const RunningStats& stats : result.min_lcc_at_range_for_time) {
    values.push_back(stats.mean());
  }
  values.push_back(result.mean_critical_range.mean());
  return values;
}

TEST(ParallelDeterminism, MtrmIsBitIdenticalAcrossThreadCounts) {
  for (bool drunkard : {false, true}) {
    std::vector<std::vector<double>> per_thread_count;
    for (std::size_t threads : kThreadCounts) {
      ScopedThreads scoped(threads);
      Rng rng(2002);
      per_thread_count.push_back(flatten(solve_mtrm<2>(mtrm_config(drunkard), rng)));
    }
    for (std::size_t i = 1; i < per_thread_count.size(); ++i) {
      ASSERT_EQ(per_thread_count[0].size(), per_thread_count[i].size());
      for (std::size_t v = 0; v < per_thread_count[0].size(); ++v) {
        EXPECT_TRUE(bits_equal(per_thread_count[0][v], per_thread_count[i][v]))
            << (drunkard ? "drunkard" : "waypoint") << " value " << v << " at "
            << kThreadCounts[i] << " threads";
      }
    }
  }
}

TEST(ParallelDeterminism, StationarySamplingIsBitIdenticalAcrossThreadCounts) {
  const Box2 box(512.0);
  std::vector<std::vector<double>> samples;
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads scoped(threads);
    Rng rng(777);
    const auto sample = sample_stationary_critical_ranges<2>(24, box, 64, rng);
    samples.emplace_back(sample.sorted_radii().begin(), sample.sorted_radii().end());
  }
  for (std::size_t i = 1; i < samples.size(); ++i) {
    ASSERT_EQ(samples[0].size(), samples[i].size());
    EXPECT_EQ(std::memcmp(samples[0].data(), samples[i].data(),
                          samples[0].size() * sizeof(double)),
              0)
        << "sample differs at " << kThreadCounts[i] << " threads";
  }
}

TEST(ParallelDeterminism, LinkModelSamplingIsBitIdenticalAcrossThreadCounts) {
  // The LinkModel seam's determinism contract (DESIGN.md §17): shadowing
  // fading and heterogeneous per-node ranges are keyed by pure-function
  // substreams, so the sampled critical-scale distribution is bit-identical
  // at any thread count — for every family, not just the unit disk.
  const Box2 box(256.0);
  for (const std::string& name : link_model_family_names()) {
    const auto family = make_link_model_family(name);
    std::vector<std::vector<double>> samples;
    for (std::size_t threads : kThreadCounts) {
      ScopedThreads scoped(threads);
      Rng rng(888);
      const auto sample = sample_link_model_critical_ranges<2>(20, box, 48, rng, *family);
      samples.emplace_back(sample.sorted_radii().begin(), sample.sorted_radii().end());
    }
    for (std::size_t i = 1; i < samples.size(); ++i) {
      ASSERT_EQ(samples[0].size(), samples[i].size());
      EXPECT_EQ(std::memcmp(samples[0].data(), samples[i].data(),
                            samples[0].size() * sizeof(double)),
                0)
          << name << " sample differs at " << kThreadCounts[i] << " threads";
    }
  }
}

TEST(ParallelDeterminism, LinkModelTradeoffIsBitIdenticalAcrossThreadCounts) {
  experiments::LinkModelTradeoffConfig config;
  config.node_count = 16;
  config.side = 256.0;
  config.trials = 32;

  std::vector<std::unique_ptr<LinkModelFamily>> owned;
  std::vector<const LinkModelFamily*> families;
  for (const std::string& name : link_model_family_names()) {
    owned.push_back(make_link_model_family(name));
    families.push_back(owned.back().get());
  }

  std::vector<std::vector<experiments::LinkModelTradeoffRow>> runs;
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads scoped(threads);
    runs.push_back(experiments::link_model_energy_tradeoff(config, families, 2002));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[0].size(), runs[i].size());
    for (std::size_t row = 0; row < runs[0].size(); ++row) {
      EXPECT_EQ(runs[0][row].model, runs[i][row].model);
      EXPECT_TRUE(bits_equal(runs[0][row].r_full, runs[i][row].r_full))
          << runs[0][row].model << " at " << kThreadCounts[i] << " threads";
      EXPECT_TRUE(bits_equal(runs[0][row].r_tolerant, runs[i][row].r_tolerant));
      EXPECT_TRUE(bits_equal(runs[0][row].mean_critical_range,
                             runs[i][row].mean_critical_range));
      EXPECT_TRUE(bits_equal(runs[0][row].energy_savings, runs[i][row].energy_savings));
    }
  }
}

TEST(ParallelDeterminism, McThresholdSearchIsBitIdenticalAcrossThreadCounts) {
  // The classical simulate-per-candidate-range search: the predicate is the
  // fraction of random 12-node deployments connected at r.
  const Box2 box(128.0);
  BisectionOptions options;
  options.lo = 0.0;
  options.hi = 128.0 * 1.5;
  options.tolerance = 1e-4;
  McPredicateOptions mc;
  mc.trials = 48;
  mc.seed = 4242;
  mc.target_mean = 0.9;
  const TrialStatistic connected_indicator = [&box](double range, std::size_t, Rng& rng) {
    const auto points = uniform_deployment(12, box, rng);
    return critical_range<2>(points, box) <= range ? 1.0 : 0.0;
  };

  std::vector<BisectionResult> results;
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads scoped(threads);
    results.push_back(bisect_min_range_mc(options, mc, connected_indicator));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(bits_equal(results[0].range, results[i].range))
        << "range differs at " << kThreadCounts[i] << " threads";
    EXPECT_EQ(results[0].evaluations, results[i].evaluations)
        << "evaluation count differs at " << kThreadCounts[i] << " threads";
  }
}

TEST(ParallelDeterminism, PaperSimulatorIsBitIdenticalAcrossThreadCounts) {
  PaperSimulatorInput input;
  input.r = 40.0;
  input.n = 20;
  input.l = 200.0;
  input.iterations = 5;
  input.steps = 30;
  input.mobility = MobilityConfig::paper_waypoint(input.l);

  std::vector<PaperSimulatorOutput> outputs;
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads scoped(threads);
    Rng rng(31337);
    outputs.push_back(run_paper_simulator<2>(input, rng));
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[0].per_iteration.size(), outputs[i].per_iteration.size());
    for (std::size_t it = 0; it < outputs[0].per_iteration.size(); ++it) {
      EXPECT_TRUE(bits_equal(outputs[0].per_iteration[it].connected_fraction,
                             outputs[i].per_iteration[it].connected_fraction));
      EXPECT_TRUE(bits_equal(outputs[0].per_iteration[it].mean_largest_when_disconnected,
                             outputs[i].per_iteration[it].mean_largest_when_disconnected));
    }
    EXPECT_TRUE(bits_equal(outputs[0].overall.connected_fraction,
                           outputs[i].overall.connected_fraction));
    EXPECT_TRUE(
        bits_equal(outputs[0].overall.min_largest, outputs[i].overall.min_largest));
  }
}

TEST(ParallelDeterminism, ParallelAdvancesCallerRngExactlyLikeSerial) {
  // The engine consumes exactly one draw from the caller's stream regardless
  // of thread count, so code after a solver sees the same stream state.
  std::vector<std::uint64_t> next_draws;
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads scoped(threads);
    Rng rng(5150);
    (void)solve_mtrm<2>(mtrm_config(false), rng);
    next_draws.push_back(rng.next_u64());
  }
  for (std::size_t i = 1; i < next_draws.size(); ++i) {
    EXPECT_EQ(next_draws[0], next_draws[i]);
  }
}

TEST(ParallelContention, ManyTinyTrialsWithThreadsFarAboveCores) {
  // Contention stress: thousands of near-empty trials over far more threads
  // than any test machine has cores. The result must still be the exact
  // serial fold, and nothing may deadlock under scheduler churn.
  const std::size_t trials = 4096;
  const std::uint64_t seed = 99;
  const auto tiny_trial = [](std::size_t trial, Rng& rng) {
    return rng.uniform() + static_cast<double>(trial) * 1e-9;
  };

  ParallelOptions serial;
  serial.threads = 1;
  const auto expected = parallel_for_trials(trials, seed, tiny_trial, serial);

  for (std::size_t threads : {16ul, 64ul}) {
    ParallelOptions stress;
    stress.threads = threads;
    const auto actual = parallel_for_trials(trials, seed, tiny_trial, stress);
    ASSERT_EQ(expected.size(), actual.size());
    EXPECT_EQ(std::memcmp(expected.data(), actual.data(), trials * sizeof(double)), 0)
        << "diverged at " << threads << " threads";
  }

  // Serial fold of an order-sensitive reduction, repeated under stress.
  const auto noncommutative = [](double acc, double value) { return acc * 0.5 + value; };
  double serial_fold = 0.0;
  for (double v : expected) serial_fold = noncommutative(serial_fold, v);
  ParallelOptions stress;
  stress.threads = 64;
  const double parallel_fold =
      parallel_reduce_trials(trials, seed, tiny_trial, 0.0, noncommutative, stress);
  EXPECT_TRUE(bits_equal(serial_fold, parallel_fold));
}

TEST(ParallelContention, RepeatedSmallBatchesDoNotAccumulateState) {
  // Back-to-back batches reuse the pool; every batch must stay independent.
  for (int round = 0; round < 50; ++round) {
    ParallelOptions options;
    options.threads = 8;
    const auto values = parallel_for_trials(
        17, 1234, [](std::size_t, Rng& rng) { return rng.uniform(); }, options);
    const auto again = parallel_for_trials(
        17, 1234, [](std::size_t, Rng& rng) { return rng.uniform(); }, options);
    ASSERT_EQ(values, again) << "round " << round;
  }
}

}  // namespace
}  // namespace manet
