// Property tests of the parallel trial engine (support/parallel.hpp):
// randomized simulation configs across dimension / mobility model / preset
// scale must produce the exact serial fold at any thread count, and a
// throwing trial must surface the first-by-index exception without
// deadlocking or poisoning the pool.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/mtrm.hpp"
#include "geometry/box.hpp"
#include "mobility/factory.hpp"
#include "sim/mobile_trace.hpp"
#include "sim/stationary_sample.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

::testing::AssertionResult bit_identical(const std::vector<double>& a,
                                         const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "bit-level mismatch";
  }
  return ::testing::AssertionSuccess();
}

/// The serial reference: the exact loop parallel_for_trials promises to
/// reproduce, written out longhand.
template <typename Fn>
auto serial_reference(std::size_t trials, std::uint64_t seed, Fn&& fn) {
  std::vector<decltype(fn(std::size_t{0}, std::declval<Rng&>()))> results;
  results.reserve(trials);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    Rng rng = substream(seed, trial);
    results.push_back(fn(trial, rng));
  }
  return results;
}

MobilityConfig random_mobility(Rng& rng, double side) {
  switch (rng.uniform_index(3)) {
    case 0:
      return MobilityConfig::paper_waypoint(side);
    case 1:
      return MobilityConfig::paper_drunkard(side);
    default:
      return MobilityConfig::stationary();
  }
}

template <int D>
std::vector<double> randomized_mtrm_values(Rng& config_rng, std::uint64_t run_seed,
                                           std::size_t threads) {
  MtrmConfig config;
  config.node_count = 8 + config_rng.uniform_index(12);
  config.side = config_rng.uniform(64.0, 512.0);
  // Randomize the sample counts across the preset ladder's range.
  const ScaleParams scale = scale_for(Preset::kQuick);
  config.iterations = 2 + config_rng.uniform_index(scale.iterations);
  config.steps = 10 + config_rng.uniform_index(40);
  config.mobility = random_mobility(config_rng, config.side);

  ParallelOptions options;
  options.threads = threads;
  const std::uint64_t root = run_seed;
  const auto outcomes = parallel_for_trials(
      config.iterations, root,
      [&config](std::size_t, Rng& rng) {
        const Box<D> region(config.side);
        const auto model = make_mobility_model<D>(config.mobility, region);
        const auto trace =
            run_mobile_trace<D>(config.node_count, region, config.steps, *model, rng);
        return trace.mean_critical_range();
      },
      options);
  return outcomes;
}

TEST(ParallelProperty, RandomizedConfigsMatchSerialFoldInEveryDimension) {
  Rng meta(20020623);
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t run_seed = meta.next_u64();
    // The same config must be drawn for both runs: clone the config stream.
    const std::uint64_t config_seed = meta.next_u64();
    for (std::size_t threads : {4ul, 8ul}) {
      {
        Rng serial_cfg(config_seed);
        Rng parallel_cfg(config_seed);
        EXPECT_TRUE(bit_identical(randomized_mtrm_values<1>(serial_cfg, run_seed, 1),
                                  randomized_mtrm_values<1>(parallel_cfg, run_seed, threads)))
            << "D=1 round " << round << " threads " << threads;
      }
      {
        Rng serial_cfg(config_seed);
        Rng parallel_cfg(config_seed);
        EXPECT_TRUE(bit_identical(randomized_mtrm_values<2>(serial_cfg, run_seed, 1),
                                  randomized_mtrm_values<2>(parallel_cfg, run_seed, threads)))
            << "D=2 round " << round << " threads " << threads;
      }
      {
        Rng serial_cfg(config_seed);
        Rng parallel_cfg(config_seed);
        EXPECT_TRUE(bit_identical(randomized_mtrm_values<3>(serial_cfg, run_seed, 1),
                                  randomized_mtrm_values<3>(parallel_cfg, run_seed, threads)))
            << "D=3 round " << round << " threads " << threads;
      }
    }
  }
}

TEST(ParallelProperty, MapMatchesSerialReferenceForRandomTrialCounts) {
  Rng meta(9157);
  for (int round = 0; round < 20; ++round) {
    const std::size_t trials = 1 + meta.uniform_index(200);
    const std::uint64_t seed = meta.next_u64();
    const auto fn = [](std::size_t trial, Rng& rng) {
      double acc = static_cast<double>(trial);
      const std::size_t draws = 1 + trial % 7;  // uneven per-trial work
      for (std::size_t d = 0; d < draws; ++d) acc += rng.uniform();
      return acc;
    };
    ParallelOptions options;
    options.threads = 2 + meta.uniform_index(14);
    EXPECT_TRUE(bit_identical(serial_reference(trials, seed, fn),
                              parallel_for_trials(trials, seed, fn, options)))
        << "round " << round << " trials " << trials << " threads " << options.threads;
  }
}

TEST(ParallelProperty, ThrowingTrialSurfacesFirstByIndexException) {
  const std::size_t trials = 120;
  const auto fn = [](std::size_t trial, Rng& rng) -> double {
    if (trial == 37 || trial == 53 || trial == 119) {
      throw std::runtime_error("trial " + std::to_string(trial) + " failed");
    }
    return rng.uniform();
  };
  for (std::size_t threads : {1ul, 2ul, 8ul, 32ul}) {
    ParallelOptions options;
    options.threads = threads;
    try {
      (void)parallel_for_trials(trials, 7, fn, options);
      FAIL() << "expected an exception at " << threads << " threads";
    } catch (const std::runtime_error& error) {
      // Always the exception the serial loop would have hit first.
      EXPECT_STREQ("trial 37 failed", error.what()) << threads << " threads";
    }
  }
}

TEST(ParallelProperty, PoolSurvivesThrowingBatches) {
  // A throwing batch must not deadlock the pool or corrupt later batches.
  ParallelOptions options;
  options.threads = 8;
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW((void)parallel_for_trials(
                     50, 11,
                     [](std::size_t trial, Rng&) -> int {
                       if (trial % 5 == 0) throw std::logic_error("boom");
                       return static_cast<int>(trial);
                     },
                     options),
                 std::logic_error);
    const auto healthy = parallel_for_trials(
        50, 11, [](std::size_t trial, Rng&) { return static_cast<int>(trial); }, options);
    ASSERT_EQ(healthy.size(), 50u);
    for (std::size_t t = 0; t < healthy.size(); ++t) {
      EXPECT_EQ(healthy[t], static_cast<int>(t));
    }
  }
}

TEST(ParallelProperty, ExceptionInNestedBatchPropagatesToOuterCaller) {
  // A nested fan-out (data points over iterations, as the figure benches
  // run) must propagate an inner exception through both levels.
  ParallelOptions options;
  options.threads = 4;
  EXPECT_THROW(
      (void)parallel_for_trials(
          6, 123,
          [&options](std::size_t point, Rng& rng) {
            const std::uint64_t inner_root = rng.next_u64();
            const auto inner = parallel_for_trials(
                8, inner_root,
                [point](std::size_t trial, Rng&) -> double {
                  if (point == 3 && trial == 5) throw std::runtime_error("inner");
                  return static_cast<double>(point * trial);
                },
                options);
            double sum = 0.0;
            for (double v : inner) sum += v;
            return sum;
          },
          options),
      std::runtime_error);
}

TEST(ParallelProperty, StationarySweepMatchesAcrossPresetScales) {
  // Randomized preset scale: the trial-count knob must never affect the
  // serial/parallel agreement.
  const Box2 box(256.0);
  for (Preset preset : {Preset::kQuick, Preset::kDefault}) {
    const std::size_t trials = scale_for(preset).stationary_trials;
    set_max_parallelism(1);
    Rng serial_rng(4096);
    const auto serial = sample_stationary_critical_ranges<2>(12, box, trials, serial_rng);
    set_max_parallelism(8);
    Rng parallel_rng(4096);
    const auto parallel = sample_stationary_critical_ranges<2>(12, box, trials, parallel_rng);
    set_max_parallelism(0);
    EXPECT_TRUE(bit_identical(
        std::vector<double>(serial.sorted_radii().begin(), serial.sorted_radii().end()),
        std::vector<double>(parallel.sorted_radii().begin(), parallel.sorted_radii().end())))
        << preset_name(preset);
  }
}

}  // namespace
}  // namespace manet
