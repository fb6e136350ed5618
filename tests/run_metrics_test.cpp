// Tests for the run-metrics layer (support/metrics.hpp): handle semantics,
// snapshot ordering, the per-thread-sink merge at the parallel engine's
// reduction barrier, and the layer's central promise — enabling metrics
// never moves the deterministic result stream. The whole file also compiles
// (and the determinism tests still run) with MANET_METRICS=0; value
// assertions on the metrics themselves are gated on metrics::compiled_in().

#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiments.hpp"
#include "core/mtrm.hpp"
#include "sim/threshold_search.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

#if MANET_METRICS

TEST(RunMetrics, CounterAccumulatesAndSurvivesSnapshot) {
  metrics::reset();
  metrics::Counter counter = metrics::counter("test.counter_basic");
  counter.increment();
  counter.add(41);
  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.counter_value("test.counter_basic"), 42u);
  // snapshot() does not consume: a second snapshot sees the same total.
  EXPECT_EQ(metrics::snapshot().counter_value("test.counter_basic"), 42u);
  // Unknown names read as 0, not an error.
  EXPECT_EQ(snap.counter_value("test.never_registered"), 0u);
}

TEST(RunMetrics, HandlesForTheSameNameShareOneSlot) {
  metrics::reset();
  metrics::Counter a = metrics::counter("test.shared_name");
  metrics::Counter b = metrics::counter("test.shared_name");
  a.add(2);
  b.add(3);
  EXPECT_EQ(metrics::snapshot().counter_value("test.shared_name"), 5u);
}

TEST(RunMetrics, GaugeIsLastWriteWins) {
  metrics::reset();
  metrics::Gauge gauge = metrics::gauge("test.gauge_basic");
  gauge.set(7);
  gauge.set(3);
  const metrics::Snapshot snap = metrics::snapshot();
  bool found = false;
  for (const metrics::SnapshotGauge& entry : snap.gauges) {
    if (entry.name == "test.gauge_basic") {
      found = true;
      EXPECT_EQ(entry.value, 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RunMetrics, TimerBucketsByLog2Nanoseconds) {
  metrics::reset();
  metrics::Timer timer = metrics::timer("test.timer_basic");
  timer.record_ns(0);     // bucket 0
  timer.record_ns(1);     // bucket 1: [1, 2)
  timer.record_ns(1024);  // bucket 11: [1024, 2048)
  timer.record_ns(1500);  // bucket 11 as well
  const metrics::Snapshot snap = metrics::snapshot();
  bool found = false;
  for (const metrics::SnapshotTiming& entry : snap.timings) {
    if (entry.name != "test.timer_basic") continue;
    found = true;
    EXPECT_EQ(entry.count, 4u);
    EXPECT_EQ(entry.total_ns, 0u + 1u + 1024u + 1500u);
    ASSERT_EQ(entry.buckets.size(), 3u);  // only non-empty buckets render
    EXPECT_EQ(entry.buckets[0].log2_ns, 0u);
    EXPECT_EQ(entry.buckets[0].count, 1u);
    EXPECT_EQ(entry.buckets[1].log2_ns, 1u);
    EXPECT_EQ(entry.buckets[1].count, 1u);
    EXPECT_EQ(entry.buckets[2].log2_ns, 11u);
    EXPECT_EQ(entry.buckets[2].count, 2u);
  }
  EXPECT_TRUE(found);
}

TEST(RunMetrics, TimerScopeRecordsOnDestruction) {
  metrics::reset();
  metrics::Timer timer = metrics::timer("test.timer_scope");
  { const metrics::Timer::Scope scope = timer.measure(); }
  const metrics::Snapshot snap = metrics::snapshot();
  bool found = false;
  for (const metrics::SnapshotTiming& entry : snap.timings) {
    if (entry.name == "test.timer_scope") {
      found = true;
      EXPECT_EQ(entry.count, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RunMetrics, SnapshotIsSortedByName) {
  metrics::reset();
  // Register in anti-alphabetical order; the snapshot must not care.
  metrics::counter("test.z_last").increment();
  metrics::counter("test.a_first").increment();
  const metrics::Snapshot snap = metrics::snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

TEST(RunMetrics, ResetZeroesValuesButKeepsNames) {
  metrics::reset();
  metrics::Counter counter = metrics::counter("test.reset_me");
  counter.add(9);
  metrics::reset();
  EXPECT_EQ(metrics::snapshot().counter_value("test.reset_me"), 0u);
  counter.add(1);  // the old handle still works after reset
  EXPECT_EQ(metrics::snapshot().counter_value("test.reset_me"), 1u);
}

TEST(RunMetrics, ParallelTasksMergeAtTheReductionBarrier) {
  metrics::reset();
  metrics::Counter per_task = metrics::counter("test.parallel_merge");
  constexpr std::size_t kTasks = 64;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    metrics::reset();
    set_max_parallelism(threads);
    const auto values = parallel_for_trials(
        kTasks, /*seed=*/1, [&per_task](std::size_t trial, Rng& rng) {
          per_task.add(trial + 1);
          return rng.uniform();
        });
    set_max_parallelism(0);
    ASSERT_EQ(values.size(), kTasks);
    // Sum 1..kTasks, fully visible the moment parallel_for_trials returns.
    EXPECT_EQ(metrics::snapshot().counter_value("test.parallel_merge"),
              kTasks * (kTasks + 1) / 2)
        << "threads=" << threads;
  }
}

#endif  // MANET_METRICS

TEST(RunMetricsJson, SchemaCarriesEnabledFlagAndSections) {
  const JsonValue document = metrics::collect_json();
  ASSERT_EQ(document.type(), JsonValue::Type::kObject);
  EXPECT_EQ(document.at("enabled").as_bool(), metrics::compiled_in());
  EXPECT_EQ(document.at("counters").type(), JsonValue::Type::kObject);
  EXPECT_EQ(document.at("gauges").type(), JsonValue::Type::kObject);
  EXPECT_EQ(document.at("timings").type(), JsonValue::Type::kObject);
}

// ---------------------------------------------------------------------------
// The determinism contract (ISSUE 5 satellite: golden checksums at 1 and 8
// threads with metrics enabled). These helpers intentionally mirror
// tests/determinism_test.cpp so both files pin the *same* golden values.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a_bits(const std::vector<double>& values) {
  std::uint64_t hash = 1469598103934665603ull;
  for (double value : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

std::vector<double> flatten_mtrm(const MtrmResult& result) {
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

std::uint64_t mtrm_checksum(const MtrmConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  return fnv1a_bits(flatten_mtrm(solve_mtrm<2>(config, rng)));
}

/// True for metric families whose values are functions of the workload alone
/// (engine/solver work counters). pool.* is excluded by construction: it
/// records how work was scheduled and legitimately varies with threads.
bool deterministic_metric(std::string_view name) {
  return name.starts_with("emst.") || name.starts_with("threshold.");
}

TEST(RunMetricsDeterminism, GoldenChecksumsUnmovedAndCountersThreadInvariant) {
  const MtrmConfig waypoint = experiments::waypoint_experiment(256.0, Preset::kQuick);
  const MtrmConfig drunkard = experiments::drunkard_experiment(256.0, Preset::kQuick);

  const auto run_at = [&](std::size_t threads) {
    metrics::reset();
    set_max_parallelism(threads);
    const std::uint64_t w = mtrm_checksum(waypoint, 20020623);
    const std::uint64_t d = mtrm_checksum(drunkard, 20020623);
    // The MTRM path never bisects (its thresholds are exact order
    // statistics); run a small bisection too so the threshold.* counters
    // are exercised at both thread counts.
    bisect_min_range(BisectionOptions{}, [](double range) { return range >= 0.3; });
    set_max_parallelism(0);
    return std::tuple{w, d, metrics::snapshot()};
  };

  const auto [w1, d1, snap1] = run_at(1);
  const auto [w8, d8, snap8] = run_at(8);

  // The golden digests from tests/determinism_test.cpp, with metrics enabled
  // (when compiled in) and at both the serial and the sharded engine path:
  // instrumentation must not perturb a single bit of the result stream.
  EXPECT_EQ(hex64(w1), hex64(0x7f15b5b64209b3a3ull));
  EXPECT_EQ(hex64(d1), hex64(0xca0fd93f2a6598c4ull));
  EXPECT_EQ(hex64(w8), hex64(0x7f15b5b64209b3a3ull));
  EXPECT_EQ(hex64(d8), hex64(0xca0fd93f2a6598c4ull));

  if (!metrics::compiled_in()) return;  // MANET_METRICS=0: nothing to compare

  // Work counters are sums of deterministic per-trial contributions, so the
  // merged totals must be identical at any thread count.
  std::size_t compared = 0;
  for (const metrics::SnapshotCounter& counter : snap1.counters) {
    if (!deterministic_metric(counter.name)) continue;
    EXPECT_EQ(counter.value, snap8.counter_value(counter.name)) << counter.name;
    ++compared;
  }
  EXPECT_GT(compared, 0u) << "instrumented counters should have fired";
  // And the workload really did exercise the instrumented subsystems.
  EXPECT_GT(snap1.counter_value("emst.solves"), 0u);
  EXPECT_GT(snap1.counter_value("threshold.searches"), 0u);
}

}  // namespace
}  // namespace manet
