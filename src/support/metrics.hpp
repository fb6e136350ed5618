#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

#if !defined(MANET_METRICS)
#define MANET_METRICS 1
#endif

#if MANET_METRICS
#include <chrono>
#endif

namespace manet::metrics {

/// Run-metrics layer: a process-wide registry of named counters, gauges and
/// fixed-bucket timing histograms that reports what happened *inside* a run
/// (solver iterations, EMST fallback rates, cache hits, per-phase time) —
/// the quantities the endpoint gates (golden checksums, campaign
/// byte-identity) cannot see.
///
/// Determinism contract — enabling metrics never perturbs the result stream:
///
///  * Instrumentation only ever *reads* the simulation; it never touches an
///    RNG, reorders work, or feeds anything back into a computed value, so
///    the golden MTRM checksums are identical with metrics on and off
///    (tests/run_metrics_test.cpp pins this at 1 and 8 threads).
///  * Hot-path increments go to a **per-thread sink** (a plain thread_local
///    array — no atomics, no sharing, no contention on the step loop) and
///    are merged into the global registry at the parallel engine's
///    reduction barrier: detail::run_task_batch flushes the executing
///    thread's sink after every task, before the batch's completion latch,
///    so by the time a batch returns every task-attributed value is globally
///    visible (the batch mutex provides the happens-before edge).
///  * Counters are u64 sums of per-trial contributions; since the per-trial
///    work is itself deterministic, the merged totals are identical at any
///    thread count. The only exceptions are the scheduling-dependent pool
///    metrics (pool.tasks_executed, pool.steals, pool.batches — how work was
///    *distributed*, not what was computed) and wall-clock timings; identity
///    assertions must exclude those.
///
/// Usage: obtain a handle once (registration takes a mutex) and increment
/// through it (lock-free, allocation-free after the sink warmed up):
///
///   static metrics::Counter rounds = metrics::counter("emst.doubling_rounds");
///   rounds.increment();
///
/// With MANET_METRICS=0 the whole API compiles to no-op stubs (empty
/// handles, constexpr bodies); call sites are unchanged and the optimizer
/// deletes them. The release-nometrics CI leg builds that way and runs the
/// whole test suite, golden checksums included.

/// True when the layer is compiled in (MANET_METRICS != 0).
constexpr bool compiled_in() noexcept { return MANET_METRICS != 0; }

/// Number of log2(nanoseconds) timing buckets: bucket b >= 1 holds samples
/// with elapsed ns in [2^(b-1), 2^b); bucket 0 holds 0 ns. 64-bit ns fit.
inline constexpr std::size_t kTimingBuckets = 65;

/// One non-empty timing bucket of a Snapshot (log2_ns = the bucket index b).
struct TimingBucket {
  std::size_t log2_ns = 0;
  std::uint64_t count = 0;
};

struct SnapshotCounter {
  std::string name;
  std::uint64_t value = 0;
};

struct SnapshotGauge {
  std::string name;
  std::uint64_t value = 0;
};

struct SnapshotTiming {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::vector<TimingBucket> buckets;  ///< non-empty buckets, ascending log2_ns
};

/// A point-in-time copy of every registered metric, sorted by name (so the
/// JSON rendering is deterministic given identical values).
struct Snapshot {
  std::vector<SnapshotCounter> counters;
  std::vector<SnapshotGauge> gauges;
  std::vector<SnapshotTiming> timings;

  /// Value of the named counter; 0 when it was never registered.
  std::uint64_t counter_value(std::string_view name) const noexcept;
};

#if MANET_METRICS

/// Monotone event counter. Copyable handle (an id into the registry);
/// add() is hot-path safe: thread-local, lock-free, allocation-free once
/// this thread's sink covers the id.
class Counter {
 public:
  void add(std::uint64_t n);
  void increment() { add(1); }

 private:
  friend Counter counter(std::string_view name);
  explicit Counter(std::size_t id) noexcept : id_(id) {}
  std::size_t id_;
};

/// Last-write-wins level (pool size, configured thread count). Set is rare,
/// so it writes the registry directly (relaxed atomic store).
class Gauge {
 public:
  void set(std::uint64_t value) noexcept;

 private:
  friend Gauge gauge(std::string_view name);
  explicit Gauge(std::size_t id) noexcept : id_(id) {}
  std::size_t id_;
};

/// Fixed-bucket (log2 ns) timing histogram with total/count, fed through the
/// same per-thread sinks as counters. Place at coarse boundaries (a campaign
/// unit, a threshold evaluation), never inside the per-step solve loop.
class Timer {
 public:
  void record_ns(std::uint64_t ns);

  /// RAII measurement: records the elapsed time on destruction. Defined
  /// below the class (it stores a Timer, incomplete until this brace).
  class Scope;
  Scope measure() noexcept;

 private:
  friend Timer timer(std::string_view name);
  explicit Timer(std::size_t id) noexcept : id_(id) {}
  std::size_t id_;
};

class Timer::Scope {
 public:
  explicit Scope(Timer scope_timer) noexcept
      : timer_(scope_timer), start_(std::chrono::steady_clock::now()) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    timer_.record_ns(ns < 0 ? 0u : static_cast<std::uint64_t>(ns));
  }

 private:
  Timer timer_;
  std::chrono::steady_clock::time_point start_;
};

inline Timer::Scope Timer::measure() noexcept { return Scope(*this); }

/// Registers (or finds) the named metric and returns a handle. Takes the
/// registry mutex — obtain handles once (e.g. function-local static), not
/// per increment.
Counter counter(std::string_view name);
Gauge gauge(std::string_view name);
Timer timer(std::string_view name);

/// Merges the calling thread's sink into the global registry. Called by the
/// parallel engine after every task (the reduction-barrier merge) and by
/// snapshot() for the calling thread; safe to call at any time.
void flush_thread_sink() noexcept;

/// Flushes the calling thread and copies every registered metric, sorted by
/// name. Values written by completed run_task_batch batches are fully
/// visible; only another thread's *currently executing* task could hold
/// unflushed increments.
Snapshot snapshot();

/// Zeroes every registered value (names stay registered) and the calling
/// thread's sink. Intended for tests, between runs — not concurrently with
/// an in-flight batch.
void reset();

#else  // !MANET_METRICS — the whole API is inert and costs nothing.

class Counter {
 public:
  constexpr void add(std::uint64_t) const noexcept {}
  constexpr void increment() const noexcept {}
};

class Gauge {
 public:
  constexpr void set(std::uint64_t) const noexcept {}
};

class Timer {
 public:
  constexpr void record_ns(std::uint64_t) const noexcept {}
  /// Non-trivial destructor on purpose: RAII call sites
  /// (`const Scope s = t.measure();`) must not trip
  /// -Wunused-but-set-variable in the no-op build.
  struct Scope {
    ~Scope() {}  // NOLINT(modernize-use-equals-default)
  };
  Scope measure() const noexcept { return {}; }
};

inline Counter counter(std::string_view) noexcept { return {}; }
inline Gauge gauge(std::string_view) noexcept { return {}; }
inline Timer timer(std::string_view) noexcept { return {}; }
inline void flush_thread_sink() noexcept {}
inline Snapshot snapshot() { return {}; }
inline void reset() noexcept {}

#endif  // MANET_METRICS

/// Renders a snapshot as the deterministic "metrics" JSON section used by
/// the BenchReport artifacts (figure --metrics, campaign metrics.json):
///
///   { "enabled": true,
///     "counters": { "<name>": <u64>, ... },      // sorted by name
///     "gauges":   { "<name>": <u64>, ... },
///     "timings":  { "<name>": { "count": n, "total_seconds": s,
///                               "buckets": [ { "log2_ns": b, "count": c } ] } } }
///
/// Deterministic means: ordering and counter values are reproducible for a
/// deterministic workload; timing values are wall-clock and are not.
JsonValue to_json(const Snapshot& snapshot);

/// flush_thread_sink() + snapshot() + to_json() in one call.
JsonValue collect_json();

}  // namespace manet::metrics
