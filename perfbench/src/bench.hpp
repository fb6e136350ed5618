#pragma once

// Shared plumbing of the repository benchmark: options, the pass loop, the
// report every workload fills in, and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/hash.hpp"
#include "topology/mst.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); every duration in the benchmark is
/// a difference of two of these.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 2002;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: every workload shrunk to seconds, for the self-test.
  bool smoke = false;
  std::string manetd;    ///< path of the manetd binary (campaign_query)
  std::string work_dir;  ///< scratch directory for stores, sockets, spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produces. `end_to_end` is printed as the result with
/// --trace 0, `per_layer` with --trace 1; `named` holds the workload's own
/// metrics (printed as text lines in both modes), `digests` the output
/// fingerprints the self-test compares between traced and untraced runs.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> named;
  std::vector<std::pair<std::string, std::string>> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one checked operation; a false `ok` is a failure and is
  /// reported on stderr.
  void check(bool ok, const std::string& what);
  void check_count(std::uint64_t attempted_ops, std::uint64_t failed_ops,
                   const std::string& what);
};

/// The end-to-end metrics every workload reports (BENCHMARK.json), from the
/// per-pass samples of one run; medians over the passes.
struct PassSamples {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> part1_s;
  std::vector<double> part2_s;
  std::vector<double> rate_per_s;

  void add_end_to_end(Report& report) const;
};

/// Runs `pass()` (which returns the seconds it took) once, then again while
/// one more pass of the longest length seen still ends within `seconds` of
/// the first start. Returns the number of passes.
template <typename Pass>
std::size_t run_passes(double seconds, Pass&& pass) {
  const std::uint64_t start = now_ns();
  double longest = 0.0;
  std::size_t passes = 0;
  do {
    longest = std::max(longest, pass());
    ++passes;
  } while (seconds_between(start, now_ns()) + longest <= seconds);
  return passes;
}

/// Moves single-threaded work round the CPUs this process may use, one CPU
/// further every 50 ms, while it lives. The CPUs of a shared virtual host
/// change speed independently of each other from second to second; a thread
/// left on one CPU takes that CPU's slow spells whole, one moved round all of
/// them averages over them, as a thread pool does. `tids` are the threads or
/// processes to move (0 is the calling thread); the k-th is kept k CPUs
/// ahead of the first. On leaving, every target may run anywhere again.
class CpuRotation {
 public:
  explicit CpuRotation(std::vector<int> tids);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Quantile q of `values` by linear interpolation between order statistics
/// (0 for an empty sample).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Folds a tree's weight sequence (in the engine's output order) into a
/// running FNV-1a digest: the per-step MST fingerprint.
inline std::uint64_t fold_tree(std::span<const manet::WeightedEdge> tree, std::uint64_t hash) {
  for (const auto& edge : tree) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &edge.weight, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= manet::kFnv1aPrime;
    }
  }
  return hash;
}

/// Workload entry points (one translation unit each).
Report run_paper_figs(const Options& options);
Report run_trace_65k(const Options& options);
Report run_campaign_query(const Options& options);

}  // namespace perfbench
