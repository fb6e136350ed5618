#pragma once

// Tracing for the benchmark's traced runs. The benchmark times every call it
// makes into a layer's public functions; the library itself is untouched.
//
//  * Per-call timings fold into per-thread, per-site totals and log2
//    histograms (16 sub-buckets per octave), so the ~10^7 per-step calls of
//    paper_figs cost two clock reads each and no allocation.
//  * Coarse spans (pass, sweep, point, iteration, unit, request) are kept in
//    memory with their parent span and written out as JSON when the run ends.
//  * Counts (KineticStats deltas, bytes written, ...) go to per-thread
//    counters next to the timings.
//
// Reading the totals is only valid while no parallel batch is in flight
// (the parallel engine's batch barrier orders every task's writes before
// the batch returns).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "bench.hpp"

namespace perfbench::trace {

/// Timed call sites, one per layer function the benchmark calls.
enum class Site : std::size_t {
  kMobilityStep,             // MobilityModel::step
  kMobilityDeploy,           // uniform_deployment + MobilityModel::initialize
  kKineticStart,             // KineticEmstEngine::start
  kKineticAdvance,           // KineticEmstEngine::advance (every call)
  kRepairStep,               // ... advances served by the incremental repair
  kRebuildStep,              // ... advances that ran a full rebuild
  kStationaryCriticalRange,  // critical_range during r_stationary sampling
  kCurveBuild,               // LargestComponentCurve constructor
  kTraceMerge,               // MobileConnectivityTrace constructor
  kMtrmExtract,              // per-iteration MTRM extraction from the trace
  kMtrmFold,                 // fold_mtrm_outcomes
  kDecompose,                // campaign::decompose_sweep
  kExecuteUnit,              // campaign::execute_unit (lease refreshes included)
  kStoreSave,                // ResultStore::save
  kStoreLoadMiss,            // ResultStore::load returning nullopt
  kStoreLoadHit,             // ResultStore::load returning a unit
  kMergeUnits,               // campaign::merge_unit_outcomes
  kResultWrite,              // campaign::write_campaign_result
  kLeaseClaim,               // LeaseStore::try_claim
  kLeaseRefresh,             // LeaseStore::refresh
  kLeaseRelease,             // LeaseStore::release
  kHandle,                   // QueryEngine::handle(...).dump()
  kCount
};

/// Per-thread counters.
enum class Count : std::size_t {
  kAdvances,
  kRepairs,
  kFullRebuilds,
  kMassMoveRebuilds,
  kRadiusGrowths,
  kRadiusShrinks,
  kBoundaryCrossings,
  kMovers,
  kDeltaPairs,
  kSuperseded,
  kCandidateEdges,  // summed over non-dense advances
  kSparseAdvances,  // advances with a maintained candidate set
  kBreakpoints,
  kMergeEvents,
  kStoreBytesWritten,
  kUnitsComputed,
  kUnitsCached,
  kHeartbeats,
  kCount
};

inline constexpr std::size_t kSites = static_cast<std::size_t>(Site::kCount);
inline constexpr std::size_t kCounts = static_cast<std::size_t>(Count::kCount);
inline constexpr std::size_t kBuckets = 1024;

struct SiteTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  double seconds() const { return static_cast<double>(total_ns) * 1e-9; }
  /// Quantile q of the recorded call durations, in nanoseconds,
  /// interpolated inside the histogram bucket (0 when nothing was recorded).
  double quantile_ns(double q) const;
};

/// Sum of every thread's sink.
struct Totals {
  std::array<SiteTotals, kSites> sites{};
  std::array<std::uint64_t, kCounts> counts{};

  const SiteTotals& operator[](Site site) const {
    return sites[static_cast<std::size_t>(site)];
  }
  std::uint64_t operator[](Count count) const {
    return counts[static_cast<std::size_t>(count)];
  }
};

void record(Site site, std::uint64_t ns);
void add(Count count, std::uint64_t n);

/// Sums every thread's sink. Call between parallel batches only.
Totals collect();
/// Zeroes every sink and drops the recorded spans.
void reset();

/// Calls `fn()` and records its duration under `site`; returns its result.
template <typename Fn>
decltype(auto) timed(Site site, Fn&& fn) {
  const std::uint64_t start = now_ns();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
    fn();
    record(site, now_ns() - start);
  } else {
    decltype(auto) result = fn();
    record(site, now_ns() - start);
    return result;
  }
}

/// RAII coarse span: records (id, parent, name, start, end, thread) when it
/// closes. `parent` 0 is the root.
class Span {
 public:
  Span(const char* name, std::uint32_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const noexcept { return id_; }
  /// Seconds since the span opened.
  double elapsed() const { return seconds_between(start_ns_, now_ns()); }

 private:
  const char* name_;
  std::uint32_t id_;
  std::uint32_t parent_;
  std::uint64_t start_ns_;
};

/// Durations, in seconds, of the recorded spans named `name`.
std::vector<double> span_seconds(const std::string& name);

/// Writes every recorded span as JSON to `path`, each with its self time
/// (duration minus the union of its direct children's intervals).
void write_spans(const std::string& path);

}  // namespace perfbench::trace
