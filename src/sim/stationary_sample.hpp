#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "graph/link_model.hpp"
#include "sim/deployment.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"

namespace manet {

/// Empirical distribution of the critical transmission radius over
/// independent uniform deployments of a *stationary* network. Because a
/// deployment is connected at range r iff r >= its critical radius, this one
/// sample answers every stationary-MTR question:
///   P(connected at r)        = empirical CDF at r,
///   minimum r for P >= p     = p-th order statistic (r_stationary).
class StationaryRangeSample {
 public:
  /// Takes ownership of per-deployment critical radii. Requires a non-empty
  /// sample.
  explicit StationaryRangeSample(std::vector<double> critical_radii);

  std::size_t trials() const noexcept { return radii_.size(); }

  /// Empirical probability that a random deployment is connected at `range`.
  double probability_connected(double range) const;

  /// Smallest range r such that at least ceil(p * trials) deployments are
  /// connected at r (exact order statistic, no interpolation). Requires
  /// p in (0, 1].
  double range_for_probability(double p) const;

  /// Mean critical radius across the sample.
  double mean_critical_range() const;

  /// Sorted per-deployment critical radii (ascending).
  std::span<const double> sorted_radii() const noexcept { return radii_; }

 private:
  std::vector<double> radii_;  // sorted ascending
};

/// Runs `trials` independent uniform deployments of n nodes and returns the
/// critical-radius sample.
///
/// Deployments run through the deterministic parallel engine
/// (support/parallel.hpp): one draw from `rng` seeds an order-independent
/// substream per trial and the radii are collected in trial order, so the
/// sample is bit-identical at any thread count. Each trial's critical radius
/// comes from the grid-accelerated EMST (topology/emst_grid.hpp), which is
/// bit-identical to the dense path.
template <int D>
StationaryRangeSample sample_stationary_critical_ranges(std::size_t n, const Box<D>& box,
                                                        std::size_t trials, Rng& rng) {
  const std::uint64_t trial_root = rng.next_u64();
  std::vector<double> radii =
      parallel_for_trials(trials, trial_root, [n, &box](std::size_t, Rng& trial_rng) {
        const auto points = uniform_deployment(n, box, trial_rng);
        return critical_range<D>(points, box);
      });
  return StationaryRangeSample(std::move(radii));
}

/// Link-model generalization of sample_stationary_critical_ranges: each
/// trial's critical scale comes from link_model_critical_range under
/// `family` instead of the unit-disk EMST bottleneck (to which it reduces
/// bit-for-bit when the family declares exact_bottleneck()).
///
/// Two draws from `rng` seed two independent substream roots: one for the
/// per-trial deployments, one for the per-trial fading seeds — both pure
/// functions of the trial index, so the sample is bit-identical at any
/// thread count (pinned by tests/parallel_determinism_test.cpp). Distinct
/// trials see distinct fading realizations, matching the paper's
/// methodology of redrawing everything random per trial.
template <int D>
StationaryRangeSample sample_link_model_critical_ranges(
    std::size_t n, const Box<D>& box, std::size_t trials, Rng& rng,
    const LinkModelFamily& family, const LinkRangeSearchOptions& options = {}) {
  options.validate();
  const std::uint64_t trial_root = rng.next_u64();
  const std::uint64_t fading_root = rng.next_u64();
  std::vector<double> radii = parallel_for_trials(
      trials, trial_root, [n, &box, &family, &options, fading_root](std::size_t trial, Rng& trial_rng) {
        const auto points = uniform_deployment(n, box, trial_rng);
        return link_model_critical_range<D>(points, box, family,
                                            substream_seed(fading_root, trial), options);
      });
  return StationaryRangeSample(std::move(radii));
}

}  // namespace manet
