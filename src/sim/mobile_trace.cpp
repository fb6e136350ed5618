#include "sim/mobile_trace.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include "support/contracts.hpp"
#include "support/error.hpp"

namespace manet {

namespace {

/// Average number of positive-range breakpoints per histogram bin: the size
/// of the one bin a mean-component query gathers and sorts.
constexpr std::size_t kEventsPerBin = 64;

/// Histogram bin of a breakpoint range in (0, r_max]: min(bins - 1,
/// floor(range / r_max * bins)). `bins` is a power of two, so the product is
/// exact and the map is monotone in `range`. The quotient is at most 1 for
/// range <= r_max, subnormal r_max included; the comparison also sends NaN
/// (0 / 0) and inf to the top bin, so the conversion only ever sees a value
/// in [0, bins - 1).
std::size_t bin_of(double range, double r_max, std::size_t bins) {
  const double scaled = range / r_max * static_cast<double>(bins);
  return scaled < static_cast<double>(bins - 1) ? static_cast<std::size_t>(scaled) : bins - 1;
}

}  // namespace

MobileConnectivityTrace::MobileConnectivityTrace(
    std::size_t node_count, std::vector<LargestComponentCurve> per_step_curves)
    : n_(node_count), curves_(std::move(per_step_curves)) {
  MANET_EXPECTS(!curves_.empty());
  std::size_t events = 0;
  for (const auto& curve : curves_) {
    MANET_EXPECTS(curve.node_count() == n_);
    events += curve.breakpoints().size() - 1;
  }

  timeline_rc_.reserve(curves_.size());
  for (const auto& curve : curves_) timeline_rc_.push_back(curve.critical_range());
  sorted_rc_ = timeline_rc_;
  std::sort(sorted_rc_.begin(), sorted_rc_.end());

  // One streaming pass: each step contributes +delta nodes at each of its
  // breakpoints. Deltas at range 0 join the range-0 total; the others are
  // summed per range bin. Nothing is sorted or kept per breakpoint.
  const std::size_t bins = std::bit_ceil(std::max<std::size_t>(1, events / kEventsPerBin));
  delta_histogram_.assign(bins, 0);
  const double r_max = sorted_rc_.back();
  for (const auto& curve : curves_) {
    const auto breakpoints = curve.breakpoints();
    total_at_zero_ += breakpoints.front().size;
    for (std::size_t i = 1; i < breakpoints.size(); ++i) {
      const double range = breakpoints[i].range;
      MANET_EXPECT(range >= 0.0 && range <= r_max);
      const std::size_t delta = breakpoints[i].size - breakpoints[i - 1].size;
      if (range == 0.0) {
        total_at_zero_ += delta;
      } else {
        delta_histogram_[bin_of(range, r_max, bins)] += delta;
      }
    }
  }
}

MobileConnectivityTrace::MobileConnectivityTrace(
    std::size_t node_count, std::vector<LargestComponentCurve> per_step_curves,
    std::vector<CurveMergeEvent>& event_scratch)
    : MobileConnectivityTrace(node_count, std::move(per_step_curves)) {
  event_scratch.clear();
}

double MobileConnectivityTrace::fraction_of_time_connected(double range) const {
  const auto it = std::upper_bound(sorted_rc_.begin(), sorted_rc_.end(), range);
  const double f = static_cast<double>(it - sorted_rc_.begin()) /
                   static_cast<double>(sorted_rc_.size());
  MANET_ENSURE(f >= 0.0 && f <= 1.0);
  return f;
}

double MobileConnectivityTrace::range_for_time_fraction(double f) const {
  MANET_EXPECTS(f > 0.0 && f <= 1.0);
  const auto needed =
      static_cast<std::size_t>(std::ceil(f * static_cast<double>(sorted_rc_.size())));
  const std::size_t index = std::max<std::size_t>(needed, 1) - 1;
  return sorted_rc_[std::min(index, sorted_rc_.size() - 1)];
}

double MobileConnectivityTrace::largest_never_connected_range() const {
  return sorted_rc_.front();
}

double MobileConnectivityTrace::range_for_mean_component_fraction(double phi) const {
  MANET_EXPECTS(phi > 0.0 && phi <= 1.0);
  const double target = phi * static_cast<double>(n_);
  const double steps = static_cast<double>(curves_.size());
  // The answer is the smallest breakpoint range whose running total of
  // largest-component sizes satisfies !(total / steps < target). Every total
  // is an integer below 2^53, so it is exact in any summation order and the
  // answer is the one a lower_bound over a merged mean curve would give.
  const auto reached = [&](std::size_t total) {
    return !(static_cast<double>(total) / steps < target);
  };
  std::size_t total = total_at_zero_;
  if (reached(total)) return 0.0;

  const std::size_t bins = delta_histogram_.size();
  std::size_t bin = 0;
  while (bin < bins && !reached(total + delta_histogram_[bin])) total += delta_histogram_[bin++];
  MANET_ENSURES(bin < bins);  // the mean reaches n at the largest breakpoint

  // The map is monotone, so the bin's breakpoints are one contiguous run of
  // each step's ascending curve. Gather them, sort by range, and add them
  // until the target is reached: the range of the breakpoint that reaches it
  // is the answer (totals only grow, so equal ranges need no grouping).
  struct Event {
    double range;
    std::size_t delta;
  };
  std::vector<Event> events;
  const double r_max = sorted_rc_.back();
  for (const auto& curve : curves_) {
    const auto breakpoints = curve.breakpoints();
    auto it = std::partition_point(
        breakpoints.begin() + 1, breakpoints.end(),
        [&](const LargestComponentCurve::Breakpoint& b) {
          return b.range == 0.0 || bin_of(b.range, r_max, bins) < bin;
        });
    for (; it != breakpoints.end() && bin_of(it->range, r_max, bins) == bin; ++it) {
      events.push_back({it->range, it->size - std::prev(it)->size});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.range < b.range; });
  double range = 0.0;
  for (std::size_t i = 0; !reached(total); ++i) {
    MANET_ENSURES(i < events.size());
    range = events[i].range;
    total += events[i].delta;
  }
  return range;
}

double MobileConnectivityTrace::mean_largest_fraction_at(double range) const {
  MANET_EXPECTS(range >= 0.0);
  std::size_t total = 0;
  for (const auto& curve : curves_) total += curve.largest_component_at(range);
  if (n_ == 0) return 1.0;
  const double mean_size = static_cast<double>(total) / static_cast<double>(curves_.size());
  return mean_size / static_cast<double>(n_);
}

double MobileConnectivityTrace::mean_largest_fraction_when_disconnected(double range) const {
  double sum = 0.0;
  std::size_t disconnected = 0;
  for (const auto& curve : curves_) {
    if (curve.critical_range() > range) {
      sum += curve.largest_fraction_at(range);
      ++disconnected;
    }
  }
  if (disconnected == 0) return 1.0;
  const double mean = sum / static_cast<double>(disconnected);
  MANET_ENSURE(mean >= 0.0 && mean <= 1.0);
  return mean;
}

double MobileConnectivityTrace::min_largest_fraction_at(double range) const {
  double min_fraction = 1.0;
  for (const auto& curve : curves_) {
    min_fraction = std::min(min_fraction, curve.largest_fraction_at(range));
  }
  return min_fraction;
}

double MobileConnectivityTrace::fraction_of_time_component_at_least(double range,
                                                                    double phi) const {
  MANET_EXPECTS(phi > 0.0 && phi <= 1.0);
  std::size_t satisfied = 0;
  for (const auto& curve : curves_) {
    if (curve.largest_fraction_at(range) >= phi) ++satisfied;
  }
  return static_cast<double>(satisfied) / static_cast<double>(curves_.size());
}

double MobileConnectivityTrace::mean_critical_range() const {
  double sum = 0.0;
  for (double rc : sorted_rc_) sum += rc;
  return sum / static_cast<double>(sorted_rc_.size());
}

}  // namespace manet
