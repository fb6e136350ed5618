#include "topology/range_assignment.hpp"

#include <algorithm>
#include <cmath>

namespace manet {

RangeAssignment::RangeAssignment(std::vector<double> ranges) : ranges_(std::move(ranges)) {
  // User-facing configuration boundary (ranges may come straight from CLI
  // input): ConfigError, not a contract — and NaN-safe via the negated form.
  for (double r : ranges_) {
    if (!(r >= 0.0)) throw ConfigError("RangeAssignment: every range must be >= 0");
  }
}

double RangeAssignment::range(std::size_t node) const {
  MANET_EXPECTS(node < ranges_.size());
  return ranges_[node];
}

double RangeAssignment::cost(double alpha) const {
  if (!(alpha >= 1.0) || !std::isfinite(alpha)) {
    throw ConfigError("RangeAssignment::cost: alpha must be finite and >= 1");
  }
  double total = 0.0;
  for (double r : ranges_) total += std::pow(r, alpha);
  return total;
}

double RangeAssignment::max_range() const {
  double max_r = 0.0;
  for (double r : ranges_) max_r = std::max(max_r, r);
  return max_r;
}

}  // namespace manet
