#include "sim/threshold_search.hpp"

#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace manet {

BisectionResult bisect_min_range(const BisectionOptions& options,
                                 const std::function<bool(double)>& satisfied) {
  MANET_EXPECTS(options.lo < options.hi);
  MANET_EXPECTS(options.tolerance > 0.0);
  MANET_EXPECTS(options.max_iterations > 0);
  static metrics::Counter searches = metrics::counter("threshold.searches");
  static metrics::Counter evaluations = metrics::counter("threshold.evaluations");
  searches.increment();

  BisectionResult result;
  double lo = options.lo;
  double hi = options.hi;

  ++result.evaluations;
  if (!satisfied(hi)) {
    throw ContractViolation("bisect_min_range: predicate is false at hi");
  }

  // Invariant: satisfied(hi) == true; satisfied(lo) unknown-or-false.
  for (std::size_t i = 0; i < options.max_iterations && hi - lo > options.tolerance; ++i) {
    const double mid = lo + (hi - lo) / 2.0;
    MANET_INVARIANT(lo <= mid && mid <= hi);  // bracket stays ordered
    ++result.evaluations;
    if (satisfied(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  MANET_ENSURE(options.lo <= hi && hi <= options.hi);
  evaluations.add(result.evaluations);
  result.range = hi;
  return result;
}

}  // namespace manet
