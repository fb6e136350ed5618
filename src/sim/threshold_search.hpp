#pragma once

#include <cstddef>
#include <functional>

namespace manet {

/// Options for bisecting a monotone range predicate.
struct BisectionOptions {
  double lo = 0.0;              ///< known-unsatisfying (or minimal) range
  double hi = 1.0;              ///< known-satisfying range
  double tolerance = 1e-3;      ///< absolute width at which to stop
  std::size_t max_iterations = 64;
};

/// Result of a bisection search.
struct BisectionResult {
  double range = 0.0;           ///< smallest satisfying range found (<= hi)
  std::size_t evaluations = 0;  ///< number of predicate calls
};

/// Finds the smallest range r in [lo, hi] with satisfied(r) == true, for a
/// predicate that is monotone in r (false below some threshold, true above).
///
/// This is the classical simulate-per-candidate-r approach of the paper's
/// original toolchain; the library's exact critical-radius machinery makes it
/// unnecessary on the main paths, but it is kept (a) to solve thresholds for
/// quantities with no closed curve and (b) as an independent cross-check of
/// the exact method (see tests/integration_test.cpp).
///
/// Requires lo < hi, tolerance > 0 and satisfied(hi) == true (checked).
BisectionResult bisect_min_range(const BisectionOptions& options,
                                 const std::function<bool(double)>& satisfied);

}  // namespace manet
