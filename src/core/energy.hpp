#pragma once

#include <cmath>
#include <cstddef>

#include "support/error.hpp"

namespace manet {

/// Radio energy model: "transmitting power is proportional to the square
/// (or, depending on environmental conditions, to a higher power) of the
/// transmitting range" (Section 1). Quantifies the paper's headline
/// energy-vs-communication-quality trade-off.
class EnergyModel {
 public:
  /// `alpha` is the path-loss exponent (2 in free space, up to ~4-6 indoors).
  /// Requires a finite alpha >= 1.
  explicit EnergyModel(double alpha = 2.0) : alpha_(alpha) {
    if (!(alpha >= 1.0) || !std::isfinite(alpha)) {
      throw ConfigError("EnergyModel: alpha must be finite and >= 1");
    }
  }

  double alpha() const noexcept { return alpha_; }

  /// Per-node transmit power at range r, in units of power(r = 1).
  /// Throws ConfigError (in every build mode) unless range >= 0.
  double transmit_power(double range) const;

  /// Total network transmit power with n nodes at common range r.
  double network_power(std::size_t node_count, double range) const;

  /// Fractional energy saved by operating at `r_reduced` instead of
  /// `r_base`: 1 - (r_reduced / r_base)^alpha. Throws ConfigError (in every
  /// build mode) unless r_base > 0 and 0 <= r_reduced <= r_base — these are
  /// user-facing quantities (measured ranges), not internal invariants.
  double savings(double r_base, double r_reduced) const;

 private:
  double alpha_;
};

}  // namespace manet
