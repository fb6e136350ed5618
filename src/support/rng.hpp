#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "support/error.hpp"

namespace manet {

/// SplitMix64 (Steele, Lea, Flood 2014). Used to expand one 64-bit seed into
/// the larger state of the main generator and to derive independent
/// substream seeds. Passes BigCrush when used standalone.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr result_type operator()() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna 2018): fast, high statistical quality,
/// period 2^256 - 1. Satisfies std::uniform_random_bit_generator.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit value via SplitMix64,
  /// as recommended by the generator's authors.
  explicit Xoshiro256StarStar(std::uint64_t seed) noexcept;

  /// Seeds directly from a full 256-bit state. The state must not be all
  /// zeros.
  explicit Xoshiro256StarStar(const std::array<std::uint64_t, 4>& state);

  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);

    return result;
  }

  /// Advances the generator by 2^128 steps: partitions the stream into
  /// non-overlapping substreams for parallel / repeated use.
  void jump() noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }

 private:
  std::array<std::uint64_t, 4> state_;
};

/// Deterministic random stream facade used throughout the library.
///
/// ## Seeding / determinism guarantee
///
/// All simulation code takes an `Rng&`; every experiment is reproducible
/// from a single 64-bit seed. Concretely (and verified bit-for-bit by
/// tests/determinism_test.cpp):
///
///  * Two `Rng` instances constructed from the same seed produce identical
///    streams of `next_u64()` / `uniform()` / `uniform_index()` /
///    `bernoulli()` values, on every platform: the generators are fixed
///    integer algorithms (SplitMix64 seeding a xoshiro256**), and `uniform()`
///    maps the top 53 bits by a single multiply, so no libm or
///    platform-dependent rounding enters the stream.
///  * Consequently `StationarySample` and `MobileTrace` runs with equal
///    (seed, parameters) produce bit-identical critical radii, traces, and
///    derived order statistics — not merely statistically equal ones.
///  * `split()` deterministically derives a decorrelated substream by
///    **consuming two draws from the parent** and reseeding through
///    SplitMix64. Once split, the child is an independent object: drawing
///    more from the parent (or from other children) never perturbs it. Split
///    order matters, so derive all substreams up front when fanning out
///    iterations / parameter points.
///  * `substream(root_seed, trial_index)` is the **order-independent**
///    sibling of `split()` used by the parallel trial engine
///    (support/parallel.hpp): the trial's stream is a pure function of
///    (root_seed, trial_index), so deriving stream 7 before stream 3 — or
///    deriving them concurrently from different threads — yields exactly the
///    same streams as deriving them 0, 1, 2, ... serially. This is what makes
///    parallel trial execution bit-identical to serial execution.
class Rng {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x5EED5EED5EED5EEDull;

  explicit Rng(std::uint64_t seed = kDefaultSeed) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept { return engine_(); }

  /// Uniform double in [0, 1), 53-bit resolution: the 53 high bits, scaled.
  double uniform() noexcept { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }

  /// Uniform double in [a, b). Requires a <= b; returns a when a == b.
  double uniform(double a, double b);

  /// Uniform index in [0, n). Requires n > 0. Unbiased (rejection method).
  std::size_t uniform_index(std::size_t n);

  /// True with probability p. Requires p in [0, 1].
  bool bernoulli(double p) {
    MANET_EXPECTS(p >= 0.0 && p <= 1.0);
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Standard normal draw (mean 0, stddev 1) via the Marsaglia polar
  /// method. Consumes a rejection-dependent number of uniform draws from
  /// this stream; like every other draw it is a deterministic function of
  /// the stream state (the only libm calls are sqrt and log on values that
  /// are themselves bit-determined). This is the one sanctioned source of
  /// Gaussian randomness in the library — `std::normal_distribution` is
  /// banned by the `nondet-random` lint rule because its draw algorithm is
  /// implementation-defined and would break cross-toolchain reproducibility.
  double normal();

  /// Normal draw with the given mean and standard deviation (>= 0).
  double normal(double mean, double stddev);

  /// A new Rng whose stream is statistically independent of this one.
  /// Consumes two draws from this stream to derive the child seed (see the
  /// class-level determinism notes).
  Rng split() noexcept;

  /// Access the raw engine (satisfies uniform_random_bit_generator) for use
  /// with <random> distributions.
  Xoshiro256StarStar& engine() noexcept { return engine_; }

 private:
  Xoshiro256StarStar engine_;
};

/// Draws in [a, b) exactly as Rng::uniform(a, b) makes them, with the cap
/// below b (nextafter(b, a)) taken once instead of per draw: for loops
/// that draw many times from one interval, such as a rejection sampler.
class UniformInterval {
 public:
  UniformInterval() = default;

  /// Requires a <= b.
  UniformInterval(double a, double b) : a_(a), b_(b), below_b_(next_below(b, a)) {
    MANET_EXPECTS(a <= b);
  }

  /// One draw from `rng`; a without a draw when a == b.
  double operator()(Rng& rng) const noexcept {
    if (a_ == b_) return a_;
    // Guard against floating-point rounding pushing the result to b.
    return std::min(a_ + (b_ - a_) * rng.uniform(), below_b_);
  }

 private:
  /// std::nextafter(b, a). Above zero and a, the next double down is the
  /// bit pattern one below (also from infinity to the largest finite), so
  /// only other bounds pay the libm call.
  static double next_below(double b, double a) noexcept {
    if (b > 0.0 && b > a) return std::bit_cast<double>(std::bit_cast<std::uint64_t>(b) - 1);
    return std::nextafter(b, a);
  }

  double a_ = 0.0;
  double b_ = 0.0;
  double below_b_ = 0.0;
};

/// The 64-bit seed of trial `trial_index`'s substream under root seed
/// `root_seed`.
///
/// ## Per-trial seeding contract (relied on by support/parallel.hpp)
///
///  * **Pure function of (root_seed, trial_index)**: derivation is
///    order-independent — no hidden stream is consumed, so computing the
///    seeds for trials {0..k} in any order (or concurrently) produces the
///    same values as computing them in index order.
///  * **Injective in trial_index** for a fixed root: the index offsets the
///    state of a SplitMix64 whose finalizer is a bijection on 64-bit words,
///    so distinct trials are guaranteed distinct seeds (not merely with high
///    probability). Verified pairwise for trials {0..63} by tests/rng_test.cpp.
///  * **Decorrelated from the root and from siblings**: both the root seed
///    and the offset state pass through a full SplitMix64 mix, the same
///    reseeding principle `split()` uses.
std::uint64_t substream_seed(std::uint64_t root_seed, std::uint64_t trial_index) noexcept;

/// The Rng for trial `trial_index` under `root_seed`:
/// `Rng(substream_seed(root_seed, trial_index))`. See substream_seed() for
/// the order-independence contract.
Rng substream(std::uint64_t root_seed, std::uint64_t trial_index) noexcept;

}  // namespace manet
