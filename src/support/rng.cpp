#include "support/rng.hpp"

#include <bit>
#include <cmath>

#include "support/error.hpp"

namespace manet {

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm();
}

Xoshiro256StarStar::Xoshiro256StarStar(const std::array<std::uint64_t, 4>& state)
    : state_(state) {
  MANET_EXPECTS(state[0] != 0 || state[1] != 0 || state[2] != 0 || state[3] != 0);
}

void Xoshiro256StarStar::jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180EC6D33CFD0ABAull, 0xD5A61266F0C9392Cull, 0xA9582618E03FC9AAull,
      0x39ABDC4529B1661Cull};

  std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
  for (std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (std::uint64_t{1} << bit)) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= state_[i];
      }
      (*this)();
    }
  }
  state_ = acc;
}

Rng::Rng(std::uint64_t seed) noexcept : engine_(seed) {}

double Rng::uniform(double a, double b) { return UniformInterval(a, b)(*this); }

std::size_t Rng::uniform_index(std::size_t n) {
  MANET_EXPECTS(n > 0);
  if (n == 1) return 0;
  // Rejection sampling over the largest multiple of n below 2^64: unbiased.
  const std::uint64_t bound = n;
  const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                              std::numeric_limits<std::uint64_t>::max() % bound;
  std::uint64_t draw = engine_();
  while (draw >= limit) draw = engine_();
  return static_cast<std::size_t>(draw % bound);
}

double Rng::normal() {
  // Marsaglia polar method: draw (u, v) uniformly in the square [-1, 1)^2
  // until the pair falls strictly inside the unit disk (excluding the
  // origin), then scale. Each accepted pair yields one normal deviate; the
  // second root the method produces is deliberately discarded so the draw
  // count per call stays a pure function of the stream (no hidden cache
  // that a copy of the Rng would duplicate).
  for (;;) {
    const double u = 2.0 * uniform() - 1.0;
    const double v = 2.0 * uniform() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::normal(double mean, double stddev) {
  MANET_EXPECTS(stddev >= 0.0);
  return mean + stddev * normal();
}

Rng Rng::split() noexcept {
  // Derive the child seed from fresh draws so parent and child streams are
  // decorrelated; mixing through SplitMix64 happens in the Rng constructor.
  // Named draws fix the order: the operands of `^` are unsequenced.
  const std::uint64_t first = next_u64();
  const std::uint64_t rotated = next_u64();
  return Rng(first ^ std::rotl(rotated, 32));
}

std::uint64_t substream_seed(std::uint64_t root_seed, std::uint64_t trial_index) noexcept {
  // Hash the root once, offset the resulting SplitMix64 state by the trial
  // index, and draw the seed through the finalizer. The finalizer is a
  // bijection, so for a fixed root distinct indices can never collide.
  SplitMix64 root_mix(root_seed);
  SplitMix64 trial_mix(root_mix() + trial_index);
  return trial_mix();
}

Rng substream(std::uint64_t root_seed, std::uint64_t trial_index) noexcept {
  return Rng(substream_seed(root_seed, trial_index));
}

}  // namespace manet
