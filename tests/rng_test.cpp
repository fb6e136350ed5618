#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/stats.hpp"

namespace manet {
namespace {

TEST(SplitMix64, KnownSequenceFromZeroSeed) {
  // Reference values from the published SplitMix64 algorithm.
  SplitMix64 sm(0);
  EXPECT_EQ(sm(), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(sm(), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(sm(), 0x06C45D188009454Full);
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a(), b());
}

TEST(Xoshiro256StarStar, IsDeterministicForFixedSeed) {
  Xoshiro256StarStar a(42);
  Xoshiro256StarStar b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256StarStar, RejectsAllZeroState) {
  const std::array<std::uint64_t, 4> zeros = {0, 0, 0, 0};
  EXPECT_THROW(Xoshiro256StarStar{zeros}, ContractViolation);
}

TEST(Xoshiro256StarStar, JumpDecorrelatesStreams) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformRangeDegenerateIntervalReturnsEndpoint) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform(2.5, 2.5), 2.5);
}

TEST(Rng, UniformRangeRejectsInvertedBounds) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ContractViolation);
}

TEST(Rng, UniformIntervalDrawsAsTheNextafterCappedFormula) {
  // Rng::uniform(a, b)'s definition, with the libm cap taken per draw; the
  // intervals put b above, at and below zero, at a subnormal and at
  // infinity, and one is a single ulp wide, so half its draws hit the cap.
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<std::pair<double, double>> intervals = {
      {0.0, 1.0},   {1.0, std::nextafter(1.0, 2.0)}, {-1.0, -0.5}, {-1.0, 0.0}, {-tiny, 0.0},
      {0.0, tiny},  {2.5, 2.5},                      {0.0, inf},   {1e308, inf}, {-3.0, 1e-310}};
  for (const auto& [a, b] : intervals) {
    Rng rng(11);
    Rng reference(11);
    const UniformInterval draw(a, b);
    for (int i = 0; i < 1000; ++i) {
      const double expected =
          a == b ? a : std::min(a + (b - a) * reference.uniform(), std::nextafter(b, a));
      const double got = draw(rng);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(expected))
          << "[" << a << ", " << b << ") draw " << i;
    }
    EXPECT_EQ(rng.next_u64(), reference.next_u64()) << "[" << a << ", " << b << ")";
  }
  EXPECT_THROW(UniformInterval(1.0, 0.0), ContractViolation);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(4);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexOfOneIsAlwaysZero) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(6);
  EXPECT_THROW(rng.uniform_index(0), ContractViolation);
}

TEST(Rng, UniformIndexIsApproximatelyUniform) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.1, 0.01);
  }
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
}

TEST(Rng, BernoulliRejectsOutOfRange) {
  Rng rng(10);
  EXPECT_THROW(rng.bernoulli(-0.1), ContractViolation);
  EXPECT_THROW(rng.bernoulli(1.1), ContractViolation);
}

TEST(Rng, NormalIsDeterministicAndRoughlyStandard) {
  Rng a(42);
  Rng b(42);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double x = a.normal();
    EXPECT_DOUBLE_EQ(x, b.normal());  // pure function of the stream
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.variance(), 1.0, 0.05);
}

TEST(Rng, NormalWithMeanAndStddev) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.variance(), 4.0, 0.2);
  // Zero stddev collapses to the mean exactly (0 * z == 0 for finite z).
  Rng degenerate(8);
  EXPECT_DOUBLE_EQ(degenerate.normal(3.0, 0.0), 3.0);
}

TEST(Rng, NormalRejectsNegativeStddev) {
  Rng rng(9);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
}

TEST(Rng, SplitProducesDecorrelatedStream) {
  Rng parent(11);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, SplitIsReproducible) {
  Rng a(12);
  Rng b(12);
  Rng child_a = a.split();
  Rng child_b = b.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
}

TEST(Rng, SplitChildStreamIsPinned) {
  // The child's seed mixes two parent draws; which of them is rotated is
  // part of the stream contract, so the first child draws are golden.
  Rng parent(2002);
  Rng child = parent.split();
  EXPECT_EQ(child.next_u64(), 0x5a77c2ccb6ad3a3eull);
  EXPECT_EQ(child.next_u64(), 0xff1dddfa2cf3a157ull);
  EXPECT_EQ(child.next_u64(), 0x58ff72f9691ec831ull);
  EXPECT_EQ(child.next_u64(), 0x31092d45690c33fdull);
  EXPECT_EQ(parent.next_u64(), 0xa8ee8cca2692655cull);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Substream, IsAPureFunctionOfSeedAndIndex) {
  // Unlike split(), substream() consumes no parent state: deriving trial 5
  // before trial 3 — or deriving trial 3 twice — always yields the same
  // stream. This is what lets worker threads derive their trials in any
  // scheduling order and still match the serial run bit-for-bit.
  Rng late_first = substream(1234, 5);
  Rng early_second = substream(1234, 3);
  Rng early_first = substream(1234, 3);
  Rng late_second = substream(1234, 5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(early_first.next_u64(), early_second.next_u64());
    EXPECT_EQ(late_first.next_u64(), late_second.next_u64());
  }
}

TEST(Substream, SeedIsStableAcrossCalls) {
  EXPECT_EQ(substream_seed(42, 17), substream_seed(42, 17));
  EXPECT_NE(substream_seed(42, 17), substream_seed(42, 18));
  EXPECT_NE(substream_seed(42, 17), substream_seed(43, 17));
}

TEST(Substream, TrialStreamsArePairwiseDistinct) {
  // Streams for trials {0..63} under one root seed must be pairwise distinct
  // (no seed collision, no lockstep prefix).
  constexpr std::size_t kTrials = 64;
  constexpr int kPrefix = 16;
  std::vector<std::array<std::uint64_t, kPrefix>> prefixes(kTrials);
  std::set<std::uint64_t> seeds;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    seeds.insert(substream_seed(777, trial));
    Rng rng = substream(777, trial);
    for (int i = 0; i < kPrefix; ++i) prefixes[trial][i] = rng.next_u64();
  }
  EXPECT_EQ(seeds.size(), kTrials) << "substream seed collision";
  for (std::size_t a = 0; a < kTrials; ++a) {
    for (std::size_t b = a + 1; b < kTrials; ++b) {
      EXPECT_NE(prefixes[a], prefixes[b]) << "trials " << a << " and " << b;
    }
  }
}

TEST(Substream, StreamsAreDecorrelatedFromRootAndEachOther) {
  // Neighboring trial indices must not produce correlated draws: across a
  // long window, matching outputs at the same position should be absent.
  Rng root(2024);
  Rng trial0 = substream(2024, 0);
  Rng trial1 = substream(2024, 1);
  int equal_root = 0;
  int equal_neighbor = 0;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t a = trial0.next_u64();
    const std::uint64_t b = trial1.next_u64();
    if (a == root.next_u64()) ++equal_root;
    if (a == b) ++equal_neighbor;
  }
  EXPECT_LE(equal_root, 1);
  EXPECT_LE(equal_neighbor, 1);
}

}  // namespace
}  // namespace manet
