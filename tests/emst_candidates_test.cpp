// The one (d2, u, v) candidate sort both EMST engines use, checked directly
// against std::sort with the exact comparator: at sizes on both sides of
// the comparator cutoff and of the 8-bit/11-bit digit switch, and on inputs
// built to stress the radix's rescaled keys (ties, collisions, a digit
// shared by every element, keys at both ends of the range).

#include "topology/emst_candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

using detail::CandidateBuffer;
using detail::EmstCandidate;

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Sorts `input` with sort_candidates and expects exactly std::sort's
/// sequence under candidate_less.
void expect_matches_std_sort(const CandidateBuffer& input, double d2_bound,
                             detail::CandidateSortScratch& scratch) {
  CandidateBuffer expected = input;
  std::sort(expected.begin(), expected.end(), detail::candidate_less);
  CandidateBuffer actual = input;
  detail::sort_candidates(actual, d2_bound, scratch);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(bits_equal(actual[i].d2, expected[i].d2) && actual[i].u == expected[i].u &&
                actual[i].v == expected[i].v)
        << "size " << input.size() << ", position " << i << ": (" << actual[i].d2 << ", "
        << actual[i].u << ", " << actual[i].v << ") != (" << expected[i].d2 << ", "
        << expected[i].u << ", " << expected[i].v << ")";
  }
}

void expect_matches_std_sort(const CandidateBuffer& input, double d2_bound) {
  detail::CandidateSortScratch scratch;
  expect_matches_std_sort(input, d2_bound, scratch);
}

/// `size` candidates with distinct (u, v) pairs and d2 uniform in
/// [0, d2_bound].
CandidateBuffer random_candidates(std::size_t size, double d2_bound, Rng& rng) {
  CandidateBuffer out;
  out.reserve(size);
  for (std::size_t k = 0; k < size; ++k) {
    out.push_back({rng.uniform(0.0, d2_bound), static_cast<std::uint32_t>(k % 977),
                   static_cast<std::uint32_t>(1000 + k)});
  }
  return out;
}

TEST(CandidateSort, MatchesStdSortAcrossCutoffsAndDigitWidths) {
  const std::size_t sizes[] = {0,
                               1,
                               detail::kRadixCutoff - 1,
                               detail::kRadixCutoff,
                               detail::kRadixCutoff + 1,
                               500,
                               detail::kSmallDigitLimit - 1,
                               detail::kSmallDigitLimit,
                               detail::kSmallDigitLimit + 1,
                               std::size_t{1} << 17};
  Rng rng(0xC0FFEEull);
  detail::CandidateSortScratch shared;  // reused across sizes, as the engines do
  for (const std::size_t size : sizes) {
    const double bound = 37.5;
    expect_matches_std_sort(random_candidates(size, bound, rng), bound, shared);
  }
}

TEST(CandidateSort, AllEqualDistancesFallBackToTheEndpointOrder) {
  for (const std::size_t size : {std::size_t{500}, detail::kSmallDigitLimit + 7}) {
    CandidateBuffer input;
    for (std::size_t k = 0; k < size; ++k) {
      // Distinct (u, v), deliberately not generated in (u, v) order.
      const auto u = static_cast<std::uint32_t>((k * 7919) % size);
      input.push_back({2.25, u, static_cast<std::uint32_t>(size + (k * 31) % 13)});
    }
    expect_matches_std_sort(input, 4.0);
  }
}

TEST(CandidateSort, KeysAtBothEndsOfTheRange) {
  // d2 = 0 maps to key 0, d2 = the bound to the largest key; a bound that
  // is exactly the maximum d2 must not overflow the 32-bit key.
  Rng rng(7);
  for (const std::size_t size : {std::size_t{300}, detail::kSmallDigitLimit * 2}) {
    const double bound = 1024.0 * 1024.0;
    CandidateBuffer input = random_candidates(size, bound, rng);
    for (std::size_t k = 0; k < size; k += 5) input[k].d2 = 0.0;
    for (std::size_t k = 1; k < size; k += 5) input[k].d2 = bound;
    expect_matches_std_sort(input, bound);
  }
}

TEST(CandidateSort, KeysThatCollideAfterRescalingAreRepairedExactly) {
  // Distances one ulp apart (and a few ulps apart) rescale to the same
  // 32-bit key; the equal-key repair must still order them by d2, then by
  // (u, v).
  const double bound = 100.0;
  CandidateBuffer input;
  double d2 = 50.0;
  for (std::uint32_t k = 0; k < 2000; ++k) {
    input.push_back({d2, 2000 - k, 5000 + k});
    if (k % 3 == 0) d2 = std::nextafter(d2, bound);
  }
  std::reverse(input.begin(), input.end());
  expect_matches_std_sort(input, bound);
}

TEST(CandidateSort, DigitSharedByEveryElementSkipsItsPass) {
  // Every d2 lies in a sliver just below the bound, so the top digit of
  // every key is the same and its scatter pass is skipped; the remaining
  // passes must still produce the exact order, at both digit widths (the
  // result then ends in either buffer).
  Rng rng(11);
  const double bound = 64.0;
  for (const std::size_t size : {std::size_t{800}, detail::kSmallDigitLimit + 100}) {
    CandidateBuffer input;
    for (std::size_t k = 0; k < size; ++k) {
      input.push_back({bound * (1.0 - rng.uniform(0.0, 1e-4)), static_cast<std::uint32_t>(k),
                       static_cast<std::uint32_t>(k + 1)});
    }
    expect_matches_std_sort(input, bound);
  }
  // Small integer-valued distances against a huge bound: the high digits
  // are all zero instead.
  CandidateBuffer low;
  for (std::uint32_t k = 0; k < 700; ++k) low.push_back({0.0, k, k + 1});
  low[3].d2 = 1.0;
  low[400].d2 = 2.0;
  expect_matches_std_sort(low, 1e12);
}

TEST(CandidateSort, ExtremeFiniteBoundsKeepTheExactOrder) {
  // The rescaling stays finite for every finite positive bound, from
  // subnormal to the largest double.
  Rng rng(13);
  for (const double bound : {std::numeric_limits<double>::denorm_min() * 1024.0,
                             std::numeric_limits<double>::min(), 1e-300, 1e300,
                             std::numeric_limits<double>::max()}) {
    CandidateBuffer input = random_candidates(400, 1.0, rng);
    for (auto& c : input) c.d2 *= bound;
    input[0].d2 = bound;
    input[1].d2 = 0.0;
    expect_matches_std_sort(input, bound);
  }
}

TEST(CandidateSort, RejectsBoundsThatAreNotFiniteAndPositive) {
  Rng rng(17);
  const CandidateBuffer input = random_candidates(100, 1.0, rng);
  for (const double bound : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    CandidateBuffer a = input;
    detail::CandidateSortScratch scratch;
    EXPECT_THROW(detail::sort_candidates(a, bound, scratch), ContractViolation)
        << "bound " << bound;
  }
}

TEST(KruskalForest, UnitesEachComponentOnce) {
  detail::KruskalForest forest;
  forest.reset(6);
  EXPECT_TRUE(forest.unite(0, 1));
  EXPECT_TRUE(forest.unite(2, 3));
  EXPECT_FALSE(forest.unite(1, 0));
  EXPECT_TRUE(forest.unite(1, 3));
  EXPECT_FALSE(forest.unite(0, 2));
  EXPECT_EQ(forest.find(0), forest.find(3));
  EXPECT_NE(forest.find(0), forest.find(4));
  forest.reset(6);
  EXPECT_NE(forest.find(0), forest.find(1));
}

}  // namespace
}  // namespace manet
