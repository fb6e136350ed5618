// Differential suite for the batched SoA kernels (geometry/
// distance_kernels.hpp). The library's bit-identity story rests on one
// claim: every batched kernel reproduces the scalar core's exact per-element
// floating-point operation sequence, on whichever path (portable loop or
// AVX2) the dispatcher picks at runtime. These tests pin that claim
// bitwise — EXPECT_EQ on doubles here means "same 64 bits", not "close" —
// across D in {1, 2, 3}, randomized coordinates, exact duplicates, and odd
// batch lengths that exercise the vector tails.

#include "geometry/distance_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/point_store.hpp"
#include "geometry/torus.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

/// Bitwise double equality (distinguishes +0/-0, compares NaNs by pattern).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// Batch lengths covering empty, sub-vector, exact-vector and tail cases.
const std::vector<std::size_t> kCounts = {0, 1, 2, 3, 4, 5, 7, 8, 64, 67, 251};

template <int D>
PointStore<D> random_store(std::size_t n, double lo, double hi, Rng& rng) {
  PointStore<D> store;
  store.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    Point<D> p;
    for (int i = 0; i < D; ++i) p.coords[static_cast<std::size_t>(i)] = rng.uniform(lo, hi);
    store.set(k, p);
  }
  return store;
}

// ----- batch_squared_distance ---------------------------------------------

template <int D>
void check_squared_distance() {
  Rng rng(20260807u + static_cast<std::uint64_t>(D));
  for (const std::size_t n : kCounts) {
    PointStore<D> store = random_store<D>(n, -3.0, 7.0, rng);
    Point<D> q;
    for (int i = 0; i < D; ++i) q.coords[static_cast<std::size_t>(i)] = rng.uniform(-3.0, 7.0);
    if (n >= 2) store.set(1, q);  // an exact duplicate lane must give exactly 0

    std::vector<double> dispatched(n), portable(n);
    kernels::batch_squared_distance<D>(store.axes(), n, q.coords.data(), dispatched.data());
    kernels::batch_squared_distance_portable<D>(store.axes(), n, q.coords.data(),
                                                portable.data());
    for (std::size_t k = 0; k < n; ++k) {
      const double scalar = squared_distance(store.get(k), q);
      EXPECT_TRUE(bits_equal(dispatched[k], scalar)) << "D=" << D << " n=" << n << " k=" << k;
      EXPECT_TRUE(bits_equal(dispatched[k], portable[k]))
          << "dispatch vs portable, D=" << D << " n=" << n << " k=" << k;
    }
  }
}

TEST(BatchSquaredDistance, BitIdenticalToScalar1D) { check_squared_distance<1>(); }
TEST(BatchSquaredDistance, BitIdenticalToScalar2D) { check_squared_distance<2>(); }
TEST(BatchSquaredDistance, BitIdenticalToScalar3D) { check_squared_distance<3>(); }

// ----- batch_pair_distance ------------------------------------------------

template <int D>
void check_pair_distance() {
  Rng rng(4242u + static_cast<std::uint64_t>(D));
  for (const std::size_t n : kCounts) {
    PointStore<D> a = random_store<D>(n, -5.0, 5.0, rng);
    PointStore<D> b = random_store<D>(n, -5.0, 5.0, rng);
    if (n >= 2) b.set(1, a.get(1));  // a zero-distance lane
    std::vector<double> dispatched(n), portable(n);
    kernels::batch_pair_distance<D>(a.axes(), b.axes(), n, dispatched.data());
    kernels::batch_pair_distance_portable<D>(a.axes(), b.axes(), n, portable.data());
    for (std::size_t k = 0; k < n; ++k) {
      const double scalar = distance(a.get(k), b.get(k));
      EXPECT_TRUE(bits_equal(dispatched[k], scalar)) << "D=" << D << " n=" << n << " k=" << k;
      EXPECT_TRUE(bits_equal(dispatched[k], portable[k]))
          << "dispatch vs portable, D=" << D << " n=" << n << " k=" << k;
    }
  }
}

TEST(BatchPairDistance, BitIdenticalToScalar1D) { check_pair_distance<1>(); }
TEST(BatchPairDistance, BitIdenticalToScalar2D) { check_pair_distance<2>(); }
TEST(BatchPairDistance, BitIdenticalToScalar3D) { check_pair_distance<3>(); }

// ----- batch_masked_advance -----------------------------------------------

template <int D>
void check_masked_advance() {
  Rng rng(1717u + static_cast<std::uint64_t>(D));
  for (const std::size_t n : kCounts) {
    PointStore<D> pos = random_store<D>(n, 0.0, 10.0, rng);
    PointStore<D> dest = random_store<D>(n, 0.0, 10.0, rng);
    std::vector<double> scale(n);
    std::vector<std::uint8_t> mask(n);
    for (std::size_t k = 0; k < n; ++k) {
      mask[k] = rng.bernoulli(0.5) ? 1 : 0;
      // Masked-off lanes get a poisonous scale on purpose: a select-based
      // kernel never reads it, a multiply-by-zero one would produce NaN.
      scale[k] = mask[k] != 0 ? rng.uniform(0.0, 1.0)
                              : std::numeric_limits<double>::quiet_NaN();
    }

    // Scalar reference on a copy.
    PointStore<D> expected = pos;
    for (std::size_t k = 0; k < n; ++k) {
      if (mask[k] == 0) continue;
      Point<D> p = expected.get(k);
      const Point<D> t = dest.get(k);
      for (int i = 0; i < D; ++i) {
        const std::size_t a = static_cast<std::size_t>(i);
        p.coords[a] = p.coords[a] + (t.coords[a] - p.coords[a]) * scale[k];
      }
      expected.set(k, p);
    }

    PointStore<D> portable = pos;
    kernels::batch_masked_advance<D>(pos.mutable_axes(), dest.axes(), scale.data(), mask.data(),
                                     n);
    kernels::batch_masked_advance_portable<D>(portable.mutable_axes(), dest.axes(), scale.data(),
                                              mask.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      for (int i = 0; i < D; ++i) {
        const std::size_t a = static_cast<std::size_t>(i);
        EXPECT_TRUE(bits_equal(pos.get(k).coords[a], expected.get(k).coords[a]))
            << "D=" << D << " n=" << n << " k=" << k << " axis=" << i;
        EXPECT_TRUE(bits_equal(pos.get(k).coords[a], portable.get(k).coords[a]))
            << "dispatch vs portable, D=" << D << " n=" << n << " k=" << k << " axis=" << i;
      }
    }
  }
}

TEST(BatchMaskedAdvance, BitIdenticalToScalarAndLeavesMaskedLanesUntouched1D) {
  check_masked_advance<1>();
}
TEST(BatchMaskedAdvance, BitIdenticalToScalarAndLeavesMaskedLanesUntouched2D) {
  check_masked_advance<2>();
}
TEST(BatchMaskedAdvance, BitIdenticalToScalarAndLeavesMaskedLanesUntouched3D) {
  check_masked_advance<3>();
}

// ----- prim_relax_argmin ---------------------------------------------------

/// One dense Prim round written out with the scalar core: the kernels'
/// contract (geometry/distance_kernels.hpp) as plain code.
template <int D>
kernels::PrimPick reference_prim_round(const PointStore<D>& fringe, std::size_t count,
                                       const Point<D>& q, std::uint32_t current,
                                       std::vector<double>& best,
                                       std::vector<std::uint32_t>& from) {
  kernels::PrimPick pick{count, false};
  double key = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < count; ++k) {
    const double d2 = squared_distance(fringe.get(k), q);
    if (d2 < best[k]) {
      best[k] = d2;
      from[k] = current;
    }
    if (best[k] < key) {
      key = best[k];
      pick = {k, false};
    } else if (best[k] == key) {
      pick.tie = true;
    }
  }
  return pick;
}

/// Kernel state of one form under test.
struct PrimState {
  std::vector<double> best;
  std::vector<std::uint32_t> from;
};

/// Runs `rounds` successive Prim rounds over `fringe` through the reference,
/// the portable form and (when the CPU has it) the AVX2 form, each on its
/// own copy of best/from, and requires bit-equal keys, equal `from` ids and
/// equal picks after every round. The parent-less instantiations run too,
/// with no `from` at all: the same keys and slot, and no tie flag. Returns
/// the reference picks.
template <int D>
std::vector<kernels::PrimPick> check_prim_rounds(const PointStore<D>& fringe, std::size_t count,
                                                 const std::vector<Point<D>>& queries,
                                                 const std::vector<double>& initial_best) {
  PrimState reference{initial_best, std::vector<std::uint32_t>(count, 0)};
  PrimState portable = reference;
  PrimState avx2 = reference;
  std::vector<double> portable_keys = initial_best;
  std::vector<double> avx2_keys = initial_best;
  std::vector<kernels::PrimPick> picks;
  for (std::size_t r = 0; r < queries.size(); ++r) {
    const auto current = static_cast<std::uint32_t>(1000 + r);
    const double* q = queries[r].coords.data();
    const kernels::PrimPick expected = reference_prim_round<D>(
        fringe, count, queries[r], current, reference.best, reference.from);
    picks.push_back(expected);
    const kernels::PrimPick got = kernels::prim_relax_argmin_portable<D>(
        fringe.axes(), count, q, current, portable.best.data(), portable.from.data());
    EXPECT_EQ(got.slot, expected.slot) << "portable, D=" << D << " count=" << count;
    EXPECT_EQ(got.tie, expected.tie) << "portable, D=" << D << " count=" << count;
    const kernels::PrimPick keys_only = kernels::prim_relax_argmin_portable<D, false>(
        fringe.axes(), count, q, current, portable_keys.data(), nullptr);
    EXPECT_EQ(keys_only.slot, expected.slot) << "portable keys, D=" << D << " count=" << count;
    EXPECT_FALSE(keys_only.tie) << "portable keys, D=" << D << " count=" << count;
#if MANET_KERNELS_X86
    if (kernels::cpu_has_avx2()) {
      const kernels::PrimPick lanes = kernels::prim_relax_argmin_avx2<D>(
          fringe.axes(), count, q, current, avx2.best.data(), avx2.from.data());
      EXPECT_EQ(lanes.slot, expected.slot) << "avx2, D=" << D << " count=" << count;
      EXPECT_EQ(lanes.tie, expected.tie) << "avx2, D=" << D << " count=" << count;
      const kernels::PrimPick lane_keys = kernels::prim_relax_argmin_avx2<D, false>(
          fringe.axes(), count, q, current, avx2_keys.data(), nullptr);
      EXPECT_EQ(lane_keys.slot, expected.slot) << "avx2 keys, D=" << D << " count=" << count;
      EXPECT_FALSE(lane_keys.tie) << "avx2 keys, D=" << D << " count=" << count;
    }
#endif
    for (std::size_t k = 0; k < count; ++k) {
      EXPECT_TRUE(bits_equal(portable.best[k], reference.best[k])) << "k=" << k;
      EXPECT_EQ(portable.from[k], reference.from[k]) << "k=" << k;
      EXPECT_TRUE(bits_equal(portable_keys[k], reference.best[k])) << "keys k=" << k;
#if MANET_KERNELS_X86
      if (kernels::cpu_has_avx2()) {
        EXPECT_TRUE(bits_equal(avx2.best[k], reference.best[k])) << "avx2 k=" << k;
        EXPECT_EQ(avx2.from[k], reference.from[k]) << "avx2 k=" << k;
        EXPECT_TRUE(bits_equal(avx2_keys[k], reference.best[k])) << "avx2 keys k=" << k;
      }
#endif
    }
  }
  return picks;
}

/// Counts covering the sub-vector, one-block, two-block and tail cases, and
/// the dense path's largest fringes.
const std::vector<std::size_t> kPrimCounts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128};

template <int D>
void check_prim_relax_argmin() {
  Rng rng(4242u + static_cast<std::uint64_t>(D));
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t count : kPrimCounts) {
    // Random coordinates, fresh keys, several rounds: later rounds relax
    // only some slots.
    {
      const PointStore<D> fringe = random_store<D>(count, -5.0, 5.0, rng);
      std::vector<Point<D>> queries(6);
      for (auto& q : queries) {
        for (int i = 0; i < D; ++i) q.coords[static_cast<std::size_t>(i)] = rng.uniform(-5, 5);
      }
      check_prim_rounds<D>(fringe, count, queries, std::vector<double>(count, inf));
    }
    // A small integer lattice: many equal keys inside a lane, across lanes
    // and between the two lane sets, and relaxations that tie the old key
    // (which must keep the old `from`).
    {
      PointStore<D> fringe;
      fringe.resize(count);
      for (std::size_t k = 0; k < count; ++k) {
        Point<D> p;
        for (int i = 0; i < D; ++i) {
          p.coords[static_cast<std::size_t>(i)] = static_cast<double>(rng.next_u64() % 3);
        }
        fringe.set(k, p);
      }
      std::vector<Point<D>> queries(6);
      for (auto& q : queries) {
        for (int i = 0; i < D; ++i) {
          q.coords[static_cast<std::size_t>(i)] = static_cast<double>(rng.next_u64() % 3);
        }
      }
      std::vector<double> initial(count);
      for (double& b : initial) b = rng.bernoulli(0.5) ? inf : static_cast<double>(rng.next_u64() % 4);
      check_prim_rounds<D>(fringe, count, queries, initial);
    }
  }
}

TEST(PrimRelaxArgmin, FormsMatchTheScalarRound1D) { check_prim_relax_argmin<1>(); }
TEST(PrimRelaxArgmin, FormsMatchTheScalarRound2D) { check_prim_relax_argmin<2>(); }
TEST(PrimRelaxArgmin, FormsMatchTheScalarRound3D) { check_prim_relax_argmin<3>(); }

TEST(PrimRelaxArgmin, TiesPickTheLowestSlotAndAreReported) {
  // Every slot at squared distance 100 from the origin except the slots in
  // `near`, at distance 1: the pick is the lowest of them, and `tie` is set
  // exactly when there are two. The pairs cover one lane (slots 8 apart),
  // neighboring lanes, the two lane sets (4 apart) and the scalar tail.
  const double inf = std::numeric_limits<double>::infinity();
  const Point2 origin{{0.0, 0.0}};
  const std::vector<std::vector<std::size_t>> cases = {
      {0}, {5}, {126}, {0, 8}, {3, 11}, {1, 2}, {2, 6}, {9, 1}, {120, 124}, {126, 125}, {7, 126}};
  for (const std::size_t count : {std::size_t{127}, std::size_t{128}}) {
    for (const auto& near : cases) {
      PointStore<2> fringe;
      fringe.resize(count);
      for (std::size_t k = 0; k < count; ++k) fringe.set(k, Point2{{6.0, 8.0}});
      for (const std::size_t k : near) fringe.set(k, Point2{{0.0, 1.0}});
      const auto picks = check_prim_rounds<2>(fringe, count, {origin},
                                              std::vector<double>(count, inf));
      EXPECT_EQ(picks[0].slot, *std::min_element(near.begin(), near.end()));
      EXPECT_EQ(picks[0].tie, near.size() > 1);
    }
  }
}

TEST(PrimRelaxArgmin, TorusRoundMatchesTheTorusScalarCore) {
  Rng rng(4343u);
  const double side = 10.0;
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t count : kPrimCounts) {
    const PointStore<2> fringe = random_store<2>(count, 0.0, side, rng);
    std::vector<double> best(count, inf);
    std::vector<std::uint32_t> from(count, 0);
    const Point2 q{{rng.uniform(0.0, side), rng.uniform(0.0, side)}};
    const kernels::PrimPick pick = kernels::torus_prim_relax_argmin<2>(
        fringe.axes(), count, q.coords.data(), side, 7, best.data(), from.data());
    std::size_t expected = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const double d2 = torus_squared_distance(fringe.get(k), q, side);
      EXPECT_TRUE(bits_equal(best[k], d2)) << "k=" << k;
      EXPECT_EQ(from[k], 7u);
      if (d2 < best[expected]) expected = k;
    }
    EXPECT_EQ(pick.slot, expected) << "count=" << count;
    EXPECT_FALSE(pick.tie);
  }
}

// ----- scalar cores are the public metrics --------------------------------

TEST(ScalarCores, PointAndTorusMetricsDelegateToTheKernelHeader) {
  const Point<3> a{{1.0, 2.0, 3.0}};
  const Point<3> b{{4.0, 6.0, 3.0}};
  EXPECT_TRUE(bits_equal(squared_distance(a, b),
                         kernels::squared_distance_scalar<3>(a.coords.data(), b.coords.data())));
  EXPECT_TRUE(bits_equal(
      torus_squared_distance(a, b, 10.0),
      kernels::torus_squared_distance_scalar<3>(a.coords.data(), b.coords.data(), 10.0)));
}

}  // namespace
}  // namespace manet
