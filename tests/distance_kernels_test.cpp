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

// ----- batch_tuple_not_equal ----------------------------------------------

template <int D>
void check_tuple_not_equal() {
  Rng rng(99u + static_cast<std::uint64_t>(D));
  for (const std::size_t n : kCounts) {
    PointStore<D> a = random_store<D>(n, 0.0, 1.0, rng);
    PointStore<D> b = a;  // start equal everywhere
    // Perturb a random subset, sometimes only in the last axis.
    for (std::size_t k = 0; k < n; ++k) {
      if (rng.bernoulli(0.4)) {
        Point<D> p = b.get(k);
        p.coords[static_cast<std::size_t>(D - 1)] += 1e-12;
        b.set(k, p);
      }
    }
    std::vector<std::uint8_t> dispatched(n, 2), portable(n, 2);
    kernels::batch_tuple_not_equal<D>(a.axes(), b.axes(), n, dispatched.data());
    kernels::batch_tuple_not_equal_portable<D>(a.axes(), b.axes(), n, portable.data());
    for (std::size_t k = 0; k < n; ++k) {
      const bool neq = !(a.get(k) == b.get(k));
      EXPECT_EQ(dispatched[k], neq ? 1 : 0) << "D=" << D << " n=" << n << " k=" << k;
      EXPECT_EQ(dispatched[k], portable[k]) << "D=" << D << " n=" << n << " k=" << k;
    }
  }
}

TEST(BatchTupleNotEqual, MatchesPointInequality1D) { check_tuple_not_equal<1>(); }
TEST(BatchTupleNotEqual, MatchesPointInequality2D) { check_tuple_not_equal<2>(); }
TEST(BatchTupleNotEqual, MatchesPointInequality3D) { check_tuple_not_equal<3>(); }

TEST(BatchTupleNotEqual, SignedZeroLanesCompareEqual) {
  // IEEE `!=` says -0.0 == +0.0; the kernel must agree (vcmppd does).
  PointStore<2> a, b;
  a.resize(5);
  b.resize(5);
  for (std::size_t k = 0; k < 5; ++k) {
    a.set(k, Point<2>{{+0.0, 1.0}});
    b.set(k, Point<2>{{-0.0, 1.0}});
  }
  std::vector<std::uint8_t> out(5, 2);
  kernels::batch_tuple_not_equal<2>(a.axes(), b.axes(), 5, out.data());
  for (std::size_t k = 0; k < 5; ++k) EXPECT_EQ(out[k], 0u) << k;
}

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
