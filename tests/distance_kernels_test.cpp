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
#include <array>
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
/// contract (geometry/distance_kernels.hpp) as plain code. Returns the pick.
template <int D>
std::size_t reference_prim_round(const PointStore<D>& fringe, std::size_t count,
                                 const Point<D>& q, std::vector<double>& best) {
  std::size_t pick = count;
  double key = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < count; ++k) {
    const double d2 = squared_distance(fringe.get(k), q);
    if (d2 < best[k]) best[k] = d2;
    if (best[k] < key) {
      key = best[k];
      pick = k;
    }
  }
  return pick;
}

/// K fringes of one count, each with its own query per round
/// (queries[r][j] is fringe j's in round r) and its own initial keys.
template <int D, std::size_t K>
struct PrimRounds {
  std::array<PointStore<D>, K> fringes;
  std::vector<std::array<Point<D>, K>> queries;
  std::array<std::vector<double>, K> initial_best;
};

/// One K-fringe round through the portable or the AVX2 form.
template <int D, std::size_t K>
kernels::PrimPicks<K> run_prim_form(bool avx2, const std::array<kernels::PrimFringe<D>, K>& round,
                                    std::size_t count) {
#if MANET_KERNELS_X86
  if (avx2) return kernels::prim_relax_argmin_avx2<D>(round, count);
#endif
  EXPECT_FALSE(avx2);
  return kernels::prim_relax_argmin_portable<D>(round, count);
}

/// Runs every round of `c` through the reference, one scalar round per
/// fringe, and through each K-fringe form: portable and (when the CPU has
/// it) AVX2, each on its own copy of the keys. After every round each
/// fringe's keys must be bit-equal and its pick equal to the reference's.
/// Returns the reference picks, round by round.
template <int D, std::size_t K>
std::vector<kernels::PrimPicks<K>> check_prim_rounds(const PrimRounds<D, K>& c,
                                                     std::size_t count) {
  struct Form {
    const char* name;
    bool avx2;
    std::array<std::vector<double>, K> best;
  };
  std::array<std::vector<double>, K> reference = c.initial_best;
  std::vector<Form> forms = {{"portable", false, reference}};
#if MANET_KERNELS_X86
  if (kernels::cpu_has_avx2()) forms.push_back({"avx2", true, reference});
#endif
  std::vector<kernels::PrimPicks<K>> picks;
  for (std::size_t r = 0; r < c.queries.size(); ++r) {
    kernels::PrimPicks<K> expected;
    for (std::size_t j = 0; j < K; ++j) {
      expected[j] = reference_prim_round<D>(c.fringes[j], count, c.queries[r][j], reference[j]);
    }
    picks.push_back(expected);
    for (Form& form : forms) {
      std::array<kernels::PrimFringe<D>, K> round;
      for (std::size_t j = 0; j < K; ++j) {
        round[j] = {c.fringes[j].axes(), c.queries[r][j].coords.data(), form.best[j].data()};
      }
      const kernels::PrimPicks<K> got = run_prim_form<D>(form.avx2, round, count);
      for (std::size_t j = 0; j < K; ++j) {
        SCOPED_TRACE(::testing::Message() << form.name << ", D=" << D << " K=" << K
                                          << " count=" << count << " round " << r
                                          << " fringe " << j);
        EXPECT_EQ(got[j], expected[j]);
        for (std::size_t k = 0; k < count; ++k) {
          EXPECT_TRUE(bits_equal(form.best[j][k], reference[j][k])) << "k=" << k;
        }
      }
    }
  }
  return picks;
}

/// A point with every coordinate drawn from `draw`.
template <int D, class Draw>
Point<D> point_of(Draw&& draw) {
  Point<D> p;
  for (int i = 0; i < D; ++i) p.coords[static_cast<std::size_t>(i)] = draw();
  return p;
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
      PrimRounds<D, 1> c{{random_store<D>(count, -5.0, 5.0, rng)}, {}, {}};
      for (int r = 0; r < 6; ++r) c.queries.push_back({point_of<D>([&] { return rng.uniform(-5, 5); })});
      c.initial_best[0].assign(count, inf);
      check_prim_rounds(c, count);
    }
    // A small integer lattice: many equal keys inside a lane, across lanes
    // and between the two lane sets, and relaxations that tie the old key.
    {
      const auto lattice = [&] { return static_cast<double>(rng.next_u64() % 3); };
      PrimRounds<D, 1> c;
      c.fringes[0].resize(count);
      for (std::size_t k = 0; k < count; ++k) c.fringes[0].set(k, point_of<D>(lattice));
      for (int r = 0; r < 6; ++r) c.queries.push_back({point_of<D>(lattice)});
      for (std::size_t k = 0; k < count; ++k) {
        c.initial_best[0].push_back(rng.bernoulli(0.5) ? inf
                                                       : static_cast<double>(rng.next_u64() % 4));
      }
      check_prim_rounds(c, count);
    }
  }
}

TEST(PrimRelaxArgmin, FormsMatchTheScalarRound1D) { check_prim_relax_argmin<1>(); }
TEST(PrimRelaxArgmin, FormsMatchTheScalarRound2D) { check_prim_relax_argmin<2>(); }
TEST(PrimRelaxArgmin, FormsMatchTheScalarRound3D) { check_prim_relax_argmin<3>(); }

/// Fringe j of a K-fringe case: uniform, coincident pairs, collinear at
/// equal gaps or all equal, by `(j + variant) % 4`, so every kind meets
/// every position in the batch. The queries follow the kind: the shared
/// point for all-equal sets (every key 0), a point on the line for
/// collinear ones, else a uniform point.
template <int D, std::size_t K>
PrimRounds<D, K> mixed_prim_rounds(std::size_t count, std::size_t variant, Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto uniform = [&] { return rng.uniform(0.0, 8.0); };
  PrimRounds<D, K> c;
  c.queries.resize(5);
  for (std::size_t j = 0; j < K; ++j) {
    const std::size_t kind = (j + variant) % 4;
    PointStore<D>& fringe = c.fringes[j];
    fringe.resize(count);
    const Point<D> anchor = point_of<D>(uniform);
    for (std::size_t k = 0; k < count; ++k) {
      Point<D> p = anchor;
      if (kind == 0 || (kind == 1 && k % 2 == 0)) p = point_of<D>(uniform);
      if (kind == 1 && k % 2 == 1) p = fringe.get(k - 1);
      if (kind == 2) p.coords[0] = 0.5 * static_cast<double>(k);
      fringe.set(k, p);
    }
    for (auto& round : c.queries) {
      round[j] = kind == 3 ? anchor : point_of<D>(uniform);
      if (kind == 2) {
        round[j] = anchor;
        round[j].coords[0] = 0.5 * static_cast<double>(rng.next_u64() % (count + 1));
      }
    }
    c.initial_best[j].assign(count, inf);
  }
  return c;
}

template <int D>
void check_k_fringe_rounds() {
  Rng rng(4545u + static_cast<std::uint64_t>(D));
  for (const std::size_t count : {2, 3, 4, 5, 16, 127, 128, 896}) {
    for (std::size_t variant = 0; variant < 4; ++variant) {
      check_prim_rounds(mixed_prim_rounds<D, 2>(count, variant, rng), count);
      check_prim_rounds(mixed_prim_rounds<D, 4>(count, variant, rng), count);
    }
  }
}

TEST(PrimRelaxArgmin, KFringeRoundEqualsKSeparateRounds1D) { check_k_fringe_rounds<1>(); }
TEST(PrimRelaxArgmin, KFringeRoundEqualsKSeparateRounds2D) { check_k_fringe_rounds<2>(); }
TEST(PrimRelaxArgmin, KFringeRoundEqualsKSeparateRounds3D) { check_k_fringe_rounds<3>(); }

TEST(PrimRelaxArgmin, TiesPickTheLowestSlot) {
  // Every slot at squared distance 100 from the origin except the slots in
  // `near`, at distance 1: every form picks the lowest of them. The pairs
  // cover one lane (slots 8 apart), neighboring lanes, the two lane sets (4
  // apart), lanes whose bit order is not slot order, and the scalar tail.
  const double inf = std::numeric_limits<double>::infinity();
  const Point2 origin{{0.0, 0.0}};
  const std::vector<std::vector<std::size_t>> cases = {
      {0}, {5}, {126}, {0, 8}, {3, 11}, {1, 2}, {2, 6}, {9, 1}, {120, 124}, {126, 125}, {7, 126}};
  for (const std::size_t count : {std::size_t{127}, std::size_t{128}}) {
    for (const auto& near : cases) {
      PrimRounds<2, 1> c;
      c.fringes[0].resize(count);
      for (std::size_t k = 0; k < count; ++k) c.fringes[0].set(k, Point2{{6.0, 8.0}});
      for (const std::size_t k : near) c.fringes[0].set(k, Point2{{0.0, 1.0}});
      c.queries.push_back({origin});
      c.initial_best[0].assign(count, inf);
      const auto picks = check_prim_rounds(c, count);
      EXPECT_EQ(picks[0][0], *std::min_element(near.begin(), near.end()));
    }
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
