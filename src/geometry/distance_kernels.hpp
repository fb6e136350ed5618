#pragma once

// Batched distance kernels over structure-of-arrays coordinates.
//
// This header is the single source of truth for the library's two metrics:
// `squared_distance` (point.hpp) and `torus_squared_distance` (torus.hpp)
// both delegate to the scalar cores below. The torus metric has no batched
// form: its only grid caller, CellGrid's torus pair scan, serves the
// stationary torus solver (torus_critical_range). Every batched Euclidean
// (one candidate against a contiguous SoA run) kernel reproduces the scalar
// core's exact floating-point operation sequence PER ELEMENT:
//
//   sum = 0; for each axis i in 0..D-1: d = a_i - b_i; sum += d * d
//
// The accumulation order is per-axis, fixed, and identical on every path,
// so every pair's d2 is bit-identical no matter which path computed it.
// Each elementwise kernel is ONE portable loop; `with_best_isa` runs it as
// compiled for the build's baseline ISA or compiled a second time for AVX2
// (the vectorizer turns the same source into 256-bit lanes). Subtract,
// multiply and add stay separate correctly-rounded IEEE-754 operations:
// fused multiply-add is never used (it would change the rounding of
// d*d + sum), and the build compiles with -ffp-contract=off so the compiler
// cannot contract behind our back either. The dense Prim round is the one
// hand-written intrinsic kernel (see DESIGN.md §15 for the bit-identity
// argument and for why Prim keeps its intrinsics).
//
// This is the ONLY file in src/ allowed to include SIMD intrinsics headers
// or query CPU features (enforced by the manet-lint `simd-confinement`
// rule): every other layer calls these kernels and stays ISA-agnostic.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#define MANET_KERNELS_X86 1
#include <immintrin.h>  // manet-lint: allow(simd-confinement) — this is the confinement point
#else
#define MANET_KERNELS_X86 0
#endif

namespace manet::kernels {

/// One `const double*` per axis of a structure-of-arrays coordinate block.
template <int D>
using AxisPointers = std::array<const double*, static_cast<std::size_t>(D)>;

/// Mutable variant, for kernels that update coordinates in place.
template <int D>
using MutableAxisPointers = std::array<double*, static_cast<std::size_t>(D)>;

// ---------------------------------------------------------------------------
// Scalar cores — the definition of the metric. Everything else matches these.
// ---------------------------------------------------------------------------

/// Squared Euclidean distance between two D-tuples stored contiguously.
template <int D>
constexpr double squared_distance_scalar(const double* a, const double* b) noexcept {
  double sum = 0.0;
  for (int i = 0; i < D; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Squared distance on the flat torus [0, side]^D. The caller validates
/// side > 0 (torus.hpp keeps the MANET_EXPECTS contract at the public API).
template <int D>
double torus_squared_distance_scalar(const double* a, const double* b, double side) noexcept {
  double sum = 0.0;
  for (int i = 0; i < D; ++i) {
    double d = std::abs(a[i] - b[i]);
    d = std::min(d, side - d);
    sum += d * d;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// ISA dispatch. One cached CPUID probe, and one helper that runs a kernel's
// portable loop either as compiled for the build's baseline ISA or compiled
// a second time for AVX2. Non-x86 builds and pre-AVX2 hardware run the
// baseline form; a build whose baseline already has AVX2 (-march=x86-64-v3)
// has no second compilation: its baseline loop is the AVX2 code.
// ---------------------------------------------------------------------------

inline bool cpu_has_avx2() noexcept {
#if MANET_KERNELS_X86
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

#if MANET_KERNELS_X86 && !defined(__AVX2__)
namespace detail {

/// `flatten` inlines `body` and the portable loop it calls into this AVX2
/// function, so the vectorizer emits 256-bit code from the one source. GCC
/// never inlines an AVX2 function into a baseline caller, so each
/// instantiation stays a symbol of its own, which
/// scripts/check_avx2_clones.sh checks for vector code.
template <class Body>
__attribute__((target("avx2"), flatten)) void run_avx2(const Body& body) noexcept {
  body();
}

}  // namespace detail
#endif

/// Runs `body` (a call of a portable kernel) in its AVX2 compilation when the
/// CPU has AVX2, else as compiled for the baseline ISA. Both forms execute
/// the same per-element operation sequence, so the results are bit-identical.
template <class Body>
inline void with_best_isa(const Body& body) noexcept {
#if MANET_KERNELS_X86 && !defined(__AVX2__)
  if (cpu_has_avx2()) {
    detail::run_avx2(body);
    return;
  }
#endif
  body();
}

// ---------------------------------------------------------------------------
// Elementwise kernels. Each `_portable` loop is the kernel's only body: it
// keeps the scalar core's per-element order and is written so that the
// vectorizer accepts it (no short-circuit, no conditional store, no char
// store that may alias the inputs). The dispatched form runs the same loop
// through with_best_isa.
// ---------------------------------------------------------------------------

/// out[k] = squared_distance(axes[.][k], q) for k in [0, count).
template <int D>
void batch_squared_distance_portable(const AxisPointers<D>& axes, std::size_t count,
                                     const double* q, double* out) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    double sum = 0.0;
    for (int i = 0; i < D; ++i) {
      const double d = axes[static_cast<std::size_t>(i)][k] - q[i];
      sum += d * d;
    }
    out[k] = sum;
  }
}

/// out[k] = squared_distance(axes[.][k], q); bit-identical to the scalar core.
template <int D>
inline void batch_squared_distance(const AxisPointers<D>& axes, std::size_t count,
                                   const double* q, double* out) noexcept {
  with_best_isa([&] { batch_squared_distance_portable<D>(axes, count, q, out); });
}

/// out[k] = distance between the k-th tuples of `a` and `b`:
/// sqrt(sum_i (a_i - b_i)^2) in the fixed per-axis order. sqrt is an IEEE
/// correctly-rounded operation, so the vectorized form (vsqrtpd) is
/// bit-identical to std::sqrt lane by lane; the build's -fno-math-errno lets
/// the vectorizer use it. Used by the waypoint model's leg-progress pass.
template <int D>
void batch_pair_distance_portable(const AxisPointers<D>& a, const AxisPointers<D>& b,
                                  std::size_t count, double* out) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    double sum = 0.0;
    for (int i = 0; i < D; ++i) {
      const double d = a[static_cast<std::size_t>(i)][k] - b[static_cast<std::size_t>(i)][k];
      sum += d * d;
    }
    out[k] = std::sqrt(sum);
  }
}

/// Pairwise Euclidean distance over two SoA blocks; bit-identical to
/// `distance(a_k, b_k)` per element.
template <int D>
inline void batch_pair_distance(const AxisPointers<D>& a, const AxisPointers<D>& b,
                                std::size_t count, double* out) noexcept {
  with_best_isa([&] { batch_pair_distance_portable<D>(a, b, count, out); });
}

/// Masked leg advance for the waypoint model: where mask[k] != 0,
///   pos_i[k] += (dest_i[k] - pos_i[k]) * scale[k]   for each axis i,
/// exactly the scalar `pos += (dest - pos) * scale`; other lanes are left
/// untouched. The select is a bit select on the two values, not a
/// multiply-by-zero (masked lanes cannot pick up -0.0 or NaN from a garbage
/// scale) and not a conditional store (which keeps the loop scalar).
template <int D>
void batch_masked_advance_portable(const MutableAxisPointers<D>& pos, const AxisPointers<D>& dest,
                                   const double* scale, const std::uint8_t* mask,
                                   std::size_t count) noexcept {
  for (int i = 0; i < D; ++i) {
    double* p = pos[static_cast<std::size_t>(i)];
    const double* t = dest[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < count; ++k) {
      const double advanced = p[k] + (t[k] - p[k]) * scale[k];
      const std::uint64_t keep = std::uint64_t{0} - std::uint64_t{mask[k] == 0};
      p[k] = std::bit_cast<double>((std::bit_cast<std::uint64_t>(advanced) & ~keep) |
                                   (std::bit_cast<std::uint64_t>(p[k]) & keep));
    }
  }
}

/// Masked waypoint advance; see the portable form for exact semantics.
template <int D>
inline void batch_masked_advance(const MutableAxisPointers<D>& pos, const AxisPointers<D>& dest,
                                 const double* scale, const std::uint8_t* mask,
                                 std::size_t count) noexcept {
  with_best_isa([&] { batch_masked_advance_portable<D>(pos, dest, scale, mask, count); });
}

// ---------------------------------------------------------------------------
// Dense Prim round (topology/emst_grid.cpp's prim_order_keys). A fringe — the
// vertices not yet in the tree — is compacted into slots [0, count): SoA
// coordinates and the best squared distance to the tree so far (`best`). One
// round relaxes every slot against the vertex just added at q and picks the
// next vertex:
//
//   d2 = squared distance (scalar core's per-axis order, no FMA)
//   best[k] = d2 < best[k] ? d2 : best[k]
//   pick = the lowest slot holding the smallest updated best[k]
//
// The pick is `count` when no key is finite. The round keeps no parents:
// its callers need only the keys in the order Prim adds their vertices (the
// tree's weights), and every tree comes from the grid path.
//
// A round serves K independent fringes (PrimFringe) of the same count in one
// loop: each block of slots is relaxed for fringe 0, 1, ..., K-1 in turn, and
// every fringe keeps its own argmin. The fringes share no state, so the CPU
// overlaps their per-round chains (argmin, next query, broadcast, relax),
// and each fringe's outcome is exactly that of a round of its own. K = 1 is
// a single solve.
// ---------------------------------------------------------------------------

/// One fringe of a dense Prim round and the vertex just added to its tree.
template <int D>
struct PrimFringe {
  AxisPointers<D> axes;  ///< coordinates of the slots
  const double* q;       ///< coordinates of the vertex just added
  double* best;          ///< the key of each slot, relaxed in place
};

/// One pick per fringe of a K-fringe round: the lowest slot holding the
/// smallest key (count if none is finite).
template <std::size_t K>
using PrimPicks = std::array<std::size_t, K>;

namespace detail {

/// The scalar relax + argmin over slots [begin, end) of every fringe, slot
/// by slot, folded into each fringe's pick, whose current smallest key is
/// keys[j].
template <int D, std::size_t K>
void prim_relax_fold(const std::array<PrimFringe<D>, K>& fringes, std::size_t begin,
                     std::size_t end, PrimPicks<K>& picks, std::array<double, K>& keys) noexcept {
  for (std::size_t k = begin; k < end; ++k) {
    for (std::size_t j = 0; j < K; ++j) {
      const PrimFringe<D>& f = fringes[j];
      double sum = 0.0;
      for (int i = 0; i < D; ++i) {
        const double d = f.axes[static_cast<std::size_t>(i)][k] - f.q[i];
        sum += d * d;
      }
      const bool closer = sum < f.best[k];
      f.best[k] = closer ? sum : f.best[k];
      if (f.best[k] < keys[j]) {
        keys[j] = f.best[k];
        picks[j] = k;
      }
    }
  }
}

}  // namespace detail

/// One dense Prim round on each of K fringes of `count` slots; see the
/// section comment for semantics.
template <int D, std::size_t K>
PrimPicks<K> prim_relax_argmin_portable(const std::array<PrimFringe<D>, K>& fringes,
                                        std::size_t count) noexcept {
  PrimPicks<K> picks;
  picks.fill(count);
  std::array<double, K> keys;
  keys.fill(std::numeric_limits<double>::infinity());
  detail::prim_relax_fold<D, K>(fringes, 0, count, picks, keys);
  return picks;
}

#if MANET_KERNELS_X86

namespace detail {

/// The per-lane running minimum of an AVX2 Prim round: each lane keeps its
/// smallest key and the lowest slot holding it.
struct PrimLanes {
  __m256d key;
  __m256i slot;
};

/// Loop-invariant operands of one fringe of an AVX2 Prim round.
template <int D>
struct PrimRoundAvx2 {
  AxisPointers<D> axes;  ///< a copy, so the loop keeps the pointers in registers
  double* best;
  __m256d q0, q1, q2;

  /// Relaxes slots [at, at + 4) (whose indices are `slot`) and folds their
  /// keys into `lanes`. The running key is a min, not a compare-and-blend,
  /// so the loop-carried chain is one instruction.
  __attribute__((target("avx2"), always_inline)) void relax4(std::size_t at, __m256i slot,
                                                             PrimLanes& lanes) const noexcept {
    __m256d d = _mm256_sub_pd(_mm256_loadu_pd(axes[0] + at), q0);
    __m256d sum = _mm256_mul_pd(d, d);
    if constexpr (D >= 2) {
      d = _mm256_sub_pd(_mm256_loadu_pd(axes[1] + at), q1);
      sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
    }
    if constexpr (D >= 3) {
      d = _mm256_sub_pd(_mm256_loadu_pd(axes[2] + at), q2);
      sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
    }
    // min(sum, old) is `sum < old ? sum : old`: the blend, in one op.
    const __m256d key = _mm256_min_pd(sum, _mm256_loadu_pd(best + at));
    _mm256_storeu_pd(best + at, key);
    const __m256d lower = _mm256_cmp_pd(key, lanes.key, _CMP_LT_OQ);
    lanes.key = _mm256_min_pd(key, lanes.key);
    lanes.slot = _mm256_castpd_si256(
        _mm256_blendv_pd(_mm256_castsi256_pd(lanes.slot), _mm256_castsi256_pd(slot), lower));
  }
};

/// The pick of one fringe's lane sets, and its smallest key: the lowest
/// slot among the lanes at the smallest key.
template <std::size_t Sets>
__attribute__((target("avx2"), always_inline)) inline std::size_t lane_pick(
    const std::array<PrimLanes, Sets>& sets, double& min_key) noexcept {
  __m256d key = sets[0].key;
  for (std::size_t s = 1; s < Sets; ++s) key = _mm256_min_pd(key, sets[s].key);
  key = _mm256_min_pd(key, _mm256_permute2f128_pd(key, key, 1));
  key = _mm256_min_pd(key, _mm256_permute_pd(key, 0b0101));
  unsigned at = 0;
  alignas(32) std::int64_t slots[4 * Sets] = {};
  for (std::size_t s = 0; s < Sets; ++s) {
    at |= static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(sets[s].key, key, _CMP_EQ_OQ)))
          << (4 * s);
    _mm256_store_si256(reinterpret_cast<__m256i*>(slots + 4 * s), sets[s].slot);
  }
  // `at` is never empty: the smallest key is one of the lanes' keys.
  auto pick = static_cast<std::size_t>(slots[__builtin_ctz(at)]);
  if ((at & (at - 1)) != 0) {
    // Rare: the key sits in several lanes, whose bit order is not slot order.
    for (unsigned rest = at; rest != 0; rest &= rest - 1) {
      pick = std::min(pick, static_cast<std::size_t>(slots[__builtin_ctz(rest)]));
    }
  }
  min_key = _mm256_cvtsd_f64(key);
  return pick;
}

}  // namespace detail

/// Lane-wise form of prim_relax_argmin_portable, and the one hand-written
/// intrinsic kernel: the portable round's fused argmin keeps the vectorizer
/// out, and the one-source forms tried ran ~2x slower (DESIGN.md §15). Each
/// block of four slots is relaxed for every fringe before the next block,
/// so K fringes give K independent loop-carried chains; a lone fringe splits
/// its slots over two lane sets (8j..8j+3 and 8j+4..8j+7) for two. A pick is
/// the portable loop's: the lowest slot among the lanes at the smallest key,
/// then the scalar tail, whose slots follow every lane's.
template <int D, std::size_t K>
__attribute__((target("avx2"))) PrimPicks<K> prim_relax_argmin_avx2(
    const std::array<PrimFringe<D>, K>& fringes, std::size_t count) noexcept {
  constexpr std::size_t kSets = K == 1 ? 2 : 1;
  std::array<detail::PrimRoundAvx2<D>, K> rounds;
  for (std::size_t j = 0; j < K; ++j) {
    const double* q = fringes[j].q;
    rounds[j] = {fringes[j].axes, fringes[j].best, _mm256_set1_pd(q[0]),
                 _mm256_set1_pd(D >= 2 ? q[1] : 0.0), _mm256_set1_pd(D >= 3 ? q[2] : 0.0)};
  }
  std::array<std::array<detail::PrimLanes, kSets>, K> lanes;
  for (auto& sets : lanes) {
    sets.fill({_mm256_set1_pd(std::numeric_limits<double>::infinity()),
               _mm256_set1_epi64x(static_cast<long long>(count))});
  }
  const __m256i four = _mm256_set1_epi64x(4);
  __m256i slot = _mm256_setr_epi64x(0, 1, 2, 3);
  std::size_t k = 0;
  for (; k + 4 * kSets <= count; k += 4 * kSets) {
    for (std::size_t s = 0; s < kSets; ++s) {
      for (std::size_t j = 0; j < K; ++j) rounds[j].relax4(k + 4 * s, slot, lanes[j][s]);
      slot = _mm256_add_epi64(slot, four);
    }
  }
  if (kSets == 2 && k + 4 <= count) {
    rounds[0].relax4(k, slot, lanes[0][0]);
    k += 4;
  }
  PrimPicks<K> picks;
  std::array<double, K> keys;
  for (std::size_t j = 0; j < K; ++j) picks[j] = detail::lane_pick(lanes[j], keys[j]);
  // The tail runs in the baseline-ISA fold, before which GCC may emit no
  // vzeroupper; with the upper halves left dirty, every SSE instruction of
  // the fold and of the caller pays a merge (measured: the K = 4 round ran
  // ~3x slower in the engine than in isolation).
  _mm256_zeroupper();
  detail::prim_relax_fold<D, K>(fringes, k, count, picks, keys);
  return picks;
}

#endif  // MANET_KERNELS_X86

/// One dense Prim round on each of K fringes; best and the picks are
/// bit-identical on every path. The AVX2 form is a source of its own, so
/// the pick is made here rather than by with_best_isa.
template <int D, std::size_t K>
inline PrimPicks<K> prim_relax_argmin(const std::array<PrimFringe<D>, K>& fringes,
                                      std::size_t count) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) return prim_relax_argmin_avx2<D, K>(fringes, count);
#endif
  return prim_relax_argmin_portable<D, K>(fringes, count);
}

}  // namespace manet::kernels
