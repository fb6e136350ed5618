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
// Dense Prim round (topology/emst_grid.cpp's dense path). A fringe — the
// vertices not yet in the tree — is compacted into slots [0, count): SoA
// coordinates, the best squared distance to the tree so far (`best`), and
// the tree vertex achieving it (`from`). One round relaxes every slot against
// the vertex `current` just added at q and picks the next vertex:
//
//   d2 = squared distance (scalar core's per-axis order, no FMA)
//   if (d2 < best[k]) { best[k] = d2; from[k] = current; }   (a blend)
//   pick = the slot with the smallest updated best[k]
//
// Ties on the key resolve to the lowest slot, and `tie` reports that
// another slot holds the same key, so the caller can apply its own
// tie rule (the smallest vertex id) with a scalar re-scan only then. Both
// fields are specified when some key is finite.
//
// A round serves K independent fringes (PrimFringe) of the same count in one
// loop: each block of slots is relaxed for fringe 0, 1, ..., K-1 in turn, and
// every fringe keeps its own argmin. The fringes share no state, so the CPU
// overlaps their per-round chains (argmin, next query, broadcast, relax),
// and each fringe's outcome is exactly that of a round of its own. K = 1 is
// a single solve.
//
// Every form takes a compile-time `Parents` flag. Without parents the round
// neither writes `from` (which may be null) nor reads `current`, and leaves
// `tie` false; `best` and the pick (the lowest slot at the smallest key) are
// the same as with parents. A caller that needs only the keys in the order
// Prim adds their vertices (topology/emst_grid.hpp's prim_order_keys) runs
// it so.
// ---------------------------------------------------------------------------

/// One fringe of a dense Prim round and the vertex just added to its tree.
template <int D>
struct PrimFringe {
  AxisPointers<D> axes;           ///< coordinates of the slots
  const double* q;                ///< coordinates of the vertex just added
  double* best;                   ///< the key of each slot, relaxed in place
  std::uint32_t* from = nullptr;  ///< the parent of each slot (with parents only)
  std::uint32_t current = 0;      ///< the id of the vertex at q (with parents only)
};

/// Outcome of one dense Prim round on one fringe.
struct PrimPick {
  std::size_t slot;  ///< lowest slot holding the smallest key (count if none is finite)
  bool tie;          ///< another slot holds the same key
};

/// One pick per fringe of a K-fringe round.
template <std::size_t K>
using PrimPicks = std::array<PrimPick, K>;

namespace detail {

/// The scalar relax + argmin over slots [begin, end) of every fringe, slot
/// by slot, folded into each fringe's pick, whose current smallest key is
/// keys[j]. Torus selects the flat-torus metric on [0, side]^D (the torus
/// scalar core's per-axis sequence).
template <int D, bool Torus, bool Parents, std::size_t K>
void prim_relax_fold(const std::array<PrimFringe<D>, K>& fringes, std::size_t begin,
                     std::size_t end, [[maybe_unused]] double side, PrimPicks<K>& picks,
                     std::array<double, K>& keys) noexcept {
  for (std::size_t k = begin; k < end; ++k) {
    for (std::size_t j = 0; j < K; ++j) {
      const PrimFringe<D>& f = fringes[j];
      double sum = 0.0;
      for (int i = 0; i < D; ++i) {
        double d = f.axes[static_cast<std::size_t>(i)][k] - f.q[i];
        if constexpr (Torus) {
          d = std::abs(d);
          d = std::min(d, side - d);
        }
        sum += d * d;
      }
      const bool closer = sum < f.best[k];
      f.best[k] = closer ? sum : f.best[k];
      if constexpr (Parents) f.from[k] = closer ? f.current : f.from[k];
      if (f.best[k] < keys[j]) {
        keys[j] = f.best[k];
        picks[j] = {k, false};
      } else if (Parents && f.best[k] == keys[j]) {
        picks[j].tie = true;
      }
    }
  }
}

/// The scalar round from slot 0 on: no pick yet, at an infinite key.
template <int D, bool Torus, bool Parents, std::size_t K>
PrimPicks<K> prim_relax_scalar(const std::array<PrimFringe<D>, K>& fringes, std::size_t count,
                               double side) noexcept {
  PrimPicks<K> picks;
  picks.fill({count, false});
  std::array<double, K> keys;
  keys.fill(std::numeric_limits<double>::infinity());
  prim_relax_fold<D, Torus, Parents, K>(fringes, 0, count, side, picks, keys);
  return picks;
}

}  // namespace detail

/// One Euclidean dense Prim round on each of K fringes of `count` slots; see
/// the section comment for semantics.
template <int D, bool Parents, std::size_t K>
PrimPicks<K> prim_relax_argmin_portable(const std::array<PrimFringe<D>, K>& fringes,
                                        std::size_t count) noexcept {
  return detail::prim_relax_scalar<D, false, Parents, K>(fringes, count, 0.0);
}

/// One dense Prim round with parents under the flat-torus metric on
/// [0, side]^D. The torus serves only the stationary boundary ablation, so it
/// has no AVX2 form and no batch.
template <int D>
PrimPick torus_prim_relax_argmin(const PrimFringe<D>& fringe, std::size_t count,
                                 double side) noexcept {
  return detail::prim_relax_scalar<D, true, true, 1>({fringe}, count, side)[0];
}

#if MANET_KERNELS_X86

namespace detail {

/// The per-lane running minimum of an AVX2 Prim round: each lane keeps its
/// smallest key, the lowest slot holding it, and (with parents) whether it
/// saw that key twice.
struct PrimLanes {
  __m256d key;
  __m256i slot;
  __m256d tie;
};

/// Loop-invariant operands of one fringe of an AVX2 Prim round.
template <int D, bool Parents>
struct PrimRoundAvx2 {
  AxisPointers<D> axes;  ///< a copy, so the loop keeps the pointers in registers
  double* best;
  std::uint32_t* from;
  __m256d q0, q1, q2;
  __m128i current;
  __m256i low_dwords;  ///< gathers the low dword of each qword lane

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
    const __m256d old = _mm256_loadu_pd(best + at);
    const __m256d key = _mm256_min_pd(sum, old);
    _mm256_storeu_pd(best + at, key);
    const __m256d lower = _mm256_cmp_pd(key, lanes.key, _CMP_LT_OQ);
    if constexpr (Parents) {
      const __m256d closer = _mm256_cmp_pd(sum, old, _CMP_LT_OQ);
      const __m128i closer32 = _mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(_mm256_castpd_si256(closer), low_dwords));
      auto* from_at = reinterpret_cast<__m128i*>(from + at);
      _mm_storeu_si128(from_at, _mm_blendv_epi8(_mm_loadu_si128(from_at), current, closer32));
      const __m256d equal = _mm256_cmp_pd(key, lanes.key, _CMP_EQ_OQ);
      lanes.tie = _mm256_andnot_pd(lower, _mm256_or_pd(lanes.tie, equal));
    }
    lanes.key = _mm256_min_pd(key, lanes.key);
    lanes.slot = _mm256_castpd_si256(
        _mm256_blendv_pd(_mm256_castsi256_pd(lanes.slot), _mm256_castsi256_pd(slot), lower));
  }
};

/// The pick of one fringe's lane sets, and its smallest key: the lowest
/// slot among the lanes at the smallest key.
template <bool Parents, std::size_t Sets>
__attribute__((target("avx2"), always_inline)) inline PrimPick lane_pick(
    const std::array<PrimLanes, Sets>& sets, double& min_key) noexcept {
  __m256d key = sets[0].key;
  for (std::size_t s = 1; s < Sets; ++s) key = _mm256_min_pd(key, sets[s].key);
  key = _mm256_min_pd(key, _mm256_permute2f128_pd(key, key, 1));
  key = _mm256_min_pd(key, _mm256_permute_pd(key, 0b0101));
  unsigned at = 0;
  int tied = 0;
  alignas(32) std::int64_t slots[4 * Sets] = {};
  for (std::size_t s = 0; s < Sets; ++s) {
    const int at_s = _mm256_movemask_pd(_mm256_cmp_pd(sets[s].key, key, _CMP_EQ_OQ));
    at |= static_cast<unsigned>(at_s) << (4 * s);
    if constexpr (Parents) tied |= _mm256_movemask_pd(sets[s].tie) & at_s;
    _mm256_store_si256(reinterpret_cast<__m256i*>(slots + 4 * s), sets[s].slot);
  }
  // `at` is never empty: the smallest key is one of the lanes' keys.
  PrimPick pick{static_cast<std::size_t>(slots[__builtin_ctz(at)]), false};
  if (tied != 0 || (at & (at - 1)) != 0) {
    // Rare: the key sits in several lanes, or twice in one.
    pick.tie = Parents;
    for (unsigned rest = at; rest != 0; rest &= rest - 1) {
      pick.slot = std::min(pick.slot, static_cast<std::size_t>(slots[__builtin_ctz(rest)]));
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
template <int D, bool Parents, std::size_t K>
__attribute__((target("avx2"))) PrimPicks<K> prim_relax_argmin_avx2(
    const std::array<PrimFringe<D>, K>& fringes, std::size_t count) noexcept {
  constexpr std::size_t kSets = K == 1 ? 2 : 1;
  using Round = detail::PrimRoundAvx2<D, Parents>;
  std::array<Round, K> rounds;
  for (std::size_t j = 0; j < K; ++j) {
    const double* q = fringes[j].q;
    rounds[j] = {fringes[j].axes,
                 fringes[j].best,
                 fringes[j].from,
                 _mm256_set1_pd(q[0]),
                 _mm256_set1_pd(D >= 2 ? q[1] : 0.0),
                 _mm256_set1_pd(D >= 3 ? q[2] : 0.0),
                 _mm_set1_epi32(static_cast<int>(fringes[j].current)),
                 _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)};
  }
  std::array<std::array<detail::PrimLanes, kSets>, K> lanes;
  for (auto& sets : lanes) {
    sets.fill({_mm256_set1_pd(std::numeric_limits<double>::infinity()),
               _mm256_set1_epi64x(static_cast<long long>(count)), _mm256_setzero_pd()});
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
  for (std::size_t j = 0; j < K; ++j) picks[j] = detail::lane_pick<Parents>(lanes[j], keys[j]);
  // The tail runs in the baseline-ISA fold, before which GCC may emit no
  // vzeroupper; with the upper halves left dirty, every SSE instruction of
  // the fold and of the caller pays a merge (measured: the K = 4 round ran
  // ~3x slower in the engine than in isolation).
  _mm256_zeroupper();
  detail::prim_relax_fold<D, false, Parents, K>(fringes, k, count, 0.0, picks, keys);
  return picks;
}

#endif  // MANET_KERNELS_X86

/// One Euclidean dense Prim round on each of K fringes; best, from and the
/// picks are bit-identical on every path. The AVX2 form is a source of its
/// own, so the pick is made here rather than by with_best_isa.
template <int D, bool Parents, std::size_t K>
inline PrimPicks<K> prim_relax_argmin(const std::array<PrimFringe<D>, K>& fringes,
                                      std::size_t count) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) return prim_relax_argmin_avx2<D, Parents, K>(fringes, count);
#endif
  return prim_relax_argmin_portable<D, Parents, K>(fringes, count);
}

}  // namespace manet::kernels
