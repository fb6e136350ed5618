#include "topology/emst_candidates.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "geometry/point.hpp"
#include "support/error.hpp"

namespace manet::detail {

namespace {

/// Keys, LSD passes and the equal-key repair of sort_candidates: three
/// DigitBits-wide digits of key = floor(d2 * pre * 2^KeyBits / bound),
/// KeyBits = min(3 * DigitBits, 32). CacheKeys keeps each key in a parallel
/// array that is scattered along with its candidate; otherwise every pass
/// recomputes the key from d2.
template <int DigitBits, bool CacheKeys>
void radix_sort(CandidateBuffer& a, double pre, double bound, CandidateSortScratch& scratch) {
  constexpr int kPasses = 3;
  constexpr int kKeyBits = std::min(kPasses * DigitBits, 32);
  constexpr std::uint32_t kDigitMask = (1u << DigitBits) - 1;
  constexpr std::size_t kBins = std::size_t{1} << DigitBits;
  const double scale = std::ldexp(1.0, kKeyBits) / bound;
  const std::size_t size = a.size();
  const auto key_of = [pre, scale](const EmstCandidate& c) noexcept {
    return static_cast<std::uint32_t>(c.d2 * pre * scale);
  };
  scratch.tmp.resize(size);
  if constexpr (CacheKeys) {
    scratch.keys.resize(size);
    scratch.keys_tmp.resize(size);
  }

  // One read of the input computes every key and all pass histograms.
  std::array<std::uint32_t, kPasses * kBins> hist{};
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint32_t key = key_of(a[i]);
    if constexpr (CacheKeys) scratch.keys[i] = key;
    for (int d = 0; d < kPasses; ++d) {
      ++hist[static_cast<std::size_t>(d) * kBins + ((key >> (DigitBits * d)) & kDigitMask)];
    }
  }

  EmstCandidate* src = a.data();
  EmstCandidate* dst = scratch.tmp.data();
  std::uint32_t* src_keys = scratch.keys.data();
  std::uint32_t* dst_keys = scratch.keys_tmp.data();
  const auto key_at = [&](const EmstCandidate* base, const std::uint32_t* keys,
                          std::size_t i) noexcept {
    if constexpr (CacheKeys) {
      static_cast<void>(base);
      return keys[i];
    } else {
      static_cast<void>(keys);
      return key_of(base[i]);
    }
  };
  for (int pos = 0; pos < kPasses; ++pos) {
    const int shift = DigitBits * pos;
    std::uint32_t* counts = hist.data() + static_cast<std::size_t>(pos) * kBins;
    // All elements share this digit: the scatter would be the identity.
    if (counts[(key_at(src, src_keys, 0) >> shift) & kDigitMask] == size) continue;
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      const std::uint32_t count = counts[b];
      counts[b] = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint32_t key = key_at(src, src_keys, i);
      const std::uint32_t slot = counts[(key >> shift) & kDigitMask]++;
      dst[slot] = src[i];
      if constexpr (CacheKeys) dst_keys[slot] = key;
    }
    std::swap(src, dst);
    std::swap(src_keys, dst_keys);
  }
  if (src != a.data()) a.swap(scratch.tmp);

  // Repair equal-key runs (key collisions and genuine d2 ties) with the
  // exact comparator. Runs are almost always length 1: one linear scan.
  src = a.data();
  std::size_t i = 0;
  while (i < size) {
    const std::uint32_t key = key_at(src, src_keys, i);
    std::size_t j = i + 1;
    while (j < size && key_at(src, src_keys, j) == key) ++j;
    if (j - i > 1) {
      std::sort(a.begin() + static_cast<std::ptrdiff_t>(i),
                a.begin() + static_cast<std::ptrdiff_t>(j), candidate_less);
    }
    i = j;
  }
}

}  // namespace

void sort_candidates(CandidateBuffer& a, double d2_bound, CandidateSortScratch& scratch) {
  const std::size_t size = a.size();
  if (size < kRadixCutoff) {
    std::sort(a.begin(), a.end(), candidate_less);
    return;
  }

  // Monotone rescaling to a 24- or 32-bit key: every candidate satisfies
  // 0 <= d2 <= d2_bound, so key = floor(d2 * pre * 2^bits / bound) is a
  // non-decreasing map into [0, 2^bits) (each multiplication rounds
  // monotonically, and `bound` carries a 1e-9 margin so the largest product
  // stays below 2^bits). `pre` is the power of two that brings d2_bound into
  // [1, 2) — clamped at 2^1023, the largest power of two a double holds — so
  // the scale stays finite for every finite positive bound, subnormal ones
  // included. Distinct d2 may collide on a key (about size^2 / 2^(bits+1)
  // expected collisions); the repair scan re-sorts equal-key runs with the
  // exact comparator, which also puts equal-d2 duplicates into (u, v) order
  // — so the result is exactly the unique std::sort sequence.
  MANET_EXPECTS(std::isfinite(d2_bound) && d2_bound > 0.0);
  const double pre = std::ldexp(1.0, -std::max(std::ilogb(d2_bound), -1023));
  const double bound = d2_bound * pre * (1.0 + 1e-9);
  // Three passes at either size. Small arrays (a dense-path tree of n - 1
  // edges, a small grid solve's candidates) are cache-resident, so fixed
  // costs dominate: 8-bit digits keep the prefix sums at 3 x 256 bins, a
  // 24-bit key still collides rarely (~8 pairs at 2^14 elements), and cached
  // keys save a multiply per pass. Large arrays (millions of pairs) are bound
  // by scatter traffic: 11-bit digits cover a 32-bit key, and recomputing
  // the key saves 8 bytes of traffic and of memory per candidate.
  if (size <= kSmallDigitLimit) {
    radix_sort<8, true>(a, pre, bound, scratch);
  } else {
    radix_sort<11, false>(a, pre, bound, scratch);
  }
}

CandidateSortScratch& thread_sort_scratch() {
  thread_local CandidateSortScratch scratch;
  return scratch;
}

bool filtered_kruskal(std::span<const EmstCandidate> sorted, std::size_t n,
                      KruskalForest& forest, std::vector<WeightedEdge>& mst) {
  forest.reset(n);
  mst.clear();
  for (const EmstCandidate& c : sorted) {
    if (forest.unite(c.u, c.v)) {
      mst.push_back({c.u, c.v, covering_radius(c.d2)});
      if (mst.size() + 1 == n) return true;
    }
  }
  return mst.size() + 1 == n;
}

}  // namespace manet::detail
