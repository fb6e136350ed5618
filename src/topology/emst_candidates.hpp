#pragma once

// Candidate-edge machinery of the EMST engine (topology/emst_grid.hpp): the
// candidate record, its strict (d2, u, v) total order, the one sort that
// produces that order, and the Kruskal forest and loop the grid path
// filters candidates through.
// Internal to the topology layer: nothing outside the engine (and its
// tests) should need it.
//
// Filtered Kruskal under a strict total order accepts a unique tree, so any
// spanning candidate set that holds every pair within its radius yields the
// same tree bit for bit.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "topology/mst.hpp"

namespace manet::detail {

/// Candidate edge: squared distance first so the sort key is cache-local.
struct EmstCandidate {
  double d2;
  std::uint32_t u;
  std::uint32_t v;
};

/// The strict total order every EMST engine sorts candidates by: (u, v) is
/// unique per pair, so no two distinct candidates compare equal.
inline bool candidate_less(const EmstCandidate& a, const EmstCandidate& b) noexcept {
  if (a.d2 != b.d2) return a.d2 < b.d2;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

/// Allocator whose value-less construct() default-initializes, so resize()
/// on a buffer of trivial records reserves room without writing zeros over
/// it. The engines size their candidate buffers to an upper bound and fill
/// them by index; zeroing that headroom first would be pure overhead.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

using CandidateBuffer = std::vector<EmstCandidate, DefaultInitAllocator<EmstCandidate>>;

/// Pooled scratch of sort_candidates; capacity only grows, so warm sorts
/// never touch the heap. The key arrays are only used (and only grow) up to
/// kSmallDigitLimit elements.
struct CandidateSortScratch {
  CandidateBuffer tmp;  ///< scatter target; swapped with the input when it ends there
  std::vector<std::uint32_t, DefaultInitAllocator<std::uint32_t>> keys;
  std::vector<std::uint32_t, DefaultInitAllocator<std::uint32_t>> keys_tmp;
};

/// Below this size the comparator sort beats the radix passes' fixed costs.
/// Measured on a 4-core x86-64 host (gcc 12, -O3): the two break even near
/// 47 candidates; at 63 candidates the radix sort takes 0.85 µs
/// against std::sort's 1.44 µs.
inline constexpr std::size_t kRadixCutoff = 48;
/// Largest size sorted with 8-bit digits (a 24-bit key, 3 x 256-bin
/// histograms, keys cached); larger arrays take 11-bit digits (a 32-bit
/// key, 3 x 2048 bins, keys recomputed per pass).
inline constexpr std::size_t kSmallDigitLimit = std::size_t{1} << 14;

/// Sorts `a` into the strict (d2, u, v) order: the exact std::sort sequence
/// under candidate_less. Every candidate must satisfy 0 <= d2 <= d2_bound,
/// and d2_bound must be finite and > 0 (checked).
///
/// Stable three-pass LSD radix on a monotone rescaling of d2, then a repair
/// scan that re-sorts equal-key runs (rescaling collisions and genuine d2
/// ties) with candidate_less. The digit width is picked by size: up to
/// kSmallDigitLimit elements, 8-bit digits of a 24-bit key computed once
/// into a parallel array that every pass and the repair reuse; above it,
/// 11-bit digits of a 32-bit key recomputed per pass. A pass whose digit is
/// the same for every element is skipped. The result may end in
/// scratch.tmp, in which case the two vectors swap storage.
void sort_candidates(CandidateBuffer& a, double d2_bound, CandidateSortScratch& scratch);

/// The calling thread's sort scratch. Engines run one at a time on a
/// thread, so they share it: a sort's scatter buffer costs memory once per
/// thread instead of once per engine (a trace's engine and a stationary
/// solve on the same thread would otherwise each keep a pool-sized copy).
CandidateSortScratch& thread_sort_scratch();

/// Union-by-size forest with path halving, specialized for Kruskal: 32-bit
/// ids keep both arrays L1-sized at the sizes the paper runs
/// (graph/union_find.hpp stores size_t), and the component-count bookkeeping
/// Kruskal never reads is omitted. Acceptance decisions depend only on
/// connectivity, so the resulting tree is identical to one built over any
/// other union-find.
struct KruskalForest {
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> size;

  void reset(std::size_t n) {
    parent.resize(n);
    size.assign(n, 1);
    for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<std::uint32_t>(i);
  }
  std::uint32_t find(std::uint32_t x) noexcept {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  }
  bool unite(std::uint32_t a, std::uint32_t b) noexcept {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size[a] < size[b]) std::swap(a, b);
    parent[b] = a;
    size[a] += size[b];
    return true;
  }
};

/// Filtered Kruskal over `sorted` (candidates in (d2, u, v) order): resets
/// the forest to n nodes, clears `mst`, then appends every candidate the
/// forest accepts, as an edge of weight covering_radius(d2), until the tree
/// spans. Returns true when it does.
bool filtered_kruskal(std::span<const EmstCandidate> sorted, std::size_t n,
                      KruskalForest& forest, std::vector<WeightedEdge>& mst);

}  // namespace manet::detail
