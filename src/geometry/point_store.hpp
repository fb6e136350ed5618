#pragma once

// Structure-of-arrays point storage: one contiguous double array per axis.
//
// The AoS `std::vector<Point<D>>` layout interleaves coordinates, which
// defeats vectorization of the hot loops (distance kernels, mobility
// advance) and wastes a third to two thirds of every cache line when a scan
// only needs one axis. PointStore keeps each axis contiguous so the batched
// kernels in geometry/distance_kernels.hpp can stream it directly.
//
// Growth discipline matches the rest of the library's zero-steady-state-
// allocation contract (DESIGN.md §10): capacity only ever grows, so once a
// store has seen its working size, assign()/resize() never touch the heap
// again (alloc_discipline_test pins this).
//
// Public simulation APIs keep accepting `std::span<const Point<D>>`; the
// store is an internal bridge — assign() gathers from AoS, scatter_to()
// writes back.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "geometry/distance_kernels.hpp"
#include "geometry/point.hpp"
#include "support/contracts.hpp"

namespace manet {

template <int D>
class PointStore {
 public:
  static_assert(D >= 1 && D <= 3, "the library supports 1-, 2- and 3-dimensional regions");

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Grows capacity (never shrinks) so later assign()/resize() up to
  /// `capacity` points are allocation-free.
  void reserve(std::size_t capacity) {
    for (auto& axis : axes_) axis.reserve(capacity);
  }

  /// Sets the logical size; new elements (if any) are value-initialized.
  /// Capacity-only growth: shrinking keeps the buffers.
  void resize(std::size_t n) {
    for (auto& axis : axes_) axis.resize(n);
    size_ = n;
  }

  void clear() noexcept { resize(0); }

  /// Gathers an AoS span into the per-axis arrays (capacity-only growth).
  void assign(std::span<const Point<D>> points) {
    resize(points.size());
    for (int i = 0; i < D; ++i) {
      double* axis = axes_[static_cast<std::size_t>(i)].data();
      for (std::size_t k = 0; k < points.size(); ++k) axis[k] = points[k].coords[static_cast<std::size_t>(i)];
    }
  }

  /// Gathers `points[ids[s]]` into slot s — the permuted bridge the cell
  /// grid uses to lay coordinates out in CSR slot order, so every cell's
  /// points form one contiguous run per axis.
  void assign_gather(std::span<const Point<D>> points, std::span<const std::size_t> ids) {
    resize(ids.size());
    for (int i = 0; i < D; ++i) {
      double* axis = axes_[static_cast<std::size_t>(i)].data();
      for (std::size_t s = 0; s < ids.size(); ++s) {
        axis[s] = points[ids[s]].coords[static_cast<std::size_t>(i)];
      }
    }
  }

  /// Scatters the store back to an AoS span of the same size.
  void scatter_to(std::span<Point<D>> out) const {
    MANET_EXPECT(out.size() == size_);
    for (int i = 0; i < D; ++i) {
      const double* axis = axes_[static_cast<std::size_t>(i)].data();
      for (std::size_t k = 0; k < size_; ++k) out[k].coords[static_cast<std::size_t>(i)] = axis[k];
    }
  }

  [[nodiscard]] double* axis(int i) noexcept { return axes_[static_cast<std::size_t>(i)].data(); }
  [[nodiscard]] const double* axis(int i) const noexcept {
    return axes_[static_cast<std::size_t>(i)].data();
  }

  /// Per-axis base pointers in the form the batched kernels consume.
  [[nodiscard]] kernels::AxisPointers<D> axes() const noexcept {
    kernels::AxisPointers<D> out;
    for (int i = 0; i < D; ++i) out[static_cast<std::size_t>(i)] = axis(i);
    return out;
  }

  [[nodiscard]] kernels::MutableAxisPointers<D> mutable_axes() noexcept {
    kernels::MutableAxisPointers<D> out;
    for (int i = 0; i < D; ++i) out[static_cast<std::size_t>(i)] = axis(i);
    return out;
  }

  [[nodiscard]] Point<D> get(std::size_t k) const noexcept {
    MANET_EXPECT(k < size_);
    Point<D> p;
    for (int i = 0; i < D; ++i) {
      p.coords[static_cast<std::size_t>(i)] = axes_[static_cast<std::size_t>(i)][k];
    }
    return p;
  }

  void set(std::size_t k, const Point<D>& p) noexcept {
    MANET_EXPECT(k < size_);
    for (int i = 0; i < D; ++i) {
      axes_[static_cast<std::size_t>(i)][k] = p.coords[static_cast<std::size_t>(i)];
    }
  }

 private:
  std::array<std::vector<double>, static_cast<std::size_t>(D)> axes_{};
  std::size_t size_ = 0;
};

using PointStore1 = PointStore<1>;
using PointStore2 = PointStore<2>;
using PointStore3 = PointStore<3>;

}  // namespace manet
