#pragma once

/// \file field.hpp
/// 2-D gridded fields for the shallow-water model.
///
/// Row-major storage, (i, j) = (x, y) indices. Two grid containers
/// share one interface (nx/ny, (i, j) access, im/ip/jm/jp neighbours,
/// interior()), so the RHS passes are written once for both:
///
///  * field2d<T> - the whole grid, periodic in both directions (the
///    doubly-periodic beta-plane configuration; DESIGN.md documents
///    this simplification of ShallowWaters.jl's closed basin);
///  * slab<T>    - one rank's rows of a y-decomposed grid, periodic in
///    x, with two halo rows below and above that the distributed model
///    fills from the neighbouring ranks (swm/distributed.hpp).
///
/// The element type is the template parameter the whole
/// type-flexibility story rests on: the same model instantiates with
/// double, float, float16 or sherlog<float>.

#include <cstddef>
#include <span>
#include <vector>

#include "core/contracts.hpp"

namespace tfx::swm {

template <typename T>
class field2d {
 public:
  field2d() = default;
  field2d(int nx, int ny)
      : nx_(nx), ny_(ny),
        data_(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny)) {
    TFX_EXPECTS(nx > 0 && ny > 0);
  }

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// Unchecked interior access (callers use wrapped indices).
  T& operator()(int i, int j) {
    return data_[static_cast<std::size_t>(j) * static_cast<std::size_t>(nx_) +
                 static_cast<std::size_t>(i)];
  }
  const T& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(j) * static_cast<std::size_t>(nx_) +
                 static_cast<std::size_t>(i)];
  }

  /// Periodic neighbour indices.
  [[nodiscard]] int ip(int i) const { return i + 1 == nx_ ? 0 : i + 1; }
  [[nodiscard]] int im(int i) const { return i == 0 ? nx_ - 1 : i - 1; }
  [[nodiscard]] int jp(int j) const { return j + 1 == ny_ ? 0 : j + 1; }
  [[nodiscard]] int jm(int j) const { return j == 0 ? ny_ - 1 : j - 1; }

  void fill(T value) {
    for (auto& v : data_) v = value;
  }

  [[nodiscard]] std::span<T> flat() { return data_; }
  [[nodiscard]] std::span<const T> flat() const { return data_; }

  /// Every element: a field2d has no halo rows, so this is flat().
  [[nodiscard]] std::span<T> interior() { return data_; }
  [[nodiscard]] std::span<const T> interior() const { return data_; }

 private:
  int nx_ = 0, ny_ = 0;
  std::vector<T> data_;
};

/// nx x ny slab of a y-decomposed grid with `halo` rows below
/// (j = -2, -1) and above (j = ny, ny + 1). Periodic in x only; jm/jp
/// step onto the halo rows, which the owner fills from the
/// y-neighbours.
template <typename T>
class slab {
 public:
  /// Halo rows on each side.
  static constexpr int halo = 2;

  slab() = default;
  slab(int nx, int ny)
      : nx_(nx), ny_(ny),
        data_(static_cast<std::size_t>(nx) *
              static_cast<std::size_t>(ny + 2 * halo)) {
    TFX_EXPECTS(nx > 0 && ny >= 2);
  }

  [[nodiscard]] int nx() const { return nx_; }
  /// Rows owned (halo rows excluded).
  [[nodiscard]] int ny() const { return ny_; }

  /// j in [-halo, ny + halo) (halo rows included).
  T& operator()(int i, int j) {
    return data_[static_cast<std::size_t>(j + halo) *
                     static_cast<std::size_t>(nx_) +
                 static_cast<std::size_t>(i)];
  }
  const T& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(j + halo) *
                     static_cast<std::size_t>(nx_) +
                 static_cast<std::size_t>(i)];
  }

  [[nodiscard]] int ip(int i) const { return i + 1 == nx_ ? 0 : i + 1; }
  [[nodiscard]] int im(int i) const { return i == 0 ? nx_ - 1 : i - 1; }
  [[nodiscard]] int jp(int j) const { return j + 1; }
  [[nodiscard]] int jm(int j) const { return j - 1; }

  /// Row j as a span, halo rows included (for packing and wrapping).
  [[nodiscard]] std::span<T> row(int j) {
    return {&(*this)(0, j), static_cast<std::size_t>(nx_)};
  }
  [[nodiscard]] std::span<const T> row(int j) const {
    return {&(*this)(0, j), static_cast<std::size_t>(nx_)};
  }

  /// All owned elements, row-major (halo rows excluded).
  [[nodiscard]] std::span<T> interior() {
    return {&(*this)(0, 0), static_cast<std::size_t>(nx_) *
                                static_cast<std::size_t>(ny_)};
  }
  [[nodiscard]] std::span<const T> interior() const {
    return {&(*this)(0, 0), static_cast<std::size_t>(nx_) *
                                static_cast<std::size_t>(ny_)};
  }

  void fill(T v) {
    for (auto& x : data_) x = v;
  }

 private:
  int nx_ = 0, ny_ = 0;
  std::vector<T> data_;
};

/// Element-wise precision conversion into a preallocated field (via
/// double, which is exact for every format in the library). The
/// allocation-free building block the measurement path uses.
template <typename To, typename From>
void convert_field_into(field2d<To>& dst, const field2d<From>& src) {
  TFX_EXPECTS(dst.size() == src.size());
  auto in = src.flat();
  auto out = dst.flat();
  for (std::size_t k = 0; k < in.size(); ++k) {
    out[k] = To(static_cast<double>(in[k]));
  }
}

/// Element-wise precision conversion between field types.
template <typename To, typename From>
field2d<To> convert_field(const field2d<From>& src) {
  field2d<To> dst(src.nx(), src.ny());
  convert_field_into(dst, src);
  return dst;
}

/// The model's prognostic variables on the Arakawa C-grid. With
/// doubly-periodic boundaries all three arrays share the cell count;
/// u lives on x-faces, v on y-faces, eta at centres. `Grid` is the
/// container: the whole grid, or one rank's slabs (slab_state).
template <typename T, typename Grid = field2d<T>>
struct state {
  Grid u, v, eta;

  state() = default;
  state(int nx, int ny) : u(nx, ny), v(nx, ny), eta(nx, ny) {}

  [[nodiscard]] int nx() const { return eta.nx(); }
  [[nodiscard]] int ny() const { return eta.ny(); }

  void fill(T value) {
    u.fill(value);
    v.fill(value);
    eta.fill(value);
  }
};

/// The three prognostic slabs of one rank.
template <typename T>
using slab_state = state<T, slab<T>>;

template <typename To, typename From>
void convert_state_into(state<To>& dst, const state<From>& src) {
  convert_field_into(dst.u, src.u);
  convert_field_into(dst.v, src.v);
  convert_field_into(dst.eta, src.eta);
}

template <typename To, typename From>
state<To> convert_state(const state<From>& src) {
  state<To> dst;
  dst.u = convert_field<To>(src.u);
  dst.v = convert_field<To>(src.v);
  dst.eta = convert_field<To>(src.eta);
  return dst;
}

}  // namespace tfx::swm
