#pragma once

/// \file simd.hpp
/// Width-templated SIMD abstraction and the explicitly vectorized
/// Level-1 kernels built on it.
///
/// The paper's Fig. 1 hinges on the generic kernel actually filling the
/// A64FX's 512-bit SVE lanes; "A64FX — Your Compiler You Must Decide!"
/// (PAPERS.md) shows how often a compiler alone leaves that width on
/// the table. This layer removes the gamble: `pack<T, Bits>` is a
/// fixed-width vector register (GNU vector extensions, so it compiles
/// portably — the compiler synthesizes wide operations from narrower
/// ISA when needed), and the kernels below are hand-blocked over it at
/// compile-time widths of 128/256/512 bits. Which width actually runs
/// is a *runtime* decision (kernels/dispatch.hpp), made from CPU
/// features at startup and hot-swappable under load, exactly like the
/// paper's libblastrampoline seam.
///
/// Numerical contracts (docs/KERNELS.md):
///  * element-wise kernels (axpy, scal, the SWM sweep kernels) perform
///    the same per-element operation chain as the scalar loops in
///    generic.hpp / swm/timestep.hpp, with `kernels::muladd`'s pinned
///    separately-rounded semantics, so every width is bit-identical to
///    the scalar code — remainder elements run the scalar loop itself;
///  * reductions (dot) use the documented lane-strided tree: `lanes`
///    partial sums advanced with muladd, folded left-to-right, with the
///    remainder appended sequentially. Deterministic per width, but a
///    different rounding order than the sequential scalar reduction —
///    the ULP policy in docs/KERNELS.md bounds the difference;
///  * soft-float lane types (float16, bfloat16) take the *widened* path
///    (fp::vec_traits): exact widen to their binary32 compute type,
///    vector arithmetic there, and a per-lane rounding narrow through
///    the type's converting constructor — which is the scalar
///    operators' own definition, so FTZ flushing and the subnormal
///    counters behave identically to the scalar loop.

#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>

#include "core/contracts.hpp"
#include "fp/traits.hpp"
#include "kernels/generic.hpp"

namespace tfx::kernels::simd {

/// The compile-time widths the layer instantiates. `width_list[i]` is
/// also the order the dispatcher probes (widest profitable first).
inline constexpr std::size_t width_list[] = {512, 256, 128};
inline constexpr std::size_t min_width_bits = 128;
inline constexpr std::size_t max_width_bits = 512;

[[nodiscard]] constexpr bool valid_width(std::size_t bits) {
  return bits == 128 || bits == 256 || bits == 512;
}

/// A fixed-width vector of a native lane type. Loads and stores are
/// unaligned (memcpy lowers to the unaligned vector move); element
/// access is per-lane.
template <typename T, std::size_t Bits>
struct pack {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                "pack lanes must be a native float type; soft floats go "
                "through the widened path");
  static_assert(valid_width(Bits));

  static constexpr std::size_t lanes = Bits / 8 / sizeof(T);
  using vec [[gnu::vector_size(Bits / 8)]] = T;

  vec v;

  [[nodiscard]] static pack load(const T* p) {
    pack r;
    std::memcpy(&r.v, p, sizeof(vec));
    return r;
  }
  void store(T* p) const { std::memcpy(p, &v, sizeof(vec)); }

  [[nodiscard]] static pack broadcast(T s) {
    pack r;
    for (std::size_t l = 0; l < lanes; ++l) r.v[l] = s;
    return r;
  }
  [[nodiscard]] static pack zero() { return broadcast(T{}); }

  [[nodiscard]] T operator[](std::size_t l) const { return v[l]; }

  friend pack operator+(pack a, pack b) { return pack{a.v + b.v}; }
  friend pack operator-(pack a, pack b) { return pack{a.v - b.v}; }
  friend pack operator*(pack a, pack b) { return pack{a.v * b.v}; }
};

/// Per-lane muladd with the same pinned contract as the scalar
/// kernels::muladd: multiply rounded, then add rounded, never
/// contracted into an FMA. The scalar contract is enforced in-source
/// with __builtin_assoc_barrier; here the barrier is deliberately NOT
/// used — GCC lowers a vector assoc barrier lane-by-lane (a wall of
/// shufps/unpck on x86), which costs ~4x on the float kernels. Instead
/// the build pins -ffp-contract=off for the whole tree (top-level
/// CMakeLists), which forbids the mul+add -> FMA combine in vector
/// expressions too; the MuladdContract tests cross-check vector lanes
/// against the barrier-pinned scalar chain, so a build that fuses
/// behind our back fails loudly.
template <typename T, std::size_t Bits>
[[nodiscard]] inline pack<T, Bits> muladd(pack<T, Bits> a, pack<T, Bits> b,
                                          pack<T, Bits> c) {
  return pack<T, Bits>{a.v * b.v + c.v};
}

// ---------------------------------------------------------------------------
// Level-1 kernels, native lane types. All take the full span and handle
// the remainder with the scalar operation chain (identical rounding).
// ---------------------------------------------------------------------------

/// How many packs of width Bits the element-wise kernels process per
/// unrolled iteration: a constant 512-bit "virtual width", so narrow
/// packs get independent muladd chains for the FP pipes while wide
/// packs (which a narrow host already splits into several registers)
/// do not blow the register file and spill.
template <std::size_t Bits>
inline constexpr std::size_t unroll = max_width_bits / Bits;

/// y <- a*x + y at compile-time width Bits. Register blocking: `unroll`
/// independent muladd chains (512 virtual bits per iteration) keep both
/// FP pipes of the modeled machine (and any superscalar host) busy; no
/// accumulation crosses elements, so blocking cannot change results.
template <std::size_t Bits, typename T>
void axpy_fixed(T a, std::span<const T> x, std::span<T> y) {
  TFX_EXPECTS(x.size() == y.size());
  using P = pack<T, Bits>;
  constexpr std::size_t L = P::lanes;
  constexpr std::size_t U = unroll<Bits>;
  const std::size_t n = x.size();
  const P va = P::broadcast(a);
  std::size_t i = 0;
  for (; i + U * L <= n; i += U * L) {
    P xs[U];
    for (std::size_t u = 0; u < U; ++u) xs[u] = P::load(&x[i + u * L]);
    for (std::size_t u = 0; u < U; ++u) {
      muladd(va, xs[u], P::load(&y[i + u * L])).store(&y[i + u * L]);
    }
  }
  for (; i + L <= n; i += L) {
    muladd(va, P::load(&x[i]), P::load(&y[i])).store(&y[i]);
  }
  for (; i < n; ++i) y[i] = kernels::muladd(a, x[i], y[i]);
}

/// x <- a*x at compile-time width Bits (plain multiply per lane).
template <std::size_t Bits, typename T>
void scal_fixed(T a, std::span<T> x) {
  using P = pack<T, Bits>;
  constexpr std::size_t L = P::lanes;
  const std::size_t n = x.size();
  const P va = P::broadcast(a);
  std::size_t i = 0;
  for (; i + L <= n; i += L) (va * P::load(&x[i])).store(&x[i]);
  for (; i < n; ++i) x[i] = a * x[i];
}

/// dot <- x . y with the documented lane-strided reduction tree:
/// `lanes` partial sums (lane l accumulates elements l, l+L, l+2L, ...
/// via muladd), folded left-to-right after the main loop, remainder
/// elements appended sequentially. Deterministic for a given width;
/// reassociated relative to the sequential scalar dot (ULP policy in
/// docs/KERNELS.md).
template <std::size_t Bits, typename T>
[[nodiscard]] T dot_fixed(std::span<const T> x, std::span<const T> y) {
  TFX_EXPECTS(x.size() == y.size());
  using P = pack<T, Bits>;
  constexpr std::size_t L = P::lanes;
  const std::size_t n = x.size();
  P acc = P::zero();
  std::size_t i = 0;
  for (; i + L <= n; i += L) {
    acc = muladd(P::load(&x[i]), P::load(&y[i]), acc);
  }
  T s = acc[0];
  for (std::size_t l = 1; l < L; ++l) s += acc[l];
  for (; i < n; ++i) s = kernels::muladd(x[i], y[i], s);
  return s;
}

/// Scalar emulation of dot_fixed's reduction tree, for tests and for
/// pinning the tree itself (same rounding steps, no vector code).
template <std::size_t Bits, typename T>
[[nodiscard]] T dot_tree_reference(std::span<const T> x,
                                   std::span<const T> y) {
  TFX_EXPECTS(x.size() == y.size());
  constexpr std::size_t L = Bits / 8 / sizeof(T);
  const std::size_t n = x.size();
  T partial[L] = {};
  std::size_t i = 0;
  for (; i + L <= n; i += L) {
    for (std::size_t l = 0; l < L; ++l) {
      partial[l] = kernels::muladd(x[i + l], y[i + l], partial[l]);
    }
  }
  T s = partial[0];
  for (std::size_t l = 1; l < L; ++l) s += partial[l];
  for (; i < n; ++i) s = kernels::muladd(x[i], y[i], s);
  return s;
}

// ---------------------------------------------------------------------------
// Widened path: soft-float storage types whose arithmetic is *defined*
// as compute-in-binary32 (fp::vec_traits<T>::kind == widened). The
// widen is exact; the vector op runs on binary32 lanes; the narrowing
// re-round goes through T's converting constructor, i.e. the exact
// code path (rounding + FTZ canonicalization + event counters) the
// scalar operators use. Bit-identical to the scalar loop by
// construction.
// ---------------------------------------------------------------------------

/// y <- a*x + y for a widened type: per element, round(a*x) then
/// round(prod + y), matching T's muladd (two narrowing rounds).
template <std::size_t Bits, typename T>
void axpy_widened(T a, std::span<const T> x, std::span<T> y) {
  static_assert(fp::vec_traits<T>::kind == fp::vectorizability::widened);
  TFX_EXPECTS(x.size() == y.size());
  using W = typename fp::vec_traits<T>::lane_type;
  using P = pack<W, Bits>;
  constexpr std::size_t L = P::lanes;
  const std::size_t n = x.size();
  const P va = P::broadcast(static_cast<W>(a));
  W wide[L];
  std::size_t i = 0;
  for (; i + L <= n; i += L) {
    // widen x (exact), multiply in W lanes, narrow-round each product.
    for (std::size_t l = 0; l < L; ++l) wide[l] = static_cast<W>(x[i + l]);
    (va * P::load(wide)).store(wide);
    // prod + y in W lanes (the scalar operator+ computes in W too),
    // then the final narrowing round through T's constructor.
    W acc[L];
    for (std::size_t l = 0; l < L; ++l) {
      acc[l] = static_cast<W>(T(wide[l]));  // round(a*x), canonicalized
    }
    for (std::size_t l = 0; l < L; ++l) wide[l] = static_cast<W>(y[i + l]);
    (P::load(acc) + P::load(wide)).store(acc);
    for (std::size_t l = 0; l < L; ++l) y[i + l] = T(acc[l]);
  }
  for (; i < n; ++i) {
    using tfx::fp::muladd;
    y[i] = muladd(a, x[i], y[i]);
  }
}

}  // namespace tfx::kernels::simd
