#pragma once

/// \file dispatch.hpp
/// Runtime width policy and the dispatched entry points that tie the
/// fixed-width SIMD layer (simd.hpp, batched.hpp) to callers.
///
/// The policy is the one control over the vector width a kernel runs
/// at: a single atomic, initialized once to the widest width the host
/// executes natively (arch::preferred_vector_bits()), readable from any
/// thread, and hot-swappable under load — concurrent sweeps simply pick
/// up the new width on their next call, exactly like a trampoline
/// retarget. (The BLAS registry, registry.hpp, picks a library by name
/// for axpy_dispatch; it has no say over the width.)
///
/// Width 0 means "scalar": the generic kernels run unvectorized. Every
/// nonzero width produces bit-identical results for element-wise
/// kernels (docs/KERNELS.md), so swapping mid-run never changes a
/// trajectory; reductions are deterministic *per width*.
///
/// with_simd_width() also picks the instruction set a width runs on.
/// The build targets the baseline ISA, so on x86-64 every pack is made
/// of 128-bit SSE2 operations unless the host has the width's ISA: the
/// 256 case then runs its functor compiled for AVX2 and the 512 case
/// compiled for AVX-512F (detail::run_avx2 / run_avx512). A width above
/// the host's ISA still runs, synthesized from narrower operations.

#include <atomic>
#include <cstddef>
#include <span>
#include <type_traits>

#include "arch/features.hpp"
#include "fp/traits.hpp"
#include "kernels/batched.hpp"

namespace tfx::kernels {

/// The width (bits) the dispatched kernels currently run at: 0
/// (scalar) or 128/256/512.
[[nodiscard]] std::size_t simd_width();

/// Retarget the width policy; false (and no change) unless bits is one
/// of 0/128/256/512. Safe under load from any thread.
bool set_simd_width(std::size_t bits);

/// The width the policy starts at: the widest the host executes
/// natively.
[[nodiscard]] std::size_t default_simd_width();

/// Reset the policy to default_simd_width().
void reset_simd_width();

/// 1 where with_simd_width() runs its 256 and 512 cases on the host's
/// AVX2 and AVX-512F copies: x86-64 under GCC. Elsewhere every width
/// runs the plain call.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define TFX_KERNELS_ISA_COPIES 1
#else
#define TFX_KERNELS_ISA_COPIES 0
#endif

namespace detail {

#if TFX_KERNELS_ISA_COPIES
/// arch::host_features().avx2 / .avx512f, copied during the kernels
/// library's static initialization so that each dispatch tests a plain
/// load. They read false before that, which selects the baseline
/// copies and so the same bits.
extern const bool host_avx2;
extern const bool host_avx512f;

/// The ISA copies. `flatten` inlines everything `f` calls into the
/// copy, whose symbol is compiled for that ISA alone; what GCC cannot
/// inline is called as its ordinary baseline code. So no shared inline
/// function is emitted with wide instructions, and a host without the
/// ISA never reaches them. The targets name only what
/// arch::host_features() probes, never `fma`: the muladd contract
/// rounds a*b + c twice (docs/KERNELS.md § 3). AVX-512F has FMA
/// encodings of its own, so -ffp-contract=off is what keeps that copy
/// unfused.
template <typename F>
[[gnu::target("avx2"), gnu::flatten]] decltype(auto) run_avx2(F& f) {
  return f(std::integral_constant<std::size_t, 256>{});
}

template <typename F>
[[gnu::target("avx512f"), gnu::flatten]] decltype(auto) run_avx512(F& f) {
  return f(std::integral_constant<std::size_t, 512>{});
}
#endif

}  // namespace detail

/// Run `f` with the compile-time width matching runtime `bits`
/// (which must be nonzero; callers handle scalar before switching),
/// on the host's ISA for that width where it has one.
template <typename F>
decltype(auto) with_simd_width(std::size_t bits, F&& f) {
  switch (bits) {
    case 512:
#if TFX_KERNELS_ISA_COPIES
      if (detail::host_avx512f) return detail::run_avx512(f);
#endif
      return f(std::integral_constant<std::size_t, 512>{});
    case 256:
#if TFX_KERNELS_ISA_COPIES
      if (detail::host_avx2) return detail::run_avx2(f);
#endif
      return f(std::integral_constant<std::size_t, 256>{});
    default:
      return f(std::integral_constant<std::size_t, 128>{});
  }
}

// ---------------------------------------------------------------------------
// Batched entry points, routed by the width policy as the sweeps are
// (sweeps.hpp): native types run the fixed-width kernels at
// simd_width(), widened types vectorize axpy at that width, and scalar
// types and width 0 run the generic oracles.
// ---------------------------------------------------------------------------

template <typename T>
void axpy_batched_dispatch(std::span<const T> a, std::span<const T> x,
                           std::span<T> y, std::size_t n) {
  constexpr auto kind = fp::vec_traits<T>::kind;
  if constexpr (kind != fp::vectorizability::scalar) {
    if (const std::size_t w = simd_width(); w != 0) {
      with_simd_width(w, [&](auto bits) {
        if constexpr (kind == fp::vectorizability::native) {
          simd::axpy_batched_fixed<bits(), T>(a, x, y, n);
        } else {
          for (std::size_t b = 0; b < a.size(); ++b) {
            simd::axpy_widened<bits(), T>(a[b], x.subspan(b * n, n),
                                          y.subspan(b * n, n));
          }
        }
      });
      return;
    }
  }
  axpy_batched_generic(a, x, y, n);
}

template <typename T>
void dot_batched_dispatch(std::span<const T> x, std::span<const T> y,
                          std::span<T> out, std::size_t n) {
  if constexpr (fp::vec_traits<T>::kind == fp::vectorizability::native) {
    if (const std::size_t w = simd_width(); w != 0) {
      with_simd_width(w, [&](auto bits) {
        simd::dot_batched_fixed<bits(), T>(x, y, out, n);
      });
      return;
    }
  }
  dot_batched_generic(x, y, out, n);
}

template <typename T>
void gemm_batched_dispatch(const gemm_batch_shape& s, T alpha,
                           std::span<const T> a, std::span<const T> b, T beta,
                           std::span<T> c) {
  if constexpr (fp::vec_traits<T>::kind == fp::vectorizability::native) {
    if (const std::size_t w = simd_width(); w != 0) {
      with_simd_width(w, [&](auto bits) {
        simd::gemm_batched_fixed<bits(), T>(s, alpha, a, b, beta, c);
      });
      return;
    }
  }
  gemm_batched_generic(s, alpha, a, b, beta, c);
}

}  // namespace tfx::kernels
