#pragma once

/// \file batched.hpp
/// Batched small-problem kernels: many independent axpy / dot / gemm
/// problems of identical shape, executed in one call.
///
/// The SWM sweeps and the paper's conjugate-gradient experiment both
/// spend their time on problems far too small to amortize a per-call
/// trampoline hop (M, N, K ≲ 32, vector lengths in the tens): at those
/// sizes the virtual dispatch, span plumbing and loop prologue cost as
/// much as the arithmetic. The batched entry points take the whole
/// family of problems at once — one dispatch, one prologue, and an
/// inner structure the fixed-width kernels (simd.hpp) can keep
/// vectorized across problem boundaries.
///
/// Layout contract: a batch is `count` problems of identical shape
/// stored back-to-back in one contiguous allocation (problem b starts
/// at offset b * problem_elems). This is the flat layout the SWM fields
/// already use and what every vendor batched-BLAS interface can be
/// built on.
///
/// Numerics: the `_generic` functions are the oracles — a plain loop of
/// the corresponding single-problem generic kernel. The fixed-width
/// versions are bit-identical to their oracle for native lane types
/// (per-lane operation chains match the scalar chains; docs/KERNELS.md)
/// and for widened soft-float types; `batched` reductions reuse the
/// documented dot reduction tree per problem.

#include <cstddef>
#include <span>

#include "arch/a64fx.hpp"
#include "core/contracts.hpp"
#include "fp/traits.hpp"
#include "kernels/gemm.hpp"
#include "kernels/generic.hpp"
#include "kernels/simd.hpp"

namespace tfx::kernels {

/// Shape of one batched GEMM family: `count` problems C_b <- alpha *
/// A_b B_b + beta * C_b, all m x k by k x n, row-major, back-to-back.
struct gemm_batch_shape {
  std::size_t count = 0;
  std::size_t m = 0, n = 0, k = 0;
  [[nodiscard]] constexpr std::size_t a_elems() const { return m * k; }
  [[nodiscard]] constexpr std::size_t b_elems() const { return k * n; }
  [[nodiscard]] constexpr std::size_t c_elems() const { return m * n; }
  [[nodiscard]] constexpr std::size_t bytes_per_problem(
      std::size_t elem_bytes) const {
    return (a_elems() + b_elems() + c_elems()) * elem_bytes;
  }
};

/// How many problems of `bytes_per_problem` fit a cache of
/// `cache_bytes` at `occupancy` (default: half, leaving room for the
/// other streams). At least 1 — a single problem larger than the cache
/// still has to run.
[[nodiscard]] constexpr std::size_t problems_per_tile(
    std::size_t bytes_per_problem, std::size_t cache_bytes,
    double occupancy = 0.5) {
  if (bytes_per_problem == 0) return 1;
  const auto budget =
      static_cast<std::size_t>(static_cast<double>(cache_bytes) * occupancy);
  const std::size_t fit = budget / bytes_per_problem;
  return fit > 0 ? fit : 1;
}

/// The default tile for batched gemm on the modeled machine: problems
/// per L1-sized tile (the batch loop re-tiles at L2 automatically since
/// consecutive tiles are contiguous).
[[nodiscard]] constexpr std::size_t default_gemm_tile(
    const gemm_batch_shape& shape, std::size_t elem_bytes,
    const arch::a64fx_params& machine = arch::fugaku_node) {
  return problems_per_tile(shape.bytes_per_problem(elem_bytes),
                           machine.l1.size_bytes);
}

// ---------------------------------------------------------------------------
// Generic oracles: a loop of single-problem generic kernels. These are
// the semantics every fixed-width implementation must reproduce.
// ---------------------------------------------------------------------------

/// y_b <- a_b * x_b + y_b for each of count problems of length n.
/// x and y hold count*n elements; a holds count coefficients.
template <typename T>
void axpy_batched_generic(std::span<const T> a, std::span<const T> x,
                          std::span<T> y, std::size_t n) {
  TFX_EXPECTS(n == 0 || a.size() == x.size() / n);
  TFX_EXPECTS(x.size() == y.size());
  TFX_EXPECTS(n == 0 || x.size() % n == 0);
  for (std::size_t b = 0; b < a.size(); ++b) {
    axpy<T>(a[b], x.subspan(b * n, n), y.subspan(b * n, n));
  }
}

/// out_b <- x_b . y_b (sequential per-problem reduction, like dot()).
template <typename T>
void dot_batched_generic(std::span<const T> x, std::span<const T> y,
                         std::span<T> out, std::size_t n) {
  TFX_EXPECTS(x.size() == y.size());
  TFX_EXPECTS(n == 0 || out.size() == x.size() / n);
  TFX_EXPECTS(n == 0 || x.size() % n == 0);
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b] = dot<T>(x.subspan(b * n, n), y.subspan(b * n, n));
  }
}

/// C_b <- alpha A_b B_b + beta C_b via gemm_reordered per problem (the
/// oracle the vectorized batched gemm is bit-identical to).
template <typename T>
void gemm_batched_generic(const gemm_batch_shape& s, T alpha,
                          std::span<const T> a, std::span<const T> b, T beta,
                          std::span<T> c) {
  TFX_EXPECTS(a.size() == s.count * s.a_elems());
  TFX_EXPECTS(b.size() == s.count * s.b_elems());
  TFX_EXPECTS(c.size() == s.count * s.c_elems());
  for (std::size_t p = 0; p < s.count; ++p) {
    gemm_reordered<T>(
        alpha, {a.data() + p * s.a_elems(), s.m, s.k},
        {b.data() + p * s.b_elems(), s.k, s.n}, beta,
        {c.data() + p * s.c_elems(), s.m, s.n});
  }
}

// ---------------------------------------------------------------------------
// Fixed-width implementations. Native lane types only; the dispatch
// layer (dispatch.hpp) routes widened/scalar element types to the
// oracles above.
// ---------------------------------------------------------------------------

namespace simd {

/// Batched axpy at width Bits. The batch is contiguous, and axpy has no
/// cross-element accumulation, so the whole batch is ONE flat axpy per
/// distinct coefficient run — but coefficients differ per problem, so
/// we vectorize within each problem and keep the loop over problems
/// free of dispatch (that is the entire win at n ≲ 32: one dispatch,
/// one prologue, `count` tight loops).
template <std::size_t Bits, typename T>
void axpy_batched_fixed(std::span<const T> a, std::span<const T> x,
                        std::span<T> y, std::size_t n) {
  TFX_EXPECTS(n == 0 || a.size() == x.size() / n);
  TFX_EXPECTS(x.size() == y.size());
  TFX_EXPECTS(n == 0 || x.size() % n == 0);
  for (std::size_t b = 0; b < a.size(); ++b) {
    axpy_fixed<Bits, T>(a[b], x.subspan(b * n, n), y.subspan(b * n, n));
  }
}

/// Batched dot at width Bits: the per-problem documented reduction
/// tree (dot_fixed). out_b is deterministic per width.
template <std::size_t Bits, typename T>
void dot_batched_fixed(std::span<const T> x, std::span<const T> y,
                       std::span<T> out, std::size_t n) {
  TFX_EXPECTS(x.size() == y.size());
  TFX_EXPECTS(n == 0 || out.size() == x.size() / n);
  TFX_EXPECTS(n == 0 || x.size() % n == 0);
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b] = dot_fixed<Bits, T>(x.subspan(b * n, n), y.subspan(b * n, n));
  }
}

/// Single small gemm at width Bits, ikj order with the j loop
/// vectorized. Per element this performs exactly gemm_reordered's
/// operation chain (scale pass: beta*c; update: muladd(aik, b, c)), so
/// it is bit-identical to the oracle for native lane types.
template <std::size_t Bits, typename T>
void gemm_fixed(T alpha, matrix_view<const T> a, matrix_view<const T> b,
                T beta, matrix_view<T> c) {
  TFX_EXPECTS(a.cols() == b.rows());
  TFX_EXPECTS(c.rows() == a.rows() && c.cols() == b.cols());
  using P = pack<T, Bits>;
  constexpr std::size_t L = P::lanes;
  const std::size_t m = c.rows(), n = c.cols(), kk = a.cols();
  for (std::size_t i = 0; i < m; ++i) {
    auto crow = c.row(i);
    const P vbeta = P::broadcast(beta);
    std::size_t j = 0;
    for (; j + L <= n; j += L) {
      (vbeta * P::load(&crow[j])).store(&crow[j]);
    }
    for (; j < n; ++j) crow[j] = beta * crow[j];
    for (std::size_t k = 0; k < kk; ++k) {
      const T aik = alpha * a(i, k);
      const P vaik = P::broadcast(aik);
      const auto brow = b.row(k);
      j = 0;
      for (; j + L <= n; j += L) {
        muladd(vaik, P::load(&brow[j]), P::load(&crow[j])).store(&crow[j]);
      }
      for (; j < n; ++j) crow[j] = kernels::muladd(aik, brow[j], crow[j]);
    }
  }
}

/// Batched gemm at width Bits, tiled so `tile` problems' working sets
/// share L1 (default: sized from the modeled machine's L1). Tiling
/// only reorders the loop over *independent* problems, so results are
/// unchanged — still bit-identical to gemm_batched_generic.
template <std::size_t Bits, typename T>
void gemm_batched_fixed(const gemm_batch_shape& s, T alpha,
                        std::span<const T> a, std::span<const T> b, T beta,
                        std::span<T> c, std::size_t tile = 0) {
  TFX_EXPECTS(a.size() == s.count * s.a_elems());
  TFX_EXPECTS(b.size() == s.count * s.b_elems());
  TFX_EXPECTS(c.size() == s.count * s.c_elems());
  if (tile == 0) tile = default_gemm_tile(s, sizeof(T));
  for (std::size_t p0 = 0; p0 < s.count; p0 += tile) {
    const std::size_t p1 = p0 + tile < s.count ? p0 + tile : s.count;
    for (std::size_t p = p0; p < p1; ++p) {
      gemm_fixed<Bits, T>(
          alpha, {a.data() + p * s.a_elems(), s.m, s.k},
          {b.data() + p * s.b_elems(), s.k, s.n}, beta,
          {c.data() + p * s.c_elems(), s.m, s.n});
    }
  }
}

}  // namespace simd

}  // namespace tfx::kernels
