#pragma once

/// \file sweeps.hpp
/// Vectorized forms of the SWM element-wise update sweeps, routed
/// through the runtime width policy (dispatch.hpp).
///
/// These are the hot loops of the paper's ShallowWaters.jl experiment:
/// the fused RK4 increment+apply (standard and Kahan-compensated), the
/// three-field stage combine, and the mixed-precision down-cast.
/// swm/timestep.hpp routes native element types (double / float with
/// T == Tprog) here and keeps scalar loops for the soft-float types.
/// tests/kernels_simd_test pins every width bit-identical to the scalar
/// chain (the *_scalar forms below), and tests/swm_model_test's
/// SwmGolden pins the model trajectories the sweeps produce.
///
/// Bit-identity argument (docs/KERNELS.md): each vector statement below
/// performs, per lane, exactly the operation chain of the corresponding
/// scalar statement, in the same order — and remainder elements run a
/// scalar loop with that exact chain. No reductions occur in any sweep
/// (every element is independent), so vector width cannot reassociate
/// anything.

#include <cstddef>
#include <cstring>
#include <span>

#include "core/contracts.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/simd.hpp"

namespace tfx::kernels::sweeps {

// ---------------------------------------------------------------------------
// Scalar reference chains (identical to the loops swm/timestep.hpp ran
// before routing; used for remainders and the width-0 policy).
// ---------------------------------------------------------------------------

template <typename T>
inline void rk4_update_scalar(std::span<T> y, std::span<const T> k1,
                              std::span<const T> k2, std::span<const T> k3,
                              std::span<const T> k4, std::size_t lo,
                              std::size_t hi) {
  const T two{2};
  const T sixth = T(1.0 / 6.0);
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const T sum = k1[idx] + two * k2[idx] + two * k3[idx] + k4[idx];
    y[idx] += sixth * sum;
  }
}

template <typename T>
inline void rk4_update_kahan_scalar(std::span<T> y, std::span<T> comp,
                                    std::span<const T> k1,
                                    std::span<const T> k2,
                                    std::span<const T> k3,
                                    std::span<const T> k4, std::size_t lo,
                                    std::size_t hi) {
  const T two{2};
  const T sixth = T(1.0 / 6.0);
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const T sum = k1[idx] + two * k2[idx] + two * k3[idx] + k4[idx];
    const T inc = sixth * sum;
    const T adjusted = inc - comp[idx];
    const T t = y[idx] + adjusted;
    comp[idx] = (t - y[idx]) - adjusted;
    y[idx] = t;
  }
}

template <typename T>
inline void combine_scalar(std::span<T> out, std::span<const T> y,
                           std::span<const T> k, T a, std::size_t lo,
                           std::size_t hi) {
  for (std::size_t idx = lo; idx < hi; ++idx) {
    out[idx] = y[idx] + a * k[idx];
  }
}

// ---------------------------------------------------------------------------
// Fixed-width forms. Per lane: the scalar chains above, verbatim.
// ---------------------------------------------------------------------------

/// y[i] += (k1 + 2 k2 + 2 k3 + k4) / 6, vector main loop + scalar tail.
template <std::size_t Bits, typename T>
void rk4_update_fixed(std::span<T> y, std::span<const T> k1,
                      std::span<const T> k2, std::span<const T> k3,
                      std::span<const T> k4, std::size_t lo, std::size_t hi) {
  using P = simd::pack<T, Bits>;
  constexpr std::size_t L = P::lanes;
  const P vtwo = P::broadcast(T{2});
  const P vsixth = P::broadcast(T(1.0 / 6.0));
  std::size_t i = lo;
  for (; i + L <= hi; i += L) {
    // ((k1 + 2*k2) + 2*k3) + k4 — the scalar expression's association.
    const P sum = ((P::load(&k1[i]) + vtwo * P::load(&k2[i])) +
                   vtwo * P::load(&k3[i])) +
                  P::load(&k4[i]);
    (P::load(&y[i]) + vsixth * sum).store(&y[i]);
  }
  rk4_update_scalar(y, k1, k2, k3, k4, i, hi);
}

/// The Kahan-compensated update: inc formed in registers, the
/// compensation recurrence per lane in the scalar order.
template <std::size_t Bits, typename T>
void rk4_update_kahan_fixed(std::span<T> y, std::span<T> comp,
                            std::span<const T> k1, std::span<const T> k2,
                            std::span<const T> k3, std::span<const T> k4,
                            std::size_t lo, std::size_t hi) {
  using P = simd::pack<T, Bits>;
  constexpr std::size_t L = P::lanes;
  const P vtwo = P::broadcast(T{2});
  const P vsixth = P::broadcast(T(1.0 / 6.0));
  std::size_t i = lo;
  for (; i + L <= hi; i += L) {
    const P sum = ((P::load(&k1[i]) + vtwo * P::load(&k2[i])) +
                   vtwo * P::load(&k3[i])) +
                  P::load(&k4[i]);
    const P inc = vsixth * sum;
    const P vy = P::load(&y[i]);
    const P adjusted = inc - P::load(&comp[i]);
    const P t = vy + adjusted;
    ((t - vy) - adjusted).store(&comp[i]);
    t.store(&y[i]);
  }
  rk4_update_kahan_scalar(y, comp, k1, k2, k3, k4, i, hi);
}

/// out = y + a*k (one field; the three-field SWM combine calls this per
/// field — same per-element arithmetic as the interleaved scalar loop,
/// since elements are independent).
template <std::size_t Bits, typename T>
void combine_fixed(std::span<T> out, std::span<const T> y,
                   std::span<const T> k, T a, std::size_t lo, std::size_t hi) {
  using P = simd::pack<T, Bits>;
  constexpr std::size_t L = P::lanes;
  const P va = P::broadcast(a);
  std::size_t i = lo;
  for (; i + L <= hi; i += L) {
    (P::load(&y[i]) + va * P::load(&k[i])).store(&out[i]);
  }
  combine_scalar(out, y, k, a, i, hi);
}

/// d[i] = To(double(s[i])) for native float/double pairs:
/// __builtin_convertvector converts per lane with the same rounding as
/// the scalar cast chain (float->double widening is exact, so the
/// intermediate double changes nothing).
template <std::size_t Bits, typename To, typename From>
void convert_fixed(std::span<To> d, std::span<const From> s, std::size_t lo,
                   std::size_t hi) {
  using PS = simd::pack<From, Bits>;
  using vec_to [[gnu::vector_size(PS::lanes * sizeof(To))]] = To;
  constexpr std::size_t L = PS::lanes;
  std::size_t i = lo;
  for (; i + L <= hi; i += L) {
    const vec_to v = __builtin_convertvector(PS::load(&s[i]).v, vec_to);
    std::memcpy(&d[i], &v, sizeof(v));
  }
  for (; i < hi; ++i) d[i] = To(static_cast<double>(s[i]));
}

// ---------------------------------------------------------------------------
// Policy-routed entry points (what swm/timestep.hpp calls for native
// element types). Width 0: the scalar reference chain.
// ---------------------------------------------------------------------------

template <typename T>
void rk4_update(std::span<T> y, std::span<const T> k1, std::span<const T> k2,
                std::span<const T> k3, std::span<const T> k4, std::size_t lo,
                std::size_t hi) {
  const std::size_t w = simd_width();
  if (w == 0) {
    rk4_update_scalar(y, k1, k2, k3, k4, lo, hi);
    return;
  }
  with_simd_width(w, [&](auto bits) {
    rk4_update_fixed<bits(), T>(y, k1, k2, k3, k4, lo, hi);
  });
}

template <typename T>
void rk4_update_kahan(std::span<T> y, std::span<T> comp,
                      std::span<const T> k1, std::span<const T> k2,
                      std::span<const T> k3, std::span<const T> k4,
                      std::size_t lo, std::size_t hi) {
  const std::size_t w = simd_width();
  if (w == 0) {
    rk4_update_kahan_scalar(y, comp, k1, k2, k3, k4, lo, hi);
    return;
  }
  with_simd_width(w, [&](auto bits) {
    rk4_update_kahan_fixed<bits(), T>(y, comp, k1, k2, k3, k4, lo, hi);
  });
}

template <typename T>
void combine(std::span<T> out, std::span<const T> y, std::span<const T> k, T a,
             std::size_t lo, std::size_t hi) {
  const std::size_t w = simd_width();
  if (w == 0) {
    combine_scalar(out, y, k, a, lo, hi);
    return;
  }
  with_simd_width(w, [&](auto bits) {
    combine_fixed<bits(), T>(out, y, k, a, lo, hi);
  });
}

template <typename To, typename From>
void convert(std::span<To> d, std::span<const From> s, std::size_t lo,
             std::size_t hi) {
  const std::size_t w = simd_width();
  if (w == 0) {
    for (std::size_t i = lo; i < hi; ++i) d[i] = To(static_cast<double>(s[i]));
    return;
  }
  with_simd_width(w, [&](auto bits) {
    convert_fixed<bits(), To, From>(d, s, lo, hi);
  });
}

// ---------------------------------------------------------------------------
// Batched forms (the ensemble engine's apply path, src/ensemble).
// Each item is one member-field problem over that member's own storage;
// members are independent, so batching amortizes the width-policy read
// and dispatch across the whole batch while every element runs exactly
// the per-element chain of the non-batched entry point above. A batch
// is therefore bit-identical to looping rk4_update[_kahan] over the
// items — at every width, including the compensation residuals.
// ---------------------------------------------------------------------------

/// One member-field apply problem of a batched RK4 update. `comp` is
/// only read/written by the Kahan kernel and may be empty otherwise.
template <typename T>
struct rk4_batch_item {
  std::span<T> y;
  std::span<T> comp;
  std::span<const T> k1, k2, k3, k4;
};

template <typename T>
void rk4_update_batched(std::span<const rk4_batch_item<T>> items) {
  const std::size_t w = simd_width();
  if (w == 0) {
    for (const auto& it : items) {
      rk4_update_scalar(it.y, it.k1, it.k2, it.k3, it.k4, 0, it.y.size());
    }
    return;
  }
  with_simd_width(w, [&](auto bits) {
    for (const auto& it : items) {
      rk4_update_fixed<bits(), T>(it.y, it.k1, it.k2, it.k3, it.k4, 0,
                                  it.y.size());
    }
  });
}

template <typename T>
void rk4_update_kahan_batched(std::span<const rk4_batch_item<T>> items) {
  const std::size_t w = simd_width();
  if (w == 0) {
    for (const auto& it : items) {
      rk4_update_kahan_scalar(it.y, it.comp, it.k1, it.k2, it.k3, it.k4, 0,
                              it.y.size());
    }
    return;
  }
  with_simd_width(w, [&](auto bits) {
    for (const auto& it : items) {
      rk4_update_kahan_fixed<bits(), T>(it.y, it.comp, it.k1, it.k2, it.k3,
                                        it.k4, 0, it.y.size());
    }
  });
}

}  // namespace tfx::kernels::sweeps
