#pragma once

/// \file timestep.hpp
/// Time-integration building blocks: element-wise field updates in a
/// chosen accumulation precision, with or without compensation.
///
/// The paper's three configurations of Fig. 5 map onto these:
///  * Float64 / Float32:        standard accumulation, Tprog == T
///  * Float16 (default):        compensated (Kahan) accumulation in T;
///                              "a compensated summation that
///                              compensates for the rounding error of
///                              the previous time step" (~5 % runtime)
///  * Float16/32 mixed:         RHS in Float16, accumulation in Float32
///                              (Tprog = float), no compensation

#include <span>
#include <type_traits>

#include "fp/traits.hpp"
#include "kernels/sweeps.hpp"
#include "swm/field.hpp"
#include "swm/rhs.hpp"

namespace tfx::swm {

/// How the prognostic update y_{n+1} = y_n + dt*F is accumulated.
enum class integration_scheme {
  standard,     ///< plain += in Tprog
  compensated,  ///< Kahan-compensated += in Tprog
};

/// Lossless-where-possible precision cast (via double, exact for all
/// library formats).
template <typename To, typename From>
constexpr To fpcast(const From& v) {
  if constexpr (std::is_same_v<To, From>) {
    return v;
  } else {
    return To(static_cast<double>(v));
  }
}

// ---------------------------------------------------------------------------
// The RK4 update. Per element the increment
//
//   inc = (k1 + 2 k2 + 2 k3 + k4) / 6        (evaluated in Tprog,
//                                              left-to-right)
//
// is formed in registers and fed straight into y += inc (or the Kahan
// update), so one sweep per field finishes the step and no increment
// array is ever materialized. Native element types (double / float with
// T == Tprog, per fp::vec_traits) run the dispatched vector kernels in
// kernels/sweeps.hpp - explicitly vectorized at the runtime width
// policy, bit-identical to the scalar loops at every width
// (docs/KERNELS.md). Soft-float and analysis types run the scalar loops
// below. tests/swm_model_test's SwmGolden pins the trajectories at
// every precision.
// ---------------------------------------------------------------------------

/// One element range of the fused standard update: y += rk4(k1..k4).
template <typename Tprog, typename T>
void fused_rk4_update_range(std::span<Tprog> y, std::span<const T> k1,
                            std::span<const T> k2, std::span<const T> k3,
                            std::span<const T> k4, std::size_t lo,
                            std::size_t hi) {
  if constexpr (std::is_same_v<T, Tprog> &&
                fp::vec_traits<Tprog>::kind == fp::vectorizability::native) {
    kernels::sweeps::rk4_update<Tprog>(y, k1, k2, k3, k4, lo, hi);
    return;
  }
  const Tprog two{2};
  const Tprog sixth = Tprog(1.0 / 6.0);
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const Tprog sum = fpcast<Tprog>(k1[idx]) + two * fpcast<Tprog>(k2[idx]) +
                      two * fpcast<Tprog>(k3[idx]) + fpcast<Tprog>(k4[idx]);
    y[idx] += sixth * sum;
  }
}

/// One element range of the fused compensated update: y += rk4(k1..k4)
/// with Kahan compensation carried in `comp` across steps - the
/// compensated time integration of § III-B / Fig. 4's caption.
template <typename Tprog, typename T>
void fused_rk4_update_compensated_range(std::span<Tprog> y,
                                        std::span<Tprog> comp,
                                        std::span<const T> k1,
                                        std::span<const T> k2,
                                        std::span<const T> k3,
                                        std::span<const T> k4, std::size_t lo,
                                        std::size_t hi) {
  if constexpr (std::is_same_v<T, Tprog> &&
                fp::vec_traits<Tprog>::kind == fp::vectorizability::native) {
    kernels::sweeps::rk4_update_kahan<Tprog>(y, comp, k1, k2, k3, k4, lo, hi);
    return;
  }
  const Tprog two{2};
  const Tprog sixth = Tprog(1.0 / 6.0);
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const Tprog sum = fpcast<Tprog>(k1[idx]) + two * fpcast<Tprog>(k2[idx]) +
                      two * fpcast<Tprog>(k3[idx]) + fpcast<Tprog>(k4[idx]);
    const Tprog inc = sixth * sum;
    const Tprog adjusted = inc - comp[idx];
    const Tprog t = y[idx] + adjusted;
    comp[idx] = (t - y[idx]) - adjusted;
    y[idx] = t;
  }
}

/// The fused update of all three prognostic fields over one element
/// range of their interiors: y += rk4(k1..k4), Kahan-compensated
/// through `comp` under integration_scheme::compensated. The apply
/// sweep of both the serial model (whole grid) and the distributed
/// model (slab interiors).
template <typename Tprog, typename T, typename Grid>
void fused_rk4_apply_range(state<Tprog, Grid>& y, state<Tprog, Grid>& comp,
                           const tendencies<T>& k1, const tendencies<T>& k2,
                           const tendencies<T>& k3, const tendencies<T>& k4,
                           integration_scheme scheme, std::size_t lo,
                           std::size_t hi) {
  if (scheme == integration_scheme::compensated) {
    fused_rk4_update_compensated_range<Tprog, T>(
        y.u.interior(), comp.u.interior(), k1.du.flat(), k2.du.flat(),
        k3.du.flat(), k4.du.flat(), lo, hi);
    fused_rk4_update_compensated_range<Tprog, T>(
        y.v.interior(), comp.v.interior(), k1.dv.flat(), k2.dv.flat(),
        k3.dv.flat(), k4.dv.flat(), lo, hi);
    fused_rk4_update_compensated_range<Tprog, T>(
        y.eta.interior(), comp.eta.interior(), k1.deta.flat(),
        k2.deta.flat(), k3.deta.flat(), k4.deta.flat(), lo, hi);
  } else {
    fused_rk4_update_range<Tprog, T>(y.u.interior(), k1.du.flat(),
                                     k2.du.flat(), k3.du.flat(), k4.du.flat(),
                                     lo, hi);
    fused_rk4_update_range<Tprog, T>(y.v.interior(), k1.dv.flat(),
                                     k2.dv.flat(), k3.dv.flat(), k4.dv.flat(),
                                     lo, hi);
    fused_rk4_update_range<Tprog, T>(y.eta.interior(), k1.deta.flat(),
                                     k2.deta.flat(), k3.deta.flat(),
                                     k4.deta.flat(), lo, hi);
  }
}

/// One element range of the fused stage combine: out = y + a*k, in
/// Tprog (k cast up/down as needed), for all three prognostic fields in
/// a single loop - the RK stage states. Ranges index the interiors, so
/// slab states combine like whole grids.
template <typename Tprog, typename T, typename Grid>
void fused_stage_combine_range(state<Tprog, Grid>& out,
                               const state<Tprog, Grid>& y,
                               const tendencies<T>& k, Tprog a, std::size_t lo,
                               std::size_t hi) {
  auto ou = out.u.interior();
  auto ov = out.v.interior();
  auto oe = out.eta.interior();
  auto yu = y.u.interior();
  auto yv = y.v.interior();
  auto ye = y.eta.interior();
  auto ku = k.du.flat();
  auto kv = k.dv.flat();
  auto ke = k.deta.flat();
  if constexpr (std::is_same_v<T, Tprog> &&
                fp::vec_traits<Tprog>::kind == fp::vectorizability::native) {
    // Elements are independent, so the interleaved three-field loop and
    // three per-field sweeps compute identical values; the per-field
    // form is what the vector kernel wants.
    kernels::sweeps::combine<Tprog>(ou, yu, ku, a, lo, hi);
    kernels::sweeps::combine<Tprog>(ov, yv, kv, a, lo, hi);
    kernels::sweeps::combine<Tprog>(oe, ye, ke, a, lo, hi);
    return;
  }
  for (std::size_t idx = lo; idx < hi; ++idx) {
    ou[idx] = yu[idx] + a * fpcast<Tprog>(ku[idx]);
    ov[idx] = yv[idx] + a * fpcast<Tprog>(kv[idx]);
    oe[idx] = ye[idx] + a * fpcast<Tprog>(ke[idx]);
  }
}

}  // namespace tfx::swm
