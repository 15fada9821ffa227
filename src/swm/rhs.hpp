#pragma once

/// \file rhs.hpp
/// Right-hand side of the shallow-water equations on the C-grid.
///
/// Vector-invariant form (the ShallowWaters.jl discretization family):
///
///   u_t = +(f + zeta) vbar - d/dx (g eta + KE) + Fx - r u + nu4 lap^2 u
///   v_t = -(f + zeta) ubar - d/dy (g eta + KE)      - r v + nu4 lap^2 v
///   eta_t = -d/dx (u h) - d/dy (v h),   h = h0 + eta
///
/// discretized with centered differences, 4-point stagger averages, a
/// corner-point relative vorticity, and biharmonic diffusion. The
/// evaluator produces per-step *increments* (dt folded into every
/// coefficient) of the *scaled* prognostic variables U = s u, V = s v,
/// H = s eta; see params.hpp for why both devices matter at Float16.
///
/// Requires square cells (dx == dy), which the default configurations
/// guarantee; the constructor checks it.
///
/// Written once for both grid containers (swm/field.hpp): the serial
/// model evaluates the whole field2d grid, the distributed model one
/// rank's slab rows - calling the five row-range passes itself, around
/// its halo exchanges (swm/distributed.hpp).
///
/// Boundary conditions: doubly periodic by default; the channel option
/// (params.hpp) places free-slip solid walls at y = 0 and y = Ly. On
/// this C-grid layout the north-wall v-points coincide with the wrapped
/// v(i, 0) row, so keeping that row at zero enforces no-flux through
/// BOTH walls with the periodic index arithmetic intact; the remaining
/// wall handling is (a) mirroring u across the walls (free slip:
/// du/dy = 0, which also zeroes the wall vorticity), (b) an
/// antisymmetric v ghost making lap_v vanish on the wall row, and (c)
/// forcing dv = 0 on the wall row.

#include <array>
#include <cmath>
#include <vector>

#include "core/contracts.hpp"
#include "core/threadpool.hpp"
#include "fp/fpenv.hpp"
#include "swm/field.hpp"
#include "swm/params.hpp"
#include "swm/sweep.hpp"

namespace tfx::swm {

/// Per-step increments of the three prognostic fields.
template <typename T>
struct tendencies {
  field2d<T> du, dv, deta;

  tendencies() = default;
  tendencies(int nx, int ny) : du(nx, ny), dv(nx, ny), deta(nx, ny) {}
};

/// `Grid` is the field container: field2d<T> (the whole grid) or
/// slab<T> (one rank's rows, whose jm/jp reach the halo rows).
template <typename T, typename Grid = field2d<T>>
class rhs_evaluator {
 public:
  using grid_state = state<T, Grid>;

  /// The whole grid.
  explicit rhs_evaluator(const swm_params& p) : rhs_evaluator(p, 0, p.ny) {}

  /// `rows` rows starting at global row `j0`: the Coriolis and wind
  /// tables are functions of the global row.
  rhs_evaluator(const swm_params& p, int j0, int rows)
      : coeffs_(coefficients<T>::make(p)),
        channel_(p.bc == boundary::channel),
        zeta_(p.nx, rows),
        ke_(p.nx, rows),
        lap_u_(p.nx, rows),
        lap_v_(p.nx, rows) {
    TFX_EXPECTS(std::abs(p.dx() - p.dy()) < 1e-9 * p.dx());
    const double dt = p.dt();
    const double dy = p.dy();
    dt_cor_u_.resize(static_cast<std::size_t>(rows));
    dt_cor_v_.resize(static_cast<std::size_t>(rows));
    wind_u_.resize(static_cast<std::size_t>(rows));
    const double s = coeffs_.scale;
    for (int j = 0; j < rows; ++j) {
      const int gj = j0 + j;
      const double y_center = (gj + 0.5) * dy - 0.5 * p.Ly;
      const double y_face = gj * dy - 0.5 * p.Ly;
      dt_cor_u_[static_cast<std::size_t>(j)] =
          T(dt * (p.coriolis_f0 + p.coriolis_beta * y_center));
      dt_cor_v_[static_cast<std::size_t>(j)] =
          T(dt * (p.coriolis_f0 + p.coriolis_beta * y_face));
      // Double-gyre wind profile, periodic-compatible.
      wind_u_[static_cast<std::size_t>(j)] =
          T(-dt * s * p.wind_stress / (p.rho * p.depth) *
            std::cos(2.0 * M_PI * (gj + 0.5) / p.ny));
    }
  }

  [[nodiscard]] const coefficients<T>& coeffs() const { return coeffs_; }

  /// Attach a thread pool: the evaluation then partitions each pass's
  /// rows over the workers, all five passes under one worker wake
  /// (thread_pool::parallel_region, with a barrier between passes).
  /// Row partitioning writes disjoint rows, so the result is
  /// bit-identical to the serial evaluation (tests/swm_parallel_test
  /// pins this).
  void attach_pool(thread_pool* pool) { pool_ = pool; }
  [[nodiscard]] thread_pool* pool() const { return pool_; }

  /// True when an attached pool will actually be used for `ny` rows
  /// (below two rows per worker the wake costs more than it saves -
  /// the same bound as thread_pool::serial_grain).
  [[nodiscard]] bool parallel_for_rows(int ny) const {
    return pool_ != nullptr && ny >= 2 * pool_->size();
  }

  /// Evaluate the increments for state `st` into `out`.
  void operator()(const grid_state& st, tendencies<T>& out) {
    if (parallel_for_rows(st.ny())) {
      thread_pool::task tasks[pass_count];
      append_region_tasks(tasks, st, out);
      ftz_worker_scope scope;
      pool_->parallel_region({tasks, pass_count}, &scope);
    } else {
      evaluate_serial(st, out);
    }
  }

  /// The five passes, serially, in dependency order.
  void evaluate_serial(const grid_state& st, tendencies<T>& out) {
    const int ny = st.ny();
    pass_vorticity_ke(st, 0, ny);
    pass_laplacians(st, 0, ny);
    pass_u_momentum(st, out, 0, ny);
    pass_v_momentum(st, out, 0, ny);
    pass_continuity(st, out, 0, ny);
  }

  /// Number of region tasks append_region_tasks emits.
  static constexpr std::size_t pass_count = 5;

  /// Append the five passes as parallel-region tasks (row-partitioned,
  /// a barrier between consecutive tasks orders the writes). The task
  /// contexts live in this evaluator: one evaluation in flight at a
  /// time, and `st`/`out` must outlive the region call. Returns the
  /// number of tasks written. This is how the model fuses the stage
  /// combine + down-cast + RHS into ONE worker wake per RK4 stage.
  std::size_t append_region_tasks(thread_pool::task* tasks,
                                  const grid_state& st, tendencies<T>& out) {
    ctx_ = pass_ctx{this, &st, &out};
    const auto n = static_cast<std::size_t>(st.ny());
    tasks[0] = {n, &run_pass<&rhs_evaluator::pass_vorticity_ke>, &ctx_};
    tasks[1] = {n, &run_pass<&rhs_evaluator::pass_laplacians>, &ctx_};
    tasks[2] = {n, &run_pass_out<&rhs_evaluator::pass_u_momentum>, &ctx_};
    tasks[3] = {n, &run_pass_out<&rhs_evaluator::pass_v_momentum>, &ctx_};
    tasks[4] = {n, &run_pass_out<&rhs_evaluator::pass_continuity>, &ctx_};
    return pass_count;
  }

  /// Array sweeps per evaluation (reads + writes of full fields), used
  /// by the performance model's traffic accounting. Derived from the
  /// five passes below: see perfmodel.hpp.
  static constexpr double array_reads = 19.0;
  static constexpr double array_writes = 7.0;

  /// The fields passes 1-2 write and passes 3-5 read at rows j-1..j+1
  /// (vorticity, kinetic energy, the two Laplacians): on slabs, their
  /// halo rows must be filled between the two pass groups.
  [[nodiscard]] std::array<Grid*, 4> derived_fields() {
    return {&zeta_, &ke_, &lap_u_, &lap_v_};
  }

  // The five passes, each over rows [j0, j1). Passes 1-2 read the
  // state at rows j-1..j+1; passes 3-5 also read derived_fields().

  // Pass 1: relative vorticity (grid units, scale s) at corner points
  // and kinetic energy at centres. The KE is kept at scale s (not
  // s^2): one factor of each square is pre-multiplied by the exact
  // inv_s so no intermediate overflows Float16 at large s.
  void pass_vorticity_ke(const grid_state& st, int j0, int j1) {
    const int nx = st.nx();
    const auto& U = st.u;
    const auto& V = st.v;
    const auto& H = st.eta;
    const coefficients<T>& c = coeffs_;
    for (int j = j0; j < j1; ++j) {
      const int jm = channel_ && j == 0 ? 0 : H.jm(j);  // u mirrored at wall
      const int jp = H.jp(j);
      for (int i = 0; i < nx; ++i) {
        const int im = H.im(i);
        const int ip = H.ip(i);
        zeta_(i, j) = (V(i, j) - V(im, j)) - (U(i, j) - U(i, jm));
        const T ubar = c.half * (U(i, j) + U(ip, j));
        const T vbar = c.half * (V(i, j) + V(i, jp));
        ke_(i, j) = c.half * (ubar * (c.inv_s * ubar) +
                              vbar * (c.inv_s * vbar));
      }
    }
  }

  // Pass 2: Laplacians (grid units) of both velocity components. In
  // the channel, u mirrors across the walls (free slip) and the
  // antisymmetric v ghost plus v = 0 on the wall row make lap_v
  // vanish there.
  void pass_laplacians(const grid_state& st, int j0, int j1) {
    const int nx = st.nx();
    const int ny = st.ny();
    const auto& U = st.u;
    const auto& V = st.v;
    for (int j = j0; j < j1; ++j) {
      const int jm = U.jm(j);
      const int jp = U.jp(j);
      const int jm_u = channel_ && j == 0 ? 0 : jm;
      const int jp_u = channel_ && j == ny - 1 ? j : jp;
      const bool wall_v = channel_ && j == 0;
      for (int i = 0; i < nx; ++i) {
        const int im = U.im(i);
        const int ip = U.ip(i);
        const T four = T(4);
        lap_u_(i, j) = U(ip, j) + U(im, j) + U(i, jp_u) + U(i, jm_u) -
                       four * U(i, j);
        lap_v_(i, j) = wall_v ? T{}
                              : V(ip, j) + V(im, j) + V(i, jp) + V(i, jm) -
                                    four * V(i, j);
      }
    }
  }

  // Pass 3: u-momentum increment.
  void pass_u_momentum(const grid_state& st, tendencies<T>& out, int j0,
                       int j1) {
    const int nx = st.nx();
    const int ny = st.ny();
    const auto& U = st.u;
    const auto& V = st.v;
    const auto& H = st.eta;
    const coefficients<T>& c = coeffs_;
    for (int j = j0; j < j1; ++j) {
      const int jp = U.jp(j);
      const int jm = channel_ && j == 0 ? 0 : U.jm(j);
      const int jp_u = channel_ && j == ny - 1 ? j : jp;
      const T dtf = dt_cor_u_[static_cast<std::size_t>(j)];
      const T wind = wind_u_[static_cast<std::size_t>(j)];
      for (int i = 0; i < nx; ++i) {
        const int im = U.im(i);
        const int ip = U.ip(i);
        // v averaged to the u-point; vorticity averaged to the u-point.
        const T vbar = c.quarter *
                       (V(im, j) + V(i, j) + V(im, jp) + V(i, jp));
        // De-scale the vorticity factor (exact) before the product so
        // zbar*vbar carries scale s, not s^2.
        const T zbar = c.inv_s * (c.half * (zeta_(i, j) + zeta_(i, jp)));
        const T biharm = lap_u_(ip, j) + lap_u_(im, j) + lap_u_(i, jp_u) +
                         lap_u_(i, jm) - T(4) * lap_u_(i, j);
        out.du(i, j) = dtf * vbar                        // linear Coriolis
                       + c.dtdx * (zbar * vbar)          // vorticity advection
                       - c.g_dtdx * (H(i, j) - H(im, j)) // pressure gradient
                       - c.dtdx * (ke_(i, j) - ke_(im, j))  // KE gradient
                       + wind                             // wind stress
                       - c.dt_drag * U(i, j)              // bottom drag
                       - c.dt_visc * biharm;              // biharmonic
      }
    }
  }

  // Pass 4: v-momentum increment. In the channel the j = 0 row IS
  // the wall (and, via the wrap, the north wall too): no flow ever.
  void pass_v_momentum(const grid_state& st, tendencies<T>& out, int j0,
                       int j1) {
    const int nx = st.nx();
    const auto& U = st.u;
    const auto& V = st.v;
    const auto& H = st.eta;
    const coefficients<T>& c = coeffs_;
    for (int j = j0; j < j1; ++j) {
      if (channel_ && j == 0) {
        for (int i = 0; i < nx; ++i) out.dv(i, j) = T{};
        continue;
      }
      const int jm = V.jm(j);
      const int jp = V.jp(j);
      const T dtf = dt_cor_v_[static_cast<std::size_t>(j)];
      for (int i = 0; i < nx; ++i) {
        const int im = V.im(i);
        const int ip = V.ip(i);
        const T ubar = c.quarter *
                       (U(i, jm) + U(i, j) + U(ip, jm) + U(ip, j));
        const T zbar = c.inv_s * (c.half * (zeta_(i, j) + zeta_(ip, j)));
        const T biharm = lap_v_(ip, j) + lap_v_(im, j) + lap_v_(i, jp) +
                         lap_v_(i, jm) - T(4) * lap_v_(i, j);
        out.dv(i, j) = -dtf * ubar
                       - c.dtdx * (zbar * ubar)
                       - c.g_dtdy * (H(i, j) - H(i, jm))
                       - c.dtdy * (ke_(i, j) - ke_(i, jm))
                       - c.dt_drag * V(i, j)
                       - c.dt_visc * biharm;
      }
    }
  }

  // Pass 5: continuity. Linear part with h0, nonlinear flux with the
  // scaled surface displacement (one exact /s via the coefficient).
  void pass_continuity(const grid_state& st, tendencies<T>& out, int j0,
                       int j1) {
    const int nx = st.nx();
    const auto& U = st.u;
    const auto& V = st.v;
    const auto& H = st.eta;
    const coefficients<T>& c = coeffs_;
    for (int j = j0; j < j1; ++j) {
      const int jm = H.jm(j);
      const int jp = H.jp(j);
      for (int i = 0; i < nx; ++i) {
        const int im = H.im(i);
        const int ip = H.ip(i);
        const T div =
            c.h0_dtdx * (U(ip, j) - U(i, j)) +
            c.h0_dtdy * (V(i, jp) - V(i, j));
        // Fluxes u*eta at faces: de-scale the interpolated eta (exact)
        // so U * etabar carries scale s, not s^2.
        const T fx_e = U(ip, j) * (c.inv_s * (c.half * (H(i, j) + H(ip, j))));
        const T fx_w = U(i, j) * (c.inv_s * (c.half * (H(im, j) + H(i, j))));
        const T fy_n = V(i, jp) * (c.inv_s * (c.half * (H(i, j) + H(i, jp))));
        const T fy_s = V(i, j) * (c.inv_s * (c.half * (H(i, jm) + H(i, j))));
        out.deta(i, j) = -div - c.dtdx * (fx_e - fx_w) -
                         c.dtdy * (fy_n - fy_s);
      }
    }
  }

 private:
  struct pass_ctx {
    rhs_evaluator* self = nullptr;
    const grid_state* st = nullptr;
    tendencies<T>* out = nullptr;
  };

  template <void (rhs_evaluator::*Pass)(const grid_state&, int, int)>
  static void run_pass(const void* c, int, std::size_t lo, std::size_t hi) {
    const auto& ctx = *static_cast<const pass_ctx*>(c);
    (ctx.self->*Pass)(*ctx.st, static_cast<int>(lo), static_cast<int>(hi));
  }

  template <void (rhs_evaluator::*Pass)(const grid_state&, tendencies<T>&, int,
                                        int)>
  static void run_pass_out(const void* c, int, std::size_t lo,
                           std::size_t hi) {
    const auto& ctx = *static_cast<const pass_ctx*>(c);
    (ctx.self->*Pass)(*ctx.st, *ctx.out, static_cast<int>(lo),
                      static_cast<int>(hi));
  }

  thread_pool* pool_ = nullptr;
  pass_ctx ctx_;
  coefficients<T> coeffs_;
  bool channel_ = false;
  std::vector<T> dt_cor_u_, dt_cor_v_, wind_u_;
  Grid zeta_, ke_, lap_u_, lap_v_;
};

}  // namespace tfx::swm
