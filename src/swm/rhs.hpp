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
/// its halo exchange, with passes 1-2 also covering the halo row on
/// each side (swm/distributed.hpp).
///
/// Loop contract (docs/MODEL.md): per row, a pass takes the row
/// pointers it reads and writes once, with the coefficients hoisted
/// into scalar locals (a local copy of the whole coefficients struct
/// measured ~10 % slower), and runs its columns through
/// for_each_column. The two periodic wrap columns (i = 0 and
/// i = nx - 1) are peeled and run with their wrapped neighbours; the
/// interior columns read i - 1 and i + 1 straight from the row
/// pointers, contiguous memory the compiler vectorizes. For native
/// lane types (double, float) each pass runs through the width policy
/// (kernels::with_simd_width), so the loops vectorize at the ISA the
/// policy names on the host: AVX2 at 256 bits, AVX-512F at 512, the
/// baseline build's SSE2 otherwise. The interior loop carries a
/// no-alias promise (`#pragma GCC ivdep`) that rests on one invariant:
/// no pass writes an array it reads. The vectorized loops are
/// bit-identical to the scalar ones for the reason the element-wise
/// sweeps are (docs/KERNELS.md § 4): every element keeps its exact
/// expression and operation order, lanes only evaluate several
/// elements at once, the build pins -ffp-contract=off, and nothing
/// reassociates. SwmGolden (tests/swm_model_test) pins the
/// trajectories recorded from the scalar loops at every precision and
/// width.
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

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/contracts.hpp"
#include "core/threadpool.hpp"
#include "fp/traits.hpp"
#include "kernels/dispatch.hpp"
#include "swm/field.hpp"
#include "swm/params.hpp"

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
  /// tables are functions of the global row. On slabs the derived
  /// fields also hold the halo rows passes 1-2 may fill.
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

  /// Attach a thread pool: model::step then runs the tasks of
  /// append_region_tasks under one worker wake per RK4 stage, each
  /// pass's rows partitioned over the workers. Row partitioning writes
  /// disjoint rows, so the result is bit-identical to the serial
  /// evaluation (tests/swm_parallel_test pins this).
  void attach_pool(thread_pool* pool) { pool_ = pool; }
  [[nodiscard]] thread_pool* pool() const { return pool_; }

  /// True when an attached pool will actually be used for `ny` rows
  /// (below two rows per worker the wake costs more than it saves -
  /// the same bound as thread_pool::serial_grain).
  [[nodiscard]] bool parallel_for_rows(int ny) const {
    return pool_ != nullptr && ny >= 2 * pool_->size();
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

  // The five passes, each over rows [j0, j1), defined below the
  // class. Passes 1-2 read the state at rows j-1..j+1 and write the
  // derived fields (vorticity, kinetic energy, the two Laplacians);
  // passes 3-5 read the state and the derived fields at rows j-1..j+1.
  void pass_vorticity_ke(const grid_state& st, int j0, int j1);
  void pass_laplacians(const grid_state& st, int j0, int j1);
  void pass_u_momentum(const grid_state& st, tendencies<T>& out, int j0,
                       int j1);
  void pass_v_momentum(const grid_state& st, tendencies<T>& out, int j0,
                       int j1);
  void pass_continuity(const grid_state& st, tendencies<T>& out, int j0,
                       int j1);

 private:
  /// Run one pass's rows: for native lane types through the width
  /// policy, so they run on the host's copy for its width
  /// (kernels/dispatch.hpp); soft-float and analysis types call them
  /// directly, since their scalar operators gain nothing from it and
  /// flattening them costs build time.
  template <typename Rows>
  static void at_policy_isa(const Rows& rows) {
    if constexpr (fp::vec_traits<T>::kind == fp::vectorizability::native) {
      if (const std::size_t w = kernels::simd_width(); w != 0) {
        kernels::with_simd_width(w, [&](auto) { rows(); });
        return;
      }
    }
    rows();
  }

  /// Run `cell(i, im, ip)` over the columns of one row, im/ip being
  /// the periodic x-neighbours of i. The two wrap columns are peeled
  /// (for nx == 1 the one column is its own neighbour on both sides);
  /// the interior loop reads i - 1 and i + 1 directly, so the
  /// compiler sees contiguous unit-stride accesses and vectorizes it.
  ///
  /// The ivdep promise (no loop-carried dependence, no alias between
  /// what an iteration writes and what any other reads) rests on the
  /// evaluator's invariant that no pass writes an array it reads:
  /// passes 1-2 write only the evaluator's derived fields and read
  /// only the state; passes 3-5 write only the tendencies and read the
  /// state and the derived fields. Without it GCC's runtime alias
  /// checks give up on the v-momentum pass and leave it scalar.
  template <typename Cell>
  static void for_each_column(int nx, const Cell& cell) {
    cell(0, nx - 1, nx > 1 ? 1 : 0);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC ivdep
#endif
    for (int i = 1; i < nx - 1; ++i) cell(i, i - 1, i + 1);
    if (nx > 1) cell(nx - 1, nx - 2, 0);
  }

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

// Pass 1: relative vorticity (grid units, scale s) at corner points
// and kinetic energy at centres. The KE is kept at scale s (not
// s^2): one factor of each square is pre-multiplied by the exact
// inv_s so no intermediate overflows Float16 at large s.
template <typename T, typename Grid>
void rhs_evaluator<T, Grid>::pass_vorticity_ke(const grid_state& st, int j0,
                                               int j1) {
  at_policy_isa([&] {
    const int nx = st.nx();
    const auto& U = st.u;
    const auto& V = st.v;
    const auto& H = st.eta;
    const T half = coeffs_.half;
    const T inv_s = coeffs_.inv_s;
    for (int j = j0; j < j1; ++j) {
      const int jm = channel_ && j == 0 ? 0 : H.jm(j);  // u mirrored at wall
      const int jp = H.jp(j);
      const T* u = &U(0, j);
      const T* u_s = &U(0, jm);
      const T* v = &V(0, j);
      const T* v_n = &V(0, jp);
      T* zeta = &zeta_(0, j);
      T* ke = &ke_(0, j);
      for_each_column(nx, [&](int i, int im, int ip) {
        zeta[i] = (v[i] - v[im]) - (u[i] - u_s[i]);
        const T ubar = half * (u[i] + u[ip]);
        const T vbar = half * (v[i] + v_n[i]);
        ke[i] = half * (ubar * (inv_s * ubar) + vbar * (inv_s * vbar));
      });
    }
  });
}

// Pass 2: Laplacians (grid units) of both velocity components. In
// the channel, u mirrors across the walls (free slip) and the
// antisymmetric v ghost plus v = 0 on the wall row make lap_v
// vanish there.
template <typename T, typename Grid>
void rhs_evaluator<T, Grid>::pass_laplacians(const grid_state& st, int j0,
                                             int j1) {
  at_policy_isa([&] {
    const int nx = st.nx();
    const int ny = st.ny();
    const auto& U = st.u;
    const auto& V = st.v;
    const T four = T(4);
    for (int j = j0; j < j1; ++j) {
      const int jm = U.jm(j);
      const int jp = U.jp(j);
      const int jm_u = channel_ && j == 0 ? 0 : jm;
      const int jp_u = channel_ && j == ny - 1 ? j : jp;
      const T* u = &U(0, j);
      const T* u_n = &U(0, jp_u);
      const T* u_s = &U(0, jm_u);
      T* lap_u = &lap_u_(0, j);
      for_each_column(nx, [&](int i, int im, int ip) {
        lap_u[i] = u[ip] + u[im] + u_n[i] + u_s[i] - four * u[i];
      });
      T* lap_v = &lap_v_(0, j);
      if (channel_ && j == 0) {  // the wall row
        std::fill(lap_v, lap_v + nx, T{});
        continue;
      }
      const T* v = &V(0, j);
      const T* v_n = &V(0, jp);
      const T* v_s = &V(0, jm);
      for_each_column(nx, [&](int i, int im, int ip) {
        lap_v[i] = v[ip] + v[im] + v_n[i] + v_s[i] - four * v[i];
      });
    }
  });
}

// Pass 3: u-momentum increment.
template <typename T, typename Grid>
void rhs_evaluator<T, Grid>::pass_u_momentum(const grid_state& st,
                                             tendencies<T>& out, int j0,
                                             int j1) {
  at_policy_isa([&] {
    const int nx = st.nx();
    const int ny = st.ny();
    const auto& U = st.u;
    const auto& V = st.v;
    const auto& H = st.eta;
    const T half = coeffs_.half;
    const T quarter = coeffs_.quarter;
    const T inv_s = coeffs_.inv_s;
    const T dtdx = coeffs_.dtdx;
    const T g_dtdx = coeffs_.g_dtdx;
    const T dt_drag = coeffs_.dt_drag;
    const T dt_visc = coeffs_.dt_visc;
    const T four = T(4);
    for (int j = j0; j < j1; ++j) {
      const int jp = U.jp(j);
      const int jm = channel_ && j == 0 ? 0 : U.jm(j);
      const int jp_u = channel_ && j == ny - 1 ? j : jp;
      const T dtf = dt_cor_u_[static_cast<std::size_t>(j)];
      const T wind = wind_u_[static_cast<std::size_t>(j)];
      const T* u = &U(0, j);
      const T* v = &V(0, j);
      const T* v_n = &V(0, jp);
      const T* h = &H(0, j);
      const T* zeta = &zeta_(0, j);
      const T* zeta_n = &zeta_(0, jp);
      const T* ke = &ke_(0, j);
      const T* lap = &lap_u_(0, j);
      const T* lap_n = &lap_u_(0, jp_u);
      const T* lap_s = &lap_u_(0, jm);
      T* du = &out.du(0, j);
      for_each_column(nx, [&](int i, int im, int ip) {
        // v averaged to the u-point; vorticity averaged to the u-point.
        const T vbar = quarter * (v[im] + v[i] + v_n[im] + v_n[i]);
        // De-scale the vorticity factor (exact) before the product so
        // zbar*vbar carries scale s, not s^2.
        const T zbar = inv_s * (half * (zeta[i] + zeta_n[i]));
        const T biharm =
            lap[ip] + lap[im] + lap_n[i] + lap_s[i] - four * lap[i];
        du[i] = dtf * vbar                      // linear Coriolis
                + dtdx * (zbar * vbar)          // vorticity advection
                - g_dtdx * (h[i] - h[im])       // pressure gradient
                - dtdx * (ke[i] - ke[im])       // KE gradient
                + wind                          // wind stress
                - dt_drag * u[i]                // bottom drag
                - dt_visc * biharm;             // biharmonic
      });
    }
  });
}

// Pass 4: v-momentum increment. In the channel the j = 0 row IS
// the wall (and, via the wrap, the north wall too): no flow ever.
template <typename T, typename Grid>
void rhs_evaluator<T, Grid>::pass_v_momentum(const grid_state& st,
                                             tendencies<T>& out, int j0,
                                             int j1) {
  at_policy_isa([&] {
    const int nx = st.nx();
    const auto& U = st.u;
    const auto& V = st.v;
    const auto& H = st.eta;
    const T half = coeffs_.half;
    const T quarter = coeffs_.quarter;
    const T inv_s = coeffs_.inv_s;
    const T dtdx = coeffs_.dtdx;
    const T dtdy = coeffs_.dtdy;
    const T g_dtdy = coeffs_.g_dtdy;
    const T dt_drag = coeffs_.dt_drag;
    const T dt_visc = coeffs_.dt_visc;
    const T four = T(4);
    for (int j = j0; j < j1; ++j) {
      T* dv = &out.dv(0, j);
      if (channel_ && j == 0) {
        std::fill(dv, dv + nx, T{});
        continue;
      }
      const int jm = V.jm(j);
      const int jp = V.jp(j);
      const T dtf = dt_cor_v_[static_cast<std::size_t>(j)];
      const T* u = &U(0, j);
      const T* u_s = &U(0, jm);
      const T* v = &V(0, j);
      const T* h = &H(0, j);
      const T* h_s = &H(0, jm);
      const T* zeta = &zeta_(0, j);
      const T* ke = &ke_(0, j);
      const T* ke_s = &ke_(0, jm);
      const T* lap = &lap_v_(0, j);
      const T* lap_n = &lap_v_(0, jp);
      const T* lap_s = &lap_v_(0, jm);
      for_each_column(nx, [&](int i, int im, int ip) {
        const T ubar = quarter * (u_s[i] + u[i] + u_s[ip] + u[ip]);
        const T zbar = inv_s * (half * (zeta[i] + zeta[ip]));
        const T biharm =
            lap[ip] + lap[im] + lap_n[i] + lap_s[i] - four * lap[i];
        dv[i] = -dtf * ubar
                - dtdx * (zbar * ubar)
                - g_dtdy * (h[i] - h_s[i])
                - dtdy * (ke[i] - ke_s[i])
                - dt_drag * v[i]
                - dt_visc * biharm;
      });
    }
  });
}

// Pass 5: continuity. Linear part with h0, nonlinear flux with the
// scaled surface displacement (one exact /s via the coefficient).
template <typename T, typename Grid>
void rhs_evaluator<T, Grid>::pass_continuity(const grid_state& st,
                                             tendencies<T>& out, int j0,
                                             int j1) {
  at_policy_isa([&] {
    const int nx = st.nx();
    const auto& U = st.u;
    const auto& V = st.v;
    const auto& H = st.eta;
    const T half = coeffs_.half;
    const T inv_s = coeffs_.inv_s;
    const T dtdx = coeffs_.dtdx;
    const T dtdy = coeffs_.dtdy;
    const T h0_dtdx = coeffs_.h0_dtdx;
    const T h0_dtdy = coeffs_.h0_dtdy;
    for (int j = j0; j < j1; ++j) {
      const int jm = H.jm(j);
      const int jp = H.jp(j);
      const T* u = &U(0, j);
      const T* v = &V(0, j);
      const T* v_n = &V(0, jp);
      const T* h = &H(0, j);
      const T* h_n = &H(0, jp);
      const T* h_s = &H(0, jm);
      T* deta = &out.deta(0, j);
      for_each_column(nx, [&](int i, int im, int ip) {
        const T div = h0_dtdx * (u[ip] - u[i]) + h0_dtdy * (v_n[i] - v[i]);
        // Fluxes u*eta at faces: de-scale the interpolated eta (exact)
        // so U * etabar carries scale s, not s^2.
        const T fx_e = u[ip] * (inv_s * (half * (h[i] + h[ip])));
        const T fx_w = u[i] * (inv_s * (half * (h[im] + h[i])));
        const T fy_n = v_n[i] * (inv_s * (half * (h[i] + h_n[i])));
        const T fy_s = v[i] * (inv_s * (half * (h_s[i] + h[i])));
        deta[i] = -div - dtdx * (fx_e - fx_w) - dtdy * (fy_n - fy_s);
      });
    }
  });
}

// The native types' passes, with their AVX2 and AVX-512F copies, are
// compiled once, in rhs.cpp, rather than in every translation unit
// that holds a model: three copies of them there took the full-tree
// build's CPU time up by about a quarter.
extern template class rhs_evaluator<double>;
extern template class rhs_evaluator<float>;
extern template class rhs_evaluator<double, slab<double>>;
extern template class rhs_evaluator<float, slab<float>>;

}  // namespace tfx::swm
