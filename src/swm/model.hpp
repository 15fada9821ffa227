#pragma once

/// \file model.hpp
/// The shallow-water model facade: ShallowWaters.jl's role in the
/// paper, written once and instantiated at any precision.
///
///   model<double>                       - the Float64 reference
///   model<float>                        - Float32
///   model<fp::float16>                  - Float16, compensated RK4
///   model<fp::float16, float>           - the mixed Float16/32 run
///   model<fp::sherlog<float>>           - the Sherlog32 analysis run
///
/// The first template parameter T is the *computation* type (all RHS
/// arithmetic); the second, Tprog, is the *time-integration* type the
/// prognostic fields are stored and accumulated in (defaults to T).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/diagnostics.hpp"
#include "swm/field.hpp"
#include "swm/health.hpp"
#include "swm/params.hpp"
#include "swm/perfmodel.hpp"
#include "swm/rhs.hpp"
#include "swm/timestep.hpp"

namespace tfx::swm {

template <typename T, typename Tprog = T>
class model {
 public:
  explicit model(swm_params params,
                 integration_scheme scheme = integration_scheme::standard)
      : params_(params),
        scheme_(scheme),
        rhs_(params),
        prog_(params.nx, params.ny),
        comp_(params.nx, params.ny),
        stage_(params.nx, params.ny),
        k1_(params.nx, params.ny),
        k2_(params.nx, params.ny),
        k3_(params.nx, params.ny),
        k4_(params.nx, params.ny) {
    prog_.fill(Tprog{});
    comp_.fill(Tprog{});
    ctx_.self = this;
    if constexpr (!std::is_same_v<T, Tprog>) {
      compute_state_ = state<T>(params.nx, params.ny);
    }
  }

  [[nodiscard]] const swm_params& params() const { return params_; }
  [[nodiscard]] integration_scheme scheme() const { return scheme_; }
  [[nodiscard]] int steps_taken() const { return steps_; }
  [[nodiscard]] double time() const { return steps_ * params_.dt(); }

  /// Select the update pipeline (default fused; see update_pipeline).
  /// Switching mid-run is safe: both pipelines advance the state - and
  /// the Kahan compensation - through identical per-element arithmetic.
  void set_pipeline(update_pipeline p) {
    pipeline_ = p;
    if (p == update_pipeline::unfused && inc_u_.size() == 0) {
      inc_u_ = field2d<Tprog>(params_.nx, params_.ny);
      inc_v_ = field2d<Tprog>(params_.nx, params_.ny);
      inc_eta_ = field2d<Tprog>(params_.nx, params_.ny);
    }
  }
  [[nodiscard]] update_pipeline pipeline() const { return pipeline_; }

  /// The prognostic (scaled) state in integration precision.
  [[nodiscard]] const state<Tprog>& prognostic() const { return prog_; }
  [[nodiscard]] state<Tprog>& prognostic() { return prog_; }

  /// Attach a thread pool: the RHS passes run row-parallel (results
  /// bit-identical to serial; see rhs_evaluator::attach_pool). The pool
  /// must outlive the model.
  void attach_pool(thread_pool* pool) { rhs_.attach_pool(pool); }

  /// Restart from a checkpointed state: adopts the fields and the step
  /// counter, clears the Kahan compensation (see checkpoint.hpp).
  void restore(const state<Tprog>& s, int steps_taken) {
    TFX_EXPECTS(s.nx() == params_.nx && s.ny() == params_.ny);
    prog_ = s;
    comp_.fill(Tprog{});
    steps_ = steps_taken;
  }

  /// Restart with the Kahan compensation residuals too (v2 checkpoints
  /// carry them): the compensated integrator resumes *bit-identically*
  /// instead of restarting its error accumulator from zero.
  void restore(const state<Tprog>& s, const state<Tprog>& compensation,
               int steps_taken) {
    TFX_EXPECTS(s.nx() == params_.nx && s.ny() == params_.ny);
    TFX_EXPECTS(compensation.nx() == params_.nx &&
                compensation.ny() == params_.ny);
    prog_ = s;
    comp_ = compensation;
    steps_ = steps_taken;
  }

  /// The Kahan compensation state (what v2 checkpoints persist).
  [[nodiscard]] const state<Tprog>& compensation() const { return comp_; }

  /// Scan eta every `every` steps inside step() and throw
  /// numerical_error on the first non-finite value (swm/health.hpp);
  /// 0 disables the sentinel (default - one integer-modulo branch, no
  /// allocation, step loop otherwise untouched).
  void set_health_interval(int every) { health_every_ = every; }

  /// The sentinel scan itself; rank is -1 (serial model).
  void check_health() const {
    require_finite(std::span<const Tprog>(prog_.eta.flat()), "eta", steps_,
                   -1);
  }

  /// Unscaled state in double precision, for diagnostics and output.
  [[nodiscard]] state<double> unscaled() const {
    state<double> out = convert_state<double>(prog_);
    const double inv_s = 1.0 / rhs_.coeffs().scale;
    for (auto& v : out.u.flat()) v *= inv_s;
    for (auto& v : out.v.flat()) v *= inv_s;
    for (auto& v : out.eta.flat()) v *= inv_s;
    return out;
  }

  /// Initialize with a balanced random eddy field: a band-limited
  /// random streamfunction, nondivergent velocities and a
  /// geostrophically balanced surface displacement. Produces the
  /// turbulent regime of Fig. 4 within a short spin-up.
  void seed_random_eddies(std::uint64_t seed, double velocity_amplitude) {
    xoshiro256 rng(seed);
    const int nx = params_.nx;
    const int ny = params_.ny;
    field2d<double> psi(nx, ny);
    psi.fill(0.0);

    // A handful of large-scale Fourier modes with random phases.
    constexpr int kmax = 4;
    for (int kx = 1; kx <= kmax; ++kx) {
      for (int ky = 1; ky <= kmax; ++ky) {
        const double amp = rng.uniform(-1.0, 1.0) /
                           std::sqrt(static_cast<double>(kx * kx + ky * ky));
        const double phx = rng.uniform(0.0, 2.0 * M_PI);
        const double phy = rng.uniform(0.0, 2.0 * M_PI);
        for (int j = 0; j < ny; ++j) {
          for (int i = 0; i < nx; ++i) {
            psi(i, j) += amp *
                         std::sin(2.0 * M_PI * kx * i / nx + phx) *
                         std::sin(2.0 * M_PI * ky * j / ny + phy);
          }
        }
      }
    }

    // Normalize so max |u| ~ velocity_amplitude, then derive fields.
    double max_grad = 0.0;
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double gx = (psi(psi.ip(i), j) - psi(i, j)) / params_.dx();
        const double gy = (psi(i, psi.jp(j)) - psi(i, j)) / params_.dy();
        max_grad = std::max({max_grad, std::abs(gx), std::abs(gy)});
      }
    }
    const double norm = max_grad > 0 ? velocity_amplitude / max_grad : 0.0;
    const double s = rhs_.coeffs().scale;
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double u = -(psi(i, psi.jp(j)) - psi(i, j)) / params_.dy() * norm;
        const double v = (psi(psi.ip(i), j) - psi(i, j)) / params_.dx() * norm;
        const double eta =
            params_.coriolis_f0 / params_.gravity * psi(i, j) * norm;
        prog_.u(i, j) = Tprog(s * u);
        prog_.v(i, j) = Tprog(s * v);
        prog_.eta(i, j) = Tprog(s * eta);
      }
    }
    if (params_.bc == boundary::channel) {
      // The j = 0 v-row is the solid wall (south and, via the wrap,
      // north): no flow through it, ever. The RHS keeps it at zero.
      for (int i = 0; i < nx; ++i) prog_.v(i, 0) = Tprog{};
    }
    comp_.fill(Tprog{});
  }

  /// Advance one RK4 step. When the observability plane is live the
  /// step is bracketed by a swm.step span and followed by a
  /// swm.update_bytes counter sample that carries the step's *measured*
  /// update-sweep traffic (value) against the perfmodel's prediction
  /// for the same configuration (aux) - the trace-level version of the
  /// docs/MODEL.md byte accounting. Tracing off (or compiled out):
  /// exactly the three statements of the tail branch, nothing else.
  void step() {
    if constexpr (obs::compiled) {
      if (obs::active()) {
        const double t0 = obs::host_now();
        obs::begin_at(obs::domain::swm, 0, "swm.step", t0,
                      static_cast<std::uint64_t>(steps_));
        if (pipeline_ == update_pipeline::fused) {
          step_fused();
        } else {
          step_unfused();
        }
        ++steps_;
        if (health_every_ > 0 && steps_ % health_every_ == 0) check_health();
        emit_step_obs(t0);
        return;
      }
    }
    if (pipeline_ == update_pipeline::fused) {
      step_fused();
    } else {
      step_unfused();
    }
    ++steps_;
    if (health_every_ > 0 && steps_ % health_every_ == 0) check_health();
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) step();
  }

  // -- member-steppable facade (the ensemble engine, src/ensemble) ----
  //
  // The engine drives a member's step in parts so the apply sweep can
  // be batched across members: step_stages() runs the four RHS stages
  // of the *fused* pipeline, then either step_apply() finishes the
  // step standalone or the engine collects append_rk4_items() from the
  // whole batch and runs kernels::sweeps::rk4_update[_kahan]_batched —
  // the same per-element chains, one dispatch for the batch. Either
  // way finish_step() closes the step exactly like step()'s tail, so
  //   step_stages(); step_apply(); finish_step();
  // is the untraced step() verbatim, and the batched form is pinned
  // bit-identical to it by tests/ensemble_engine_test.

  /// True when the apply sweep can run through the batched kernels
  /// (native integration type, no mixed-precision down-cast in apply).
  static constexpr bool batchable_apply =
      std::is_same_v<T, Tprog> &&
      fp::vec_traits<Tprog>::kind == fp::vectorizability::native;

  /// The four fused RHS stages of one step: k1..k4 become valid.
  void step_stages() {
    TFX_EXPECTS(pipeline_ == update_pipeline::fused);
    const Tprog half = Tprog(0.5);
    const Tprog one = Tprog(1);
    fused_stage(nullptr, Tprog{}, k1_);
    fused_stage(&k1_, half, k2_);
    fused_stage(&k2_, half, k3_);
    fused_stage(&k3_, one, k4_);
  }

  /// The fused increment+apply sweep (the standalone finish of
  /// step_stages()).
  void step_apply() { fused_apply(); }

  /// Close the step: counter + health sentinel, identical to step().
  /// Throws numerical_error like step() when the sentinel trips.
  void finish_step() {
    ++steps_;
    if (health_every_ > 0 && steps_ % health_every_ == 0) check_health();
  }

  /// Append this member's three per-field apply problems for the
  /// batched kernels (u, v, eta — the apply_range field order).
  void append_rk4_items(
      std::vector<kernels::sweeps::rk4_batch_item<Tprog>>& out)
    requires(batchable_apply)
  {
    out.push_back({prog_.u.flat(), comp_.u.flat(), k1_.du.flat(),
                   k2_.du.flat(), k3_.du.flat(), k4_.du.flat()});
    out.push_back({prog_.v.flat(), comp_.v.flat(), k1_.dv.flat(),
                   k2_.dv.flat(), k3_.dv.flat(), k4_.dv.flat()});
    out.push_back({prog_.eta.flat(), comp_.eta.flat(), k1_.deta.flat(),
                   k2_.deta.flat(), k3_.deta.flat(), k4_.deta.flat()});
  }

  /// Diagnostics on the unscaled double-precision state.
  [[nodiscard]] diagnostics diag() const {
    return compute_diagnostics(unscaled(), params_);
  }

 private:
  /// The fused pipeline: per stage, ONE parallel region (one worker
  /// wake) runs the fused three-field stage combine, the mixed-
  /// precision down-cast when Tprog != T, and all five RHS passes -
  /// barriers between region tasks order the writes. The step then
  /// finishes with ONE fused increment+apply sweep per field (no
  /// increment arrays). Bit-identical to step_unfused at every
  /// precision and pool size.
  void step_fused() {
    const Tprog half = Tprog(0.5);
    const Tprog one = Tprog(1);
    {
      TFX_OBS_SPAN(swm, 0, "rk4.stage", 1);
      fused_stage(nullptr, Tprog{}, k1_);  // k1 = F(y)
    }
    {
      TFX_OBS_SPAN(swm, 0, "rk4.stage", 2);
      fused_stage(&k1_, half, k2_);  // k2 = F(y + k1/2)
    }
    {
      TFX_OBS_SPAN(swm, 0, "rk4.stage", 3);
      fused_stage(&k2_, half, k3_);  // k3 = F(y + k2/2)
    }
    {
      TFX_OBS_SPAN(swm, 0, "rk4.stage", 4);
      fused_stage(&k3_, one, k4_);  // k4 = F(y + k3)
    }
    TFX_OBS_SPAN(swm, 0, "rk4.apply");
    fused_apply();
  }

  /// The reference pipeline: separate serial element-wise sweeps
  /// (stage_combine x3 per stage, rk4_increment, apply_increment) with
  /// only the RHS row-parallel. Kept as the fusion ablation baseline.
  void step_unfused() {
    const Tprog half = Tprog(0.5);
    const Tprog one = Tprog(1);

    {
      TFX_OBS_SPAN(swm, 0, "rk4.stage", 1);
      eval_stage(prog_, k1_);
    }
    {
      TFX_OBS_SPAN(swm, 0, "rk4.stage", 2);
      combine_stage(prog_, k1_, half);
      eval_stage(stage_, k2_);
    }
    {
      TFX_OBS_SPAN(swm, 0, "rk4.stage", 3);
      combine_stage(prog_, k2_, half);
      eval_stage(stage_, k3_);
    }
    {
      TFX_OBS_SPAN(swm, 0, "rk4.stage", 4);
      combine_stage(prog_, k3_, one);
      eval_stage(stage_, k4_);
    }
    TFX_OBS_SPAN(swm, 0, "rk4.apply");

    rk4_increment(inc_u_, k1_.du, k2_.du, k3_.du, k4_.du);
    rk4_increment(inc_v_, k1_.dv, k2_.dv, k3_.dv, k4_.dv);
    rk4_increment(inc_eta_, k1_.deta, k2_.deta, k3_.deta, k4_.deta);

    if (scheme_ == integration_scheme::compensated) {
      apply_increment_compensated(prog_.u, inc_u_, comp_.u);
      apply_increment_compensated(prog_.v, inc_v_, comp_.v);
      apply_increment_compensated(prog_.eta, inc_eta_, comp_.eta);
    } else {
      apply_increment(prog_.u, inc_u_);
      apply_increment(prog_.v, inc_v_);
      apply_increment(prog_.eta, inc_eta_);
    }
  }

  /// Region-task context: the trampolines receive it as const void*,
  /// with non-const access to the model through `self`.
  struct stage_ctx {
    model* self = nullptr;
    const tendencies<T>* k = nullptr;
    Tprog a{};
    const state<Tprog>* cast_src = nullptr;
  };

  static void run_combine(const void* c, int, std::size_t lo, std::size_t hi) {
    const auto& ctx = *static_cast<const stage_ctx*>(c);
    fused_stage_combine_range(ctx.self->stage_, ctx.self->prog_, *ctx.k,
                              ctx.a, lo, hi);
  }

  static void run_cast(const void* c, int, std::size_t lo, std::size_t hi) {
    const auto& ctx = *static_cast<const stage_ctx*>(c);
    const state<Tprog>& src = *ctx.cast_src;
    state<T>& dst = ctx.self->compute_state_;
    auto cast = [lo, hi](std::span<T> d, std::span<const Tprog> s) {
      if constexpr (fp::vec_traits<T>::kind == fp::vectorizability::native &&
                    fp::vec_traits<Tprog>::kind ==
                        fp::vectorizability::native) {
        // float <-> double down/up-cast through the dispatched vector
        // convert (per-lane rounding identical to the scalar cast).
        kernels::sweeps::convert<T, Tprog>(d, s, lo, hi);
        return;
      }
      for (std::size_t idx = lo; idx < hi; ++idx) {
        d[idx] = T(static_cast<double>(s[idx]));
      }
    };
    cast(dst.u.flat(), src.u.flat());
    cast(dst.v.flat(), src.v.flat());
    cast(dst.eta.flat(), src.eta.flat());
  }

  static void run_apply(const void* c, int, std::size_t lo, std::size_t hi) {
    static_cast<const stage_ctx*>(c)->self->apply_range(lo, hi);
  }

  /// One RK4 stage: stage_ = prog_ + a*k when k != nullptr (else the
  /// RHS evaluates at prog_ directly), the down-cast when mixed, then
  /// the RHS into `out` - all under one worker wake.
  void fused_stage(const tendencies<T>* k, Tprog a, tendencies<T>& out) {
    const std::size_t n = prog_.eta.size();
    const state<Tprog>& at = k != nullptr ? stage_ : prog_;
    ctx_.k = k;
    ctx_.a = a;
    ctx_.cast_src = &at;

    thread_pool::task tasks[2 + rhs_evaluator<T>::pass_count];
    std::size_t t = 0;
    if (k != nullptr) tasks[t++] = {n, &run_combine, &ctx_};
    if constexpr (!std::is_same_v<T, Tprog>) tasks[t++] = {n, &run_cast, &ctx_};
    t += rhs_.append_region_tasks(&tasks[t], rhs_input(at), out);

    if (rhs_.parallel_for_rows(params_.ny)) {
      ftz_worker_scope scope;
      rhs_.pool()->parallel_region({tasks, t}, &scope);
    } else {
      for (std::size_t i = 0; i < t; ++i) {
        tasks[i].fn(tasks[i].ctx, 0, 0, tasks[i].n);
      }
    }
  }

  /// The fused increment+apply: one element-wise sweep over all three
  /// fields (standard or Kahan-compensated), parallel when the RHS is.
  void fused_apply() {
    const std::size_t n = prog_.eta.size();
    if (rhs_.parallel_for_rows(params_.ny)) {
      const thread_pool::task t{n, &run_apply, &ctx_};
      ftz_worker_scope scope;
      rhs_.pool()->parallel_region({&t, 1}, &scope);
    } else {
      apply_range(0, n);
    }
  }

  void apply_range(std::size_t lo, std::size_t hi) {
    fused_rk4_apply_range(prog_, comp_, k1_, k2_, k3_, k4_, scheme_, lo, hi);
  }

  /// The state the RHS reads: the Tprog-precision state itself, or the
  /// preallocated down-cast copy when Tprog != T.
  const state<T>& rhs_input(const state<Tprog>& at) const {
    if constexpr (std::is_same_v<T, Tprog>) {
      return at;
    } else {
      return compute_state_;
    }
  }

  /// Evaluate the RHS at a (possibly wider-precision) state, casting
  /// down to the computation type when Tprog != T (unfused path).
  void eval_stage(const state<Tprog>& at, tendencies<T>& k) {
    if constexpr (std::is_same_v<T, Tprog>) {
      rhs_(at, k);
    } else {
      convert_state_into(compute_state_, at);
      rhs_(compute_state_, k);
    }
  }

  /// stage_ = y + a * k, in Tprog (unfused path: three serial sweeps).
  void combine_stage(const state<Tprog>& y, const tendencies<T>& k, Tprog a) {
    stage_combine(stage_.u, y.u, k.du, a);
    stage_combine(stage_.v, y.v, k.dv, a);
    stage_combine(stage_.eta, y.eta, k.deta, a);
  }

  /// Bytes the update sweeps of ONE step just moved, counted from the
  /// pipeline this model actually ran (the measurement half of the
  /// swm.update_bytes counter; perfmodel.cpp derives the same sweep
  /// counts independently from the source, so predicted == measured is
  /// a live cross-check of the docs/MODEL.md accounting):
  ///   combines:  3 stages x 3 fields x (y read + stage write in Tprog,
  ///              k read in T)
  ///   increment: 3 fields x 4 k reads in T; the unfused pipeline also
  ///              writes (and re-reads in apply) an increment array
  ///   apply:     fused 2 Tprog/field (4 compensated), unfused 3 (5)
  ///   mixed:     4 down-casts x 3 fields x (Tprog read + T write)
  [[nodiscard]] std::uint64_t measured_update_bytes() const {
    const double e = static_cast<double>(sizeof(T));
    const double p = static_cast<double>(sizeof(Tprog));
    const bool comp = scheme_ == integration_scheme::compensated;
    const double sweeps_T = 3.0 * 3.0 * 1.0 + 3.0 * 4.0;
    double sweeps_Tprog = 3.0 * 3.0 * 2.0;
    if (pipeline_ == update_pipeline::fused) {
      sweeps_Tprog += comp ? 3.0 * 4.0 : 3.0 * 2.0;
    } else {
      sweeps_Tprog += 3.0 * 1.0 + (comp ? 3.0 * 5.0 : 3.0 * 3.0);
    }
    double per_cell = sweeps_T * e + sweeps_Tprog * p;
    if constexpr (!std::is_same_v<T, Tprog>) {
      per_cell += 4.0 * 3.0 * (e + p);
    }
    const double cells = static_cast<double>(params_.nx) *
                         static_cast<double>(params_.ny);
    return static_cast<std::uint64_t>(per_cell * cells);
  }

  /// The perfmodel's precision_config for this instantiation.
  [[nodiscard]] precision_config obs_config() const {
    precision_config cfg;
    cfg.elem_bytes = sizeof(T);
    cfg.prog_elem_bytes = sizeof(Tprog);
    cfg.compensated = scheme_ == integration_scheme::compensated;
    cfg.fused = pipeline_ == update_pipeline::fused;
    return cfg;
  }

  /// Close the swm.step span: emit the measured-vs-predicted update
  /// traffic counter, feed the step-latency histogram and counters,
  /// then end the span. Only called while tracing is on.
  void emit_step_obs(double t0) {
    static constexpr double step_seconds_uppers[] = {
        1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1};
    const double t1 = obs::host_now();
    const std::uint64_t measured = measured_update_bytes();
    const std::uint64_t predicted =
        predict_step(arch::fugaku_node, params_.nx, params_.ny, obs_config())
            .update_bytes;
    obs::counter_at(obs::domain::swm, 0, "swm.update_bytes", t1, measured,
                    predicted);
    obs::metric_add("swm.steps");
    obs::metric_add("swm.update_bytes", measured);
    obs::metric_observe("swm.step_seconds", step_seconds_uppers, t1 - t0);
    obs::end_at(obs::domain::swm, 0, "swm.step", t1);
  }

  swm_params params_;
  integration_scheme scheme_;
  update_pipeline pipeline_ = update_pipeline::fused;
  rhs_evaluator<T> rhs_;
  state<Tprog> prog_;
  state<Tprog> comp_;   ///< Kahan compensation carried across steps
  state<Tprog> stage_;  ///< RK stage state
  state<T> compute_state_;  ///< down-cast stage (mixed precision only)
  field2d<Tprog> inc_u_, inc_v_, inc_eta_;  ///< unfused pipeline only
  tendencies<T> k1_, k2_, k3_, k4_;
  stage_ctx ctx_;
  int steps_ = 0;
  int health_every_ = 0;  ///< 0: sentinel off (default)
};

}  // namespace tfx::swm
