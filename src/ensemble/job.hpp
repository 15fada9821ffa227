#pragma once

/// \file job.hpp
/// Client-facing vocabulary of the ensemble scenario service
/// (docs/ENSEMBLE.md): what a member run looks like to a tenant —
/// precision personality, grid, seeds — and the typed results the
/// async submit/poll API hands back. The engine itself lives in
/// engine.hpp; nothing here depends on it, so result types can cross
/// module boundaries freely.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fp/fpenv.hpp"
#include "fp/scaling.hpp"
#include "swm/autopilot.hpp"
#include "swm/field.hpp"
#include "swm/perfmodel.hpp"

namespace tfx::ensemble {

/// The precision personalities a member can run at — the paper's
/// Fig. 5 configurations plus the compensated-native pairs the batched
/// Kahan kernels serve. Each maps to one model<T, Tprog>
/// instantiation + integration scheme (engine.cpp's switch).
enum class personality : std::uint8_t {
  float64,        ///< model<double>, standard RK4 (the reference)
  float64_comp,   ///< model<double>, Kahan-compensated
  float32,        ///< model<float>, standard
  float16,        ///< model<float16>, compensated (scaled, FTZ per cfg)
  float16_mixed,  ///< model<float16, float>: F16 RHS, F32 integration
  bfloat16,       ///< model<bfloat16>, compensated
};

inline constexpr personality all_personalities[] = {
    personality::float64,       personality::float64_comp,
    personality::float32,       personality::float16,
    personality::float16_mixed, personality::bfloat16,
};

constexpr const char* personality_name(personality p) {
  switch (p) {
    case personality::float64: return "Float64";
    case personality::float64_comp: return "Float64/comp";
    case personality::float32: return "Float32";
    case personality::float16: return "Float16";
    case personality::float16_mixed: return "Float16/32";
    case personality::bfloat16: return "BFloat16";
  }
  return "?";
}

/// The perfmodel configuration of a personality (what admission
/// control prices with swm::predict_time).
inline swm::precision_config precision_of(personality p) {
  switch (p) {
    case personality::float64: return swm::config_float64();
    case personality::float64_comp: {
      swm::precision_config c = swm::config_float64();
      c.compensated = true;
      c.name = "Float64/comp";
      return c;
    }
    case personality::float32: return swm::config_float32();
    case personality::float16: return swm::config_float16();
    case personality::float16_mixed: return swm::config_float16_32();
    case personality::bfloat16: {
      swm::precision_config c;
      c.elem_bytes = 2;
      c.prog_elem_bytes = 2;
      c.compensated = true;
      c.name = "BFloat16";
      return c;
    }
  }
  return swm::config_float64();
}

/// The precision-promotion ladder the autopilot escalates along:
/// f16 -> bf16 -> f32 -> f64 (the mixed personality promotes into its
/// own integration type, f32). The two Float64 personalities are the
/// top rung.
constexpr bool promotable(personality p) {
  switch (p) {
    case personality::float16:
    case personality::float16_mixed:
    case personality::bfloat16:
    case personality::float32:
      return true;
    case personality::float64:
    case personality::float64_comp:
      return false;
  }
  return false;
}

constexpr personality promoted(personality p) {
  switch (p) {
    case personality::float16: return personality::bfloat16;
    case personality::float16_mixed: return personality::float32;
    case personality::bfloat16: return personality::float32;
    case personality::float32: return personality::float64;
    case personality::float64:
    case personality::float64_comp:
      return p;
  }
  return p;
}

/// Admitted exponent range of a personality's *integration* format —
/// what the autopilot monitors the member's magnitudes against.
constexpr fp::format_range format_range_of(personality p) {
  switch (p) {
    case personality::float16: return fp::float16_range;
    case personality::float16_mixed: return fp::float16_range;
    case personality::bfloat16: return fp::bfloat16_range;
    case personality::float32: return fp::float32_range;
    case personality::float64:
    case personality::float64_comp:
      return fp::float64_range;
  }
  return fp::float64_range;
}

using job_id = std::uint64_t;
inline constexpr job_id invalid_job = 0;

/// Tenants are registered up front (engine::register_tenant) so their
/// obs counters exist before any member steps — the hot path then
/// only touches pre-resolved handles.
using tenant_id = std::uint16_t;
inline constexpr tenant_id default_tenant = 0;

/// The ensemble fault plane (the chaos-harness idea of docs/FAULTS.md
/// carried to members): deterministic, member-local faults tests use
/// to exercise the repair ladder. Each fault fires exactly once, just
/// before the member takes the step its counter names — and does NOT
/// re-fire when a repair rolls the member back past it, so an injected
/// upset costs one repair, not an infinite loop.
enum class fault_kind : std::uint8_t {
  scale_state,  ///< multiply the prognostic state by 2^log2_factor
                ///< (exact: models a range regime shift)
  poison_nan,   ///< write a quiet NaN into eta at flat `index`
};

struct member_fault {
  fault_kind kind = fault_kind::scale_state;
  int at_step = 0;      ///< fires before the member's step `at_step`
                        ///< (member-local, 0-based)
  int log2_factor = 0;  ///< scale_state only
  std::ptrdiff_t index = 0;  ///< poison_nan only (wrapped into range)
};

/// One member run. The trajectory this produces through the engine is
/// bit-identical to constructing the same model standalone, seeding /
/// restoring / perturbing it in this order, and calling run(steps) —
/// the engine's correctness oracle (tests/ensemble_engine_test).
struct member_config {
  personality prec = personality::float64;
  int nx = 32;
  int ny = 16;
  int steps = 1;  ///< RK4 steps to integrate past the initial state

  std::uint64_t seed = 42;          ///< seed_random_eddies stream
  double velocity_amplitude = 0.5;  ///< eddy amplitude
  int log2_scale = 0;               ///< Float16 scaling exponent (s = 2^k)

  /// Multiplicative IC perturbation after seeding/restoring: one
  /// xoshiro256(perturb_seed) stream across u, v, eta in that order,
  /// each element scaled by 1 + amplitude * U(-1, 1) — exactly the
  /// bench/ensemble_error recipe. perturb_seed == 0 disables it.
  std::uint64_t perturb_seed = 0;
  double perturb_amplitude = 0.0;

  /// Soft-float FTZ mode the member's arithmetic (including its
  /// submit-time initialization) runs under. Part of the batch key,
  /// so a whole batch shares one ftz_guard.
  fp::ftz_mode ftz = fp::ftz_mode::preserve;

  int health_every = 0;  ///< model health-sentinel interval (0: off)

  /// Record an unscaled double snapshot of the state every this many
  /// member steps (0: none) — the exact values model::unscaled() would
  /// produce at the same step.
  int record_every = 0;

  /// Optional restart: adopt this state (the exact double image of
  /// the *scaled* prognostic fields) instead of seeding eddies, with
  /// the step counter at `initial_steps`. Copied during submit; the
  /// pointer need not outlive the call.
  const swm::state<double>* initial = nullptr;
  int initial_steps = 0;

  /// Precision autopilot (swm/autopilot.hpp). check_every == 0 (the
  /// default) leaves the member exactly as before — no monitor, no
  /// repair, numerical_error fail-stops. With it on, range drift and
  /// sentinel trips walk the rescale -> promote -> permfail ladder
  /// (docs/AUTOPILOT.md).
  swm::autopilot_options autopilot;

  /// Injected faults, in firing order by at_step (tests only).
  std::vector<member_fault> faults;
};

enum class submit_error : std::uint8_t {
  none,              ///< accepted
  queue_full,        ///< member capacity (engine_options::max_members)
  backlog_exceeded,  ///< modeled backlog past max_backlog_seconds
  invalid_config,    ///< bad geometry/steps/tenant/initial-state shape,
                     ///< non-finite amplitude, |log2_scale| > 1022
  shutdown,          ///< engine is stopping
};

constexpr const char* submit_error_name(submit_error e) {
  switch (e) {
    case submit_error::none: return "none";
    case submit_error::queue_full: return "queue_full";
    case submit_error::backlog_exceeded: return "backlog_exceeded";
    case submit_error::invalid_config: return "invalid_config";
    case submit_error::shutdown: return "shutdown";
  }
  return "?";
}

/// What submit() returns: a handle on acceptance, a typed reason
/// otherwise (never an exception — admission rejects are a normal
/// operating regime under load).
struct submit_ticket {
  job_id id = invalid_job;
  submit_error error = submit_error::none;

  [[nodiscard]] bool ok() const { return error == submit_error::none; }
  explicit operator bool() const { return ok(); }
};

enum class job_state : std::uint8_t {
  queued,     ///< admitted, no step taken yet
  running,    ///< being stepped
  done,       ///< completed all cfg.steps
  cancelled,  ///< cancel took effect at a step boundary
  failed,     ///< sentinel tripped with no repair left (see fail_reason)
};

constexpr const char* job_state_name(job_state s) {
  switch (s) {
    case job_state::queued: return "queued";
    case job_state::running: return "running";
    case job_state::done: return "done";
    case job_state::cancelled: return "cancelled";
    case job_state::failed: return "failed";
  }
  return "?";
}

enum class cancel_result : std::uint8_t {
  requested,  ///< will take effect at the member's next step boundary
  unknown_job,
  already_done,
  already_cancelled,
  already_failed,
};

/// Why a job ended in job_state::failed (none for any other state).
enum class fail_reason : std::uint8_t {
  none,
  numerical,           ///< sentinel tripped, no autopilot to repair it
  ladder_exhausted,    ///< escalation wanted a rung above the ladder
  retry_exhausted,     ///< tenant's per-member retry budget spent
  range_unrecoverable, ///< drift with no rescale left and promotion off
};

constexpr const char* fail_reason_name(fail_reason r) {
  switch (r) {
    case fail_reason::none: return "none";
    case fail_reason::numerical: return "numerical";
    case fail_reason::ladder_exhausted: return "ladder_exhausted";
    case fail_reason::retry_exhausted: return "retry_exhausted";
    case fail_reason::range_unrecoverable: return "range_unrecoverable";
  }
  return "?";
}

/// One repair action the autopilot took on a member, in order — the
/// deterministic repair transcript tests compare across pool sizes.
enum class repair_kind : std::uint8_t { rescale, promote, retry, permfail };

constexpr const char* repair_kind_name(repair_kind k) {
  switch (k) {
    case repair_kind::rescale: return "rescale";
    case repair_kind::promote: return "promote";
    case repair_kind::retry: return "retry";
    case repair_kind::permfail: return "permfail";
  }
  return "?";
}

struct repair_event {
  repair_kind kind = repair_kind::retry;
  swm::autopilot_cause cause = swm::autopilot_cause::none;
  int step = 0;          ///< member-local step count when decided
  personality prec = personality::float64;  ///< personality afterwards
  int log2_scale = 0;    ///< member scale afterwards
  int rollback_to = -1;  ///< member-local step restored to; -1 in place
  std::ptrdiff_t bad_index = -1;  ///< numerical_error's element, or -1
};

/// Poll snapshot of one job.
struct job_status {
  job_state state = job_state::queued;
  int steps_done = 0;    ///< member-local steps completed so far
  int failed_step = -1;  ///< last model step a sentinel named (-1: none)
  fail_reason reason = fail_reason::none;  ///< failed only
  int repairs = 0;       ///< autopilot actions taken so far
};

/// Final output of a member run, written before the job turns
/// terminal. Float conversions to double are exact for every
/// personality, so these are bit-exact images of the member's final
/// prognostic and Kahan-compensation fields (the oracle comparison in
/// the tests is EXPECT-on-bits).
struct job_result {
  swm::state<double> prognostic;    ///< scaled, in the Tprog domain
  swm::state<double> compensation;  ///< Kahan residuals (zero if unused)
  /// Unscaled double states every cfg.record_every steps, oldest
  /// first; exactly model::unscaled() at those steps.
  std::vector<swm::state<double>> snapshots;
  int steps_done = 0;
  double modeled_seconds = 0;  ///< the admission price this job carried
                               ///< (re-priced on promotion)
  fail_reason reason = fail_reason::none;  ///< failed only
  /// Every autopilot action, in the order taken. Identical across pool
  /// sizes and submission orders (the determinism contract).
  std::vector<repair_event> repairs;
  personality prec = personality::float64;  ///< final personality
  int log2_scale = 0;                       ///< final member scale
};

}  // namespace tfx::ensemble
