/// \file engine.cpp
/// Batch-grouped member stepping behind the async submit/poll API —
/// see engine.hpp for the scheduling model and docs/ENSEMBLE.md for
/// the contracts. Layout of this file:
///
///   group_impl<T, Tprog>  one batch group: members of one
///                         (personality, nx, ny, ftz) key, stepped
///                         tile-by-tile with the batched apply
///   engine::impl          the service: job table, admission, rounds
///                         over the thread pool, tenant obs plane
///
/// Concurrency shape. All client-facing state (job table, groups map,
/// admission gauges) lives under one mutex. submit() takes it twice:
/// once to decide admission and reserve a slot, once to publish the
/// member, which it builds in between on the calling thread without
/// the mutex, so rounds run while a batch is still being submitted.
/// Stepping happens in *rounds*: between regions the driving thread —
/// alone, under the mutex — compacts finished members, splices
/// admissions and builds a claim list of (group, member-range) runs
/// of at most a tile; during the region, workers grab claims off an
/// atomic cursor and step disjoint member ranges with no shared
/// mutable state (per-worker scratch for the batch items and the
/// tenant tallies). Determinism needs no more than that: members never
/// read each other, so claim interleaving cannot reach the arithmetic.
///
/// Member repair rides the same shape. In-group repairs (retry,
/// rescale) happen inside the worker's claim: the worker owns the
/// member, so rebuilding its model in place races nothing. Promotions
/// cross group types, so the worker only *queues* a promotion request
/// on its per-worker list; the driving thread drains the lists —
/// sorted by job id, so arrival order into the new group is identical
/// for every pool size — under the mutex between rounds. Repair
/// *decisions* read only member-local state (the member's autopilot
/// window and counters, its fault cursor, its job's retry budget), so
/// the repair transcript is deterministic too.

#include "ensemble/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "kernels/batched.hpp"
#include "kernels/sweeps.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/autopilot.hpp"
#include "swm/health.hpp"
#include "swm/model.hpp"
#include "swm/params.hpp"
#include "swm/perfmodel.hpp"

namespace tfx::ensemble {

namespace {

/// One admitted member run. Owned by the job table for the engine's
/// lifetime (poll/result pointers stay valid); the stepping side holds
/// a raw pointer. Atomics are the poll-plane: workers publish, client
/// threads read without taking the round into account.
struct job_record {
  job_id id = invalid_job;
  tenant_id tenant = default_tenant;
  member_config cfg;
  std::atomic<job_state> state{job_state::queued};
  std::atomic<int> steps_done{0};
  std::atomic<int> failed_step{-1};
  std::atomic<bool> cancel_requested{false};
  std::atomic<fail_reason> reason{fail_reason::none};
  std::atomic<int> repairs{0};  ///< autopilot actions taken (poll plane)
  /// Reactive repairs this member may still consume, resolved from
  /// its tenant at admission. Stepping-side fields below are only
  /// touched by the worker that owns the member in a round (the
  /// round's dispatch/join fences order cross-round access).
  int retry_budget = 0;
  int reactive_repairs = 0;
  /// Unscaled double image of a restored member's initial state, kept
  /// (autopilot members only) so a rollback can reach step 0 even
  /// after the member's scale has moved away from the admitted one.
  std::unique_ptr<swm::state<double>> initial_unscaled;
  job_result result;
};

constexpr bool is_terminal(job_state s) {
  return s == job_state::done || s == job_state::cancelled ||
         s == job_state::failed;
}

/// What one tile claim reports back to the round accounting.
struct advance_stats {
  std::size_t member_steps = 0;
  std::size_t finished = 0;
  double finished_seconds = 0;  ///< modeled backlog released
  std::size_t rescales = 0;     ///< autopilot actions this claim took
  std::size_t retries = 0;
  std::size_t promotes = 0;     ///< promotion requests queued
  std::size_t permfails = 0;
};

/// A member leaving its batch group for the next precision rung. The
/// worker captures everything the target group needs to resume the
/// run; the driving thread re-admits between rounds, sorted by job id
/// so arrival order into the new group is pool-size independent.
struct promotion {
  job_record* job = nullptr;
  swm::state<double> unscaled;  ///< resume state, unscaled double
  int at_taken = 0;      ///< member-local step the state belongs to
  int step = 0;          ///< member-local step the decision was made at
  std::size_t snap_next = 0;   ///< snapshot cursor to resume with
  std::size_t fault_next = 0;  ///< fault cursor carries across rungs
  std::unique_ptr<swm::autopilot> pilot;
  swm::autopilot_cause cause = swm::autopilot_cause::none;
  int rollback_to = -1;
  std::ptrdiff_t bad_index = -1;
};

/// A member built by group_base::build and not yet handed to its
/// group's pending list by group_base::publish.
struct built_member {
  built_member() = default;
  built_member(const built_member&) = delete;
  built_member& operator=(const built_member&) = delete;
  virtual ~built_member() = default;
};

class group_base {
 public:
  virtual ~group_base() = default;

  /// Build + initialize a member for `job`: model construction, restore
  /// from `initial` (or the seed recipe when it is null), perturbation
  /// and the autopilot's initial image, all under the group's ftz mode.
  /// Reads only settings fixed at the group's construction, so submit()
  /// runs it without the engine mutex.
  [[nodiscard]] virtual std::unique_ptr<built_member> build(
      job_record* job, const swm::state<double>* initial) const = 0;

  /// Queue a member from build() for the next round. Caller holds the
  /// engine mutex.
  virtual void publish(std::unique_ptr<built_member> m) = 0;

  /// Between-rounds maintenance under the engine mutex: compact
  /// finished members out, splice admissions in, size the per-worker
  /// scratch. Returns the steppable member count.
  virtual std::size_t prepare_round() = 0;

  /// Re-admit a member promoted out of another group (job->cfg
  /// already updated to this group's personality/scale). Caller holds
  /// the engine mutex.
  virtual void admit_promoted(promotion&& pr) = 0;

  /// Advance members [begin, end) by up to `stride` steps. Ranges of
  /// concurrent calls never overlap, so the only shared state is the
  /// per-worker scratch selected by `worker` and each member's own
  /// job_record atomics; promotion requests go to `promotions`, the
  /// calling worker's own list. Called without the engine mutex.
  virtual advance_stats advance(int worker, int stride, std::size_t begin,
                                std::size_t end,
                                std::span<std::uint64_t> tenant_steps,
                                std::span<std::uint64_t> tenant_jobs,
                                std::vector<promotion>& promotions) = 0;

  [[nodiscard]] virtual std::size_t tile() const = 0;
  [[nodiscard]] virtual std::size_t active() const = 0;
};

template <typename T, typename Tprog>
class group_impl final : public group_base {
 public:
  group_impl(swm::integration_scheme scheme, fp::ftz_mode ftz,
             std::size_t tile, int workers)
      : scheme_(scheme),
        ftz_(ftz),
        tile_(tile),
        items_(static_cast<std::size_t>(workers)) {}

  std::unique_ptr<built_member> build(
      job_record* job, const swm::state<double>* initial) const override {
    const member_config& cfg = job->cfg;
    // Initialization runs under the member's ftz mode, exactly like a
    // standalone run constructed inside an ftz_guard (the oracle).
    fp::ftz_guard guard(ftz_);
    auto m = std::make_unique<member>(job, params_for(cfg, cfg.log2_scale),
                                      scheme_);
    if (cfg.health_every > 0) m->model->set_health_interval(cfg.health_every);
    if (initial != nullptr) {
      m->model->restore(swm::convert_state<Tprog>(*initial),
                        cfg.initial_steps);
    } else {
      m->model->seed_random_eddies(cfg.seed, cfg.velocity_amplitude);
    }
    if (cfg.perturb_seed != 0) perturb(*m);
    if (cfg.autopilot.check_every > 0) {
      m->pilot = std::make_unique<swm::autopilot>(
          cfg.autopilot, format_range_of(cfg.prec),
          params_for(cfg, cfg.log2_scale));
      if (initial != nullptr) {
        // Restored members cannot re-run a seed recipe on rollback to
        // start; keep their post-init image (unscaled, so it survives
        // scale changes) as the step-`initial_steps` restart point.
        job->initial_unscaled =
            std::make_unique<swm::state<double>>(m->model->unscaled());
      }
    }
    return m;
  }

  void publish(std::unique_ptr<built_member> m) override {
    pending_.emplace_back(static_cast<member*>(m.release()));
  }

  void admit_promoted(promotion&& pr) override {
    job_record* job = pr.job;
    const member_config& cfg = job->cfg;  // already at this group's rung
    fp::ftz_guard guard(ftz_);
    auto m = std::make_unique<member>(job, params_for(cfg, cfg.log2_scale),
                                      scheme_);
    if (cfg.health_every > 0) m->model->set_health_interval(cfg.health_every);
    restore_unscaled(*m, pr.unscaled, pr.at_taken);
    m->taken = pr.at_taken;
    m->remaining = cfg.steps - pr.at_taken;
    m->snap_next = pr.snap_next;
    m->fault_next = pr.fault_next;
    m->pilot = std::move(pr.pilot);
    job->steps_done.store(pr.at_taken, std::memory_order_relaxed);
    pending_.push_back(std::move(m));
  }

  std::size_t prepare_round() override {
    compact();
    for (auto& m : pending_) members_.push_back(std::move(m));
    pending_.clear();
    const std::size_t batch = 3 * std::min(tile_, members_.size());
    for (auto& scratch : items_) {
      if (scratch.capacity() < batch) scratch.reserve(batch);
    }
    return members_.size();
  }

  advance_stats advance(int worker, int stride, std::size_t begin,
                        std::size_t end,
                        std::span<std::uint64_t> tenant_steps,
                        std::span<std::uint64_t> tenant_jobs,
                        std::vector<promotion>& promotions) override {
    advance_stats st{};
    fp::ftz_guard guard(ftz_);
    end = std::min(end, members_.size());
    auto& scratch = items_[static_cast<std::size_t>(worker)];
    for (int s = 0; s < stride; ++s) {
      if (!step_range_once(begin, end, scratch, st, tenant_steps,
                           tenant_jobs, promotions)) {
        break;
      }
    }
    return st;
  }

  [[nodiscard]] std::size_t tile() const override { return tile_; }

  [[nodiscard]] std::size_t active() const override {
    return members_.size() + pending_.size();
  }

 private:
  struct member final : built_member {
    job_record* job;
    /// optional<> so repair can rebuild the model in place: model pins
    /// a self-pointer in its region context, so it cannot be assigned,
    /// only emplaced.
    std::optional<swm::model<T, Tprog>> model;
    int remaining;
    int taken = 0;  ///< member-local steps completed
    std::size_t snap_next = 0;
    bool live = true;
    std::unique_ptr<swm::autopilot> pilot;  ///< null: autopilot off
    std::size_t fault_next = 0;  ///< next injected fault to fire

    member(job_record* j, const swm::swm_params& p,
           swm::integration_scheme s)
        : job(j), remaining(j->cfg.steps) {
      model.emplace(p, s);
    }
  };

  using batch_items = std::vector<kernels::sweeps::rk4_batch_item<Tprog>>;

  /// One step of every live member in [lo, hi): stage-major stages,
  /// one batched apply dispatch (native types), then the step close.
  /// Returns false once the range has no live members left.
  bool step_range_once(std::size_t lo, std::size_t hi, batch_items& scratch,
                       advance_stats& st,
                       std::span<std::uint64_t> tenant_steps,
                       std::span<std::uint64_t> tenant_jobs,
                       std::vector<promotion>& promotions) {
    bool any = false;
    for (std::size_t i = lo; i < hi; ++i) {
      member& m = *members_[i];
      if (!m.live) continue;
      if (m.job->cancel_requested.load(std::memory_order_relaxed)) {
        finalize(m, job_state::cancelled, st, tenant_jobs);
        continue;
      }
      m.job->state.store(job_state::running, std::memory_order_relaxed);
      if (!m.job->cfg.faults.empty()) inject_faults(m);
      m.model->step_stages();
      any = true;
    }
    if (!any) return false;

    if constexpr (swm::model<T, Tprog>::batchable_apply) {
      scratch.clear();
      for (std::size_t i = lo; i < hi; ++i) {
        if (members_[i]->live) members_[i]->model->append_rk4_items(scratch);
      }
      if (scheme_ == swm::integration_scheme::compensated) {
        kernels::sweeps::rk4_update_kahan_batched<Tprog>(scratch);
      } else {
        kernels::sweeps::rk4_update_batched<Tprog>(scratch);
      }
    } else {
      for (std::size_t i = lo; i < hi; ++i) {
        if (members_[i]->live) members_[i]->model->step_apply();
      }
    }

    for (std::size_t i = lo; i < hi; ++i) {
      member& m = *members_[i];
      if (!m.live) continue;
      bool failed = false;
      std::ptrdiff_t bad_index = -1;
      try {
        m.model->finish_step();
      } catch (const swm::numerical_error& err) {
        m.job->failed_step.store(err.step(), std::memory_order_relaxed);
        bad_index = err.index();
        failed = true;
      }
      ++m.taken;
      --m.remaining;
      m.job->steps_done.store(m.taken, std::memory_order_relaxed);
      ++st.member_steps;
      tenant_steps[m.job->tenant] += 1;
      if (failed) {
        repair_after_error(m, bad_index, st, tenant_jobs, promotions);
        continue;
      }
      record_snapshot_if_due(m);
      if (m.pilot != nullptr && m.remaining > 0 &&
          m.taken % m.job->cfg.autopilot.check_every == 0) {
        autopilot_check(m, st, tenant_jobs, promotions);
        if (!m.live) continue;
      }
      if (m.remaining == 0) finalize(m, job_state::done, st, tenant_jobs);
    }
    return true;
  }

  void record_snapshot_if_due(member& m) {
    const member_config& cfg = m.job->cfg;
    if (cfg.record_every <= 0 || m.taken % cfg.record_every != 0) return;
    if (m.snap_next >= m.job->result.snapshots.size()) return;
    swm::state<double>& out = m.job->result.snapshots[m.snap_next++];
    swm::convert_state_into(out, m.model->prognostic());
    // Same arithmetic as model::unscaled(): exact double conversion,
    // then a power-of-two descale (cfg.log2_scale follows rescales).
    const double inv_s = 1.0 / std::ldexp(1.0, cfg.log2_scale);
    for (auto& v : out.u.flat()) v *= inv_s;
    for (auto& v : out.v.flat()) v *= inv_s;
    for (auto& v : out.eta.flat()) v *= inv_s;
  }

  /// Publish the member's result and terminal state. The release
  /// store on `state` is what poll()/result() acquire against.
  void finalize(member& m, job_state final_state, advance_stats& st,
                std::span<std::uint64_t> tenant_jobs) {
    job_record& job = *m.job;
    swm::convert_state_into(job.result.prognostic, m.model->prognostic());
    swm::convert_state_into(job.result.compensation, m.model->compensation());
    job.result.steps_done = m.taken;
    job.result.prec = job.cfg.prec;
    job.result.log2_scale = job.cfg.log2_scale;
    if (job.result.snapshots.size() > m.snap_next) {
      job.result.snapshots.resize(m.snap_next);
    }
    m.live = false;
    ++st.finished;
    st.finished_seconds += job.result.modeled_seconds;
    tenant_jobs[job.tenant] += 1;
    job.state.store(final_state, std::memory_order_release);
    TFX_OBS_INSTANT(ens, job.tenant, "ens.job.done", job.id,
                    static_cast<std::uint64_t>(m.taken));
  }

  /// Swap-free stable compaction (between rounds, under the engine
  /// mutex): finished members release their model storage —
  /// deallocation only, the steady state stays allocation-free.
  void compact() {
    std::size_t w = 0;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (!members_[i]->live) continue;
      if (w != i) members_[w] = std::move(members_[i]);
      ++w;
    }
    members_.resize(w);
  }

  // -- member repair (docs/AUTOPILOT.md) ------------------------------

  static swm::swm_params params_for(const member_config& cfg,
                                    int log2_scale) {
    swm::swm_params p;
    p.nx = cfg.nx;
    p.ny = cfg.ny;
    p.log2_scale = log2_scale;
    return p;
  }

  /// The bench/ensemble_error IC perturbation: ONE stream across
  /// u, v, eta — identical re-run on rollback-to-start, so a repaired
  /// member restarts from the exact admitted state.
  static void perturb(member& m) {
    const member_config& cfg = m.job->cfg;
    xoshiro256 rng(cfg.perturb_seed);
    auto& st = m.model->prognostic();
    for (auto* f : {&st.u, &st.v, &st.eta}) {
      for (auto& v : f->flat()) {
        v = Tprog(static_cast<double>(v) *
                  (1.0 + cfg.perturb_amplitude * rng.uniform(-1.0, 1.0)));
      }
    }
  }

  /// Restore the member from an unscaled double image recorded at
  /// member-local step `at_taken`, scaling by the model's *current*
  /// 2^k (exact for in-range values).
  void restore_unscaled(member& m, const swm::state<double>& src,
                        int at_taken) {
    const member_config& cfg = m.job->cfg;
    const double s = std::ldexp(1.0, m.model->params().log2_scale);
    swm::state<Tprog> scaled(cfg.nx, cfg.ny);
    const auto conv = [s](std::span<Tprog> dst, std::span<const double> in) {
      for (std::size_t k = 0; k < in.size(); ++k) {
        dst[k] = Tprog(in[k] * s);
      }
    };
    conv(scaled.u.flat(), src.u.flat());
    conv(scaled.v.flat(), src.v.flat());
    conv(scaled.eta.flat(), src.eta.flat());
    m.model->restore(scaled, cfg.initial_steps + at_taken);
  }

  /// Fire every due injected fault, exactly once each (the cursor
  /// never rewinds, so a rollback past a fault does not re-arm it).
  void inject_faults(member& m) {
    const member_config& cfg = m.job->cfg;
    while (m.fault_next < cfg.faults.size() &&
           cfg.faults[m.fault_next].at_step <= m.taken) {
      const member_fault& f = cfg.faults[m.fault_next++];
      auto& st = m.model->prognostic();
      if (f.kind == fault_kind::scale_state) {
        const double factor = std::ldexp(1.0, f.log2_factor);
        for (auto* fld : {&st.u, &st.v, &st.eta}) {
          for (auto& v : fld->flat()) {
            v = Tprog(static_cast<double>(v) * factor);
          }
        }
      } else {
        auto eta = st.eta.flat();
        const auto n = static_cast<std::ptrdiff_t>(eta.size());
        const std::ptrdiff_t at = ((f.index % n) + n) % n;
        eta[static_cast<std::size_t>(at)] =
            Tprog(std::numeric_limits<double>::quiet_NaN());
      }
    }
  }

  static bool finite_state(const swm::state<double>& s) {
    return swm::all_finite(std::span<const double>(s.u.flat())) &&
           swm::all_finite(std::span<const double>(s.v.flat())) &&
           swm::all_finite(std::span<const double>(s.eta.flat()));
  }

  /// Append the repair transcript entry + the poll counter + the obs
  /// instant for an action just taken. `decided_at` is the member
  /// step the decision was made at (pre-rollback).
  void note_repair(member& m, repair_kind kind, swm::autopilot_cause cause,
                   int decided_at, int rollback_to,
                   std::ptrdiff_t bad_index) {
    job_record& job = *m.job;
    job.result.repairs.push_back({kind, cause, decided_at, job.cfg.prec,
                                  job.cfg.log2_scale, rollback_to,
                                  bad_index});
    job.repairs.fetch_add(1, std::memory_order_relaxed);
    const auto aux = static_cast<std::uint64_t>(decided_at);
    switch (kind) {
      case repair_kind::rescale:
        TFX_OBS_INSTANT(ens, job.tenant, "ens.autopilot.rescale", job.id,
                        aux);
        break;
      case repair_kind::retry:
        TFX_OBS_INSTANT(ens, job.tenant, "ens.autopilot.retry", job.id, aux);
        break;
      case repair_kind::promote:
        TFX_OBS_INSTANT(ens, job.tenant, "ens.autopilot.promote", job.id,
                        aux);
        break;
      case repair_kind::permfail:
        TFX_OBS_INSTANT(ens, job.tenant, "ens.autopilot.permfail", job.id,
                        aux);
        break;
    }
  }

  /// The typed dead end of the ladder.
  void permfail(member& m, swm::autopilot_cause cause, fail_reason why,
                std::ptrdiff_t bad_index, advance_stats& st,
                std::span<std::uint64_t> tenant_jobs) {
    job_record& job = *m.job;
    job.result.reason = why;
    job.reason.store(why, std::memory_order_relaxed);
    note_repair(m, repair_kind::permfail, cause, m.taken, -1, bad_index);
    ++st.permfails;
    finalize(m, job_state::failed, st, tenant_jobs);
  }

  /// Exact in-place restate at a new scale: prognostic and Kahan
  /// compensation multiply by the power-of-two scale ratio (no
  /// mantissa bits move for in-range values), the model rebuilds its
  /// coefficients at the new scale, and the run resumes mid-flight.
  void restate_in_place(member& m, int new_log2_scale) {
    const member_config& cfg = m.job->cfg;
    const int steps = m.model->steps_taken();
    const double factor =
        std::ldexp(1.0, new_log2_scale - m.model->params().log2_scale);
    swm::state<Tprog> prog = m.model->prognostic();
    swm::state<Tprog> comp = m.model->compensation();
    for (auto* s : {&prog, &comp}) {
      for (auto* f : {&s->u, &s->v, &s->eta}) {
        for (auto& x : f->flat()) {
          x = Tprog(static_cast<double>(x) * factor);
        }
      }
    }
    m.model.emplace(params_for(cfg, new_log2_scale), scheme_);
    if (cfg.health_every > 0) m.model->set_health_interval(cfg.health_every);
    m.model->restore(prog, comp, steps);
  }

  /// Roll the member back: rebuild the model at the given scale and
  /// restart from `src` (an unscaled image at member step `rb`), or
  /// from the submit-time seed recipe when src is null (rb == 0).
  void rebuild_at(member& m, int new_log2_scale, int rb,
                  const swm::state<double>* src, std::size_t rb_snap) {
    member_config& cfg = m.job->cfg;
    m.model.emplace(params_for(cfg, new_log2_scale), scheme_);
    if (cfg.health_every > 0) m.model->set_health_interval(cfg.health_every);
    if (src != nullptr) {
      restore_unscaled(m, *src, rb);
    } else {
      m.model->seed_random_eddies(cfg.seed, cfg.velocity_amplitude);
      if (cfg.perturb_seed != 0) perturb(m);
    }
    m.taken = rb;
    m.remaining = cfg.steps - rb;
    m.snap_next = rb_snap;
    m.job->steps_done.store(rb, std::memory_order_relaxed);
  }

  /// Execute a retry / rescale / promote verdict. Rollback verdicts
  /// restart from the latest all-finite snapshot (else the initial
  /// image / seed recipe); in-place verdicts keep the live state.
  void apply_verdict(member& m, const swm::autopilot_verdict& v,
                     std::ptrdiff_t bad_index, advance_stats& st,
                     std::vector<promotion>& promotions) {
    job_record& job = *m.job;
    member_config& cfg = job.cfg;
    const int decided_at = m.taken;

    int rb = -1;
    std::size_t rb_snap = m.snap_next;
    const swm::state<double>* src = nullptr;
    if (v.rollback) {
      rb = 0;
      rb_snap = 0;
      src = job.initial_unscaled.get();
      for (std::size_t idx = m.snap_next; idx-- > 0;) {
        const swm::state<double>& s = job.result.snapshots[idx];
        if (finite_state(s)) {
          rb = static_cast<int>(idx + 1) * cfg.record_every;
          rb_snap = idx + 1;
          src = &s;
          break;
        }
      }
    }

    switch (v.action) {
      case swm::autopilot_action::retry:
      case swm::autopilot_action::rescale: {
        const bool rescale = v.action == swm::autopilot_action::rescale;
        const int new_k = rescale ? v.log2_scale : cfg.log2_scale;
        if (v.rollback) {
          rebuild_at(m, new_k, rb, src, rb_snap);
        } else {
          restate_in_place(m, new_k);
        }
        if (rescale) {
          cfg.log2_scale = new_k;
          m.pilot->note_rescale(new_k);
          ++st.rescales;
          note_repair(m, repair_kind::rescale, v.cause, decided_at, rb,
                      bad_index);
        } else {
          ++st.retries;
          note_repair(m, repair_kind::retry, v.cause, decided_at, rb,
                      bad_index);
        }
        break;
      }
      case swm::autopilot_action::promote: {
        promotion pr;
        pr.job = &job;
        pr.at_taken = v.rollback ? rb : m.taken;
        pr.step = decided_at;
        pr.snap_next = v.rollback ? rb_snap : m.snap_next;
        pr.fault_next = m.fault_next;
        pr.cause = v.cause;
        pr.rollback_to = v.rollback ? rb : -1;
        pr.bad_index = bad_index;
        if (!v.rollback) {
          pr.unscaled = m.model->unscaled();
        } else if (src != nullptr) {
          pr.unscaled = *src;
        } else {
          // No finite restart image survived: re-run the seed recipe
          // on this rung just to capture its step-0 state.
          rebuild_at(m, cfg.log2_scale, 0, nullptr, 0);
          pr.unscaled = m.model->unscaled();
        }
        pr.pilot = std::move(m.pilot);
        promotions.push_back(std::move(pr));
        m.live = false;
        ++st.promotes;
        break;
      }
      default:
        break;  // none/fail are handled by the callers
    }
  }

  /// Reactive repair: the health sentinel threw in finish_step.
  /// Without a pilot this is the fail-stop of old; with one, walk the
  /// ladder from the rolled-back state, metered by the tenant budget.
  void repair_after_error(member& m, std::ptrdiff_t bad_index,
                          advance_stats& st,
                          std::span<std::uint64_t> tenant_jobs,
                          std::vector<promotion>& promotions) {
    job_record& job = *m.job;
    if (m.pilot == nullptr) {
      job.result.reason = fail_reason::numerical;
      job.reason.store(fail_reason::numerical, std::memory_order_relaxed);
      finalize(m, job_state::failed, st, tenant_jobs);
      return;
    }
    if (job.reactive_repairs >= job.retry_budget) {
      permfail(m, swm::autopilot_cause::numerical_error,
               fail_reason::retry_exhausted, bad_index, st, tenant_jobs);
      return;
    }
    const swm::autopilot_verdict v =
        m.pilot->on_numerical_error(job.cfg.log2_scale);
    if (v.action == swm::autopilot_action::fail ||
        (v.action == swm::autopilot_action::promote &&
         !promotable(job.cfg.prec))) {
      permfail(m, v.cause, fail_reason::ladder_exhausted, bad_index, st,
               tenant_jobs);
      return;
    }
    job.reactive_repairs += 1;
    apply_verdict(m, v, bad_index, st, promotions);
  }

  /// Proactive range check: shadow-stripe sample + assessment against
  /// the member's admitted range, then act on the verdict.
  void autopilot_check(member& m, advance_stats& st,
                       std::span<std::uint64_t> tenant_jobs,
                       std::vector<promotion>& promotions) {
    job_record& job = *m.job;
    {
      TFX_OBS_SPAN(ens, job.tenant, "ens.autopilot.check", job.id);
      m.pilot->sample(m.model->prognostic());
    }
    const swm::autopilot_verdict v = m.pilot->assess(job.cfg.log2_scale);
    if (v.action == swm::autopilot_action::none) return;
    if (v.action == swm::autopilot_action::fail) {
      permfail(m, v.cause, fail_reason::range_unrecoverable, -1, st,
               tenant_jobs);
      return;
    }
    if (v.action == swm::autopilot_action::promote &&
        !promotable(job.cfg.prec)) {
      permfail(m, v.cause, fail_reason::ladder_exhausted, -1, st,
               tenant_jobs);
      return;
    }
    apply_verdict(m, v, -1, st, promotions);
  }

  swm::integration_scheme scheme_;
  fp::ftz_mode ftz_;
  std::size_t tile_;
  std::vector<std::unique_ptr<member>> members_;
  std::vector<std::unique_ptr<member>> pending_;  ///< engine mutex only
  std::vector<batch_items> items_;  ///< per-worker apply scratch
};

/// Batch key: members stepping together must share model types,
/// geometry and ftz mode (one guard per batch). Scheme is implied by
/// the personality.
using group_key = std::tuple<std::uint8_t, int, int, std::uint8_t>;

group_key key_of(const member_config& cfg) {
  return {static_cast<std::uint8_t>(cfg.prec), cfg.nx, cfg.ny,
          static_cast<std::uint8_t>(cfg.ftz)};
}

}  // namespace

struct engine::impl {
  explicit impl(engine_options o)
      : opts(o),
        pool(o.threads),
        worker_stats(static_cast<std::size_t>(o.threads)),
        worker_tenant_steps(
            static_cast<std::size_t>(o.threads),
            std::vector<std::uint64_t>(
                static_cast<std::size_t>(o.max_tenants), 0)),
        worker_tenant_jobs(
            static_cast<std::size_t>(o.threads),
            std::vector<std::uint64_t>(
                static_cast<std::size_t>(o.max_tenants), 0)),
        worker_promotions(static_cast<std::size_t>(o.threads)),
        tenants(new tenant_slot[static_cast<std::size_t>(o.max_tenants)]) {}

  engine_options opts;
  thread_pool pool;

  mutable std::mutex mu;
  std::condition_variable work_cv;  ///< wakes the scheduler thread
  std::condition_variable done_cv;  ///< wakes wait()/wait_all()
  std::atomic<bool> stop{false};

  std::unordered_map<job_id, std::unique_ptr<job_record>> jobs;  // mu
  std::map<group_key, std::unique_ptr<group_base>> groups;       // mu
  job_id next_id = 1;                                            // mu
  std::size_t active = 0;   ///< members queued+running (mu)
  /// Submits admitted but still building their member (mu). They hold
  /// a member slot and their backlog, but are not active: the
  /// scheduler has nothing of theirs to step yet.
  std::size_t reserved = 0;
  double backlog = 0;       ///< modeled seconds admitted (mu)

  /// One claimable unit of a round: a run of one group's members, at
  /// most a tile. Distinct claims never share members.
  struct claim {
    group_base* group = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Round scratch: written by the driving thread between regions,
  /// read by workers inside the region (the pool's dispatch/join
  /// fences order the accesses).
  std::vector<claim> round;
  std::atomic<std::size_t> round_next{0};
  std::vector<advance_stats> worker_stats;
  std::vector<std::vector<std::uint64_t>> worker_tenant_steps;
  std::vector<std::vector<std::uint64_t>> worker_tenant_jobs;
  /// Per-worker promotion requests, drained (sorted by job id) by the
  /// driving thread between rounds.
  std::vector<std::vector<promotion>> worker_promotions;

  struct tenant_slot {
    std::string name;
    obs::metric_counter* steps = nullptr;
    obs::metric_counter* jobs = nullptr;
    std::atomic<std::uint64_t> cum_steps{0};
    int retry_budget = 2;  ///< reactive repairs per member
  };
  std::unique_ptr<tenant_slot[]> tenants;  ///< fixed array: no realloc
  std::atomic<int> tenant_count{0};

  std::thread scheduler;

  // -- tenant obs plane ------------------------------------------------

  tenant_id add_tenant(std::string name, int retry_budget) {
    std::lock_guard lock(mu);
    const int idx = tenant_count.load(std::memory_order_relaxed);
    TFX_EXPECTS(idx < opts.max_tenants && "tenant capacity exhausted");
    TFX_EXPECTS(retry_budget >= 0);
    tenant_slot& slot = tenants[static_cast<std::size_t>(idx)];
    slot.name = std::move(name);
    slot.retry_budget = retry_budget;
    if constexpr (obs::compiled) {
      auto& reg = obs::metrics_registry::instance();
      slot.steps = &reg.get_counter("ens.steps." + slot.name);
      slot.jobs = &reg.get_counter("ens.jobs." + slot.name);
    }
    tenant_count.store(idx + 1, std::memory_order_release);
    return static_cast<tenant_id>(idx);
  }

  void note_tenant(tenant_id t, std::uint64_t steps,
                   std::uint64_t jobs_done) {
    tenant_slot& slot = tenants[t];
    const std::uint64_t total =
        slot.cum_steps.fetch_add(steps, std::memory_order_relaxed) + steps;
    if (obs::active()) {
      if (slot.steps != nullptr && steps != 0) slot.steps->add(steps);
      if (slot.jobs != nullptr && jobs_done != 0) slot.jobs->add(jobs_done);
      TFX_OBS_COUNTER(ens, t, "ens.tenant.steps", total);
    }
  }

  // -- rounds ----------------------------------------------------------

  static void run_worker(const void* ctx, int worker, std::size_t,
                         std::size_t) {
    auto& self = *static_cast<impl*>(const_cast<void*>(ctx));
    const auto w = static_cast<std::size_t>(worker);
    advance_stats& st = self.worker_stats[w];
    for (;;) {
      const std::size_t ci =
          self.round_next.fetch_add(1, std::memory_order_relaxed);
      if (ci >= self.round.size()) return;
      const claim& c = self.round[ci];
      TFX_OBS_SPAN(ens, static_cast<std::uint16_t>(worker), "ens.batch",
                   static_cast<std::uint64_t>(c.end - c.begin));
      const advance_stats got =
          c.group->advance(worker, self.opts.stride, c.begin, c.end,
                           self.worker_tenant_steps[w],
                           self.worker_tenant_jobs[w],
                           self.worker_promotions[w]);
      st.member_steps += got.member_steps;
      st.finished += got.finished;
      st.finished_seconds += got.finished_seconds;
      st.rescales += got.rescales;
      st.retries += got.retries;
      st.promotes += got.promotes;
      st.permfails += got.permfails;
    }
  }

  /// Re-admit a promoted member into the next rung's batch group:
  /// update the job's personality/scale, re-price the backlog, record
  /// the transcript entry, and hand the captured state to the new
  /// group. Caller holds the engine mutex.
  void promote_member(promotion&& pr) {
    job_record& job = *pr.job;
    member_config& cfg = job.cfg;
    const personality from = cfg.prec;
    cfg.prec = promoted(from);
    cfg.log2_scale = 0;  // wider rungs need no scaling by default

    const double old_cost = job.result.modeled_seconds;
    const double new_cost = swm::predict_time(
        opts.machine, cfg.nx, cfg.ny, precision_of(cfg.prec), cfg.steps);
    job.result.modeled_seconds = new_cost;
    backlog += new_cost - old_cost;
    if (backlog < 0) backlog = 0;

    pr.pilot->note_promotion(format_range_of(cfg.prec), 0);
    job.result.repairs.push_back({repair_kind::promote, pr.cause, pr.step,
                                  cfg.prec, 0, pr.rollback_to, pr.bad_index});
    job.repairs.fetch_add(1, std::memory_order_relaxed);
    TFX_OBS_INSTANT(ens, job.tenant, "ens.autopilot.promote", job.id,
                    static_cast<std::uint64_t>(pr.step));

    auto& group = groups[key_of(cfg)];
    if (!group) group = make_group(cfg);
    group->admit_promoted(std::move(pr));
  }

  /// One scheduling round: compact + splice every group, carve the
  /// members into claims, fan the claims out over the pool, account
  /// the results. Returns false (and does nothing) when no member is
  /// active.
  ///
  /// A claim holds at most a tile, and at most ceil(n / workers) of a
  /// group's n members: a group smaller than workers x tile is cut
  /// into one claim per worker instead of sitting in one claim on one
  /// worker while the others idle.
  bool run_round() {
    {
      std::lock_guard lock(mu);
      round.clear();
      const auto workers = static_cast<std::size_t>(pool.size());
      for (auto& [key, g] : groups) {
        const std::size_t n = g->prepare_round();
        if (n == 0) continue;
        const std::size_t len =
            std::min(g->tile(), (n + workers - 1) / workers);
        for (std::size_t lo = 0; lo < n; lo += len) {
          round.push_back({g.get(), lo, std::min(lo + len, n)});
        }
      }
    }
    if (round.empty()) return false;

    for (auto& st : worker_stats) st = advance_stats{};
    for (auto& t : worker_tenant_steps) std::fill(t.begin(), t.end(), 0u);
    for (auto& t : worker_tenant_jobs) std::fill(t.begin(), t.end(), 0u);
    round_next.store(0, std::memory_order_relaxed);
    {
      TFX_OBS_SPAN(ens, 0, "ens.round", round.size());
      const thread_pool::task t{static_cast<std::size_t>(pool.size()),
                                &run_worker, this};
      pool.parallel_region({&t, 1});
    }

    std::size_t steps = 0;
    std::size_t finished = 0;
    std::size_t rescales = 0;
    std::size_t retries = 0;
    std::size_t promotes = 0;
    std::size_t permfails = 0;
    {
      std::lock_guard lock(mu);
      for (const advance_stats& st : worker_stats) {
        steps += st.member_steps;
        finished += st.finished;
        backlog -= st.finished_seconds;
        rescales += st.rescales;
        retries += st.retries;
        permfails += st.permfails;
      }
      active -= finished;
      // Drain promotion requests sorted by job id: arrival order into
      // the target groups is then identical for every pool size and
      // claim interleaving (the determinism contract).
      std::vector<promotion> promos;
      for (auto& per : worker_promotions) {
        for (auto& pr : per) promos.push_back(std::move(pr));
        per.clear();
      }
      std::sort(promos.begin(), promos.end(),
                [](const promotion& a, const promotion& b) {
                  return a.job->id < b.job->id;
                });
      promotes = promos.size();
      for (auto& pr : promos) promote_member(std::move(pr));
      pin_idle_backlog();
    }
    const int nt = tenant_count.load(std::memory_order_acquire);
    for (std::size_t t = 0; t < static_cast<std::size_t>(nt); ++t) {
      std::uint64_t ts = 0;
      std::uint64_t tj = 0;
      for (const auto& per : worker_tenant_steps) ts += per[t];
      for (const auto& per : worker_tenant_jobs) tj += per[t];
      if (ts != 0 || tj != 0) note_tenant(static_cast<tenant_id>(t), ts, tj);
    }
    if (obs::active()) {
      obs::metric_add("ens.rounds");
      obs::metric_add("ens.member_steps", steps);
      if (finished != 0) obs::metric_add("ens.jobs_done", finished);
      if (rescales != 0) obs::metric_add("ens.autopilot.rescale", rescales);
      if (retries != 0) obs::metric_add("ens.autopilot.retry", retries);
      if (promotes != 0) obs::metric_add("ens.autopilot.promote", promotes);
      if (permfails != 0) {
        obs::metric_add("ens.autopilot.permfail", permfails);
      }
    }
    if (finished != 0) done_cv.notify_all();
    return true;
  }

  void scheduler_loop() {
    for (;;) {
      {
        std::unique_lock lock(mu);
        work_cv.wait(lock, [&] {
          return stop.load(std::memory_order_relaxed) || active > 0;
        });
        if (stop.load(std::memory_order_relaxed)) return;
      }
      while (!stop.load(std::memory_order_relaxed) && run_round()) {
      }
    }
  }

  // -- admission -------------------------------------------------------

  std::size_t tile_for(const member_config& cfg) const {
    if (opts.tile_members != 0) return opts.tile_members;
    const std::uint64_t ws =
        swm::predict_step(opts.machine, cfg.nx, cfg.ny,
                          precision_of(cfg.prec))
            .working_set_bytes;
    return kernels::problems_per_tile(static_cast<std::size_t>(ws),
                                      opts.machine.l2.size_bytes);
  }

  std::unique_ptr<group_base> make_group(const member_config& cfg) const {
    using swm::integration_scheme;
    const std::size_t tile = tile_for(cfg);
    const int w = opts.threads;
    switch (cfg.prec) {
      case personality::float64:
        return std::make_unique<group_impl<double, double>>(
            integration_scheme::standard, cfg.ftz, tile, w);
      case personality::float64_comp:
        return std::make_unique<group_impl<double, double>>(
            integration_scheme::compensated, cfg.ftz, tile, w);
      case personality::float32:
        return std::make_unique<group_impl<float, float>>(
            integration_scheme::standard, cfg.ftz, tile, w);
      case personality::float16:
        return std::make_unique<group_impl<fp::float16, fp::float16>>(
            integration_scheme::compensated, cfg.ftz, tile, w);
      case personality::float16_mixed:
        return std::make_unique<group_impl<fp::float16, float>>(
            integration_scheme::standard, cfg.ftz, tile, w);
      case personality::bfloat16:
        return std::make_unique<group_impl<fp::bfloat16, fp::bfloat16>>(
            integration_scheme::compensated, cfg.ftz, tile, w);
    }
    return nullptr;
  }

  /// The gauge is a float sum updated in admission order and drained
  /// in completion order; pin it to exactly zero at idle so rounding
  /// residue never leaks into admission decisions. Caller holds mu.
  void pin_idle_backlog() {
    if (backlog < 0 || (active == 0 && reserved == 0)) backlog = 0;
  }

  /// Give back a reservation that will never be published. Caller
  /// holds mu.
  void release_reservation(double cost) {
    reserved -= 1;
    backlog -= cost;
    pin_idle_backlog();
  }

  static bool valid(const member_config& cfg) {
    // The member runs at s = 2^k and is read back through 2^-k; both
    // must be normal doubles, so |k| <= 1022.
    constexpr int max_log2_scale =
        1 - std::numeric_limits<double>::min_exponent;
    const bool scale_ok = cfg.log2_scale >= -max_log2_scale &&
                          cfg.log2_scale <= max_log2_scale;
    return cfg.nx > 0 && cfg.ny > 0 && cfg.steps > 0 &&
           cfg.record_every >= 0 && std::isfinite(cfg.velocity_amplitude) &&
           std::isfinite(cfg.perturb_amplitude) &&
           cfg.perturb_amplitude >= 0 && scale_ok &&
           cfg.autopilot.check_every >= 0 &&
           (cfg.autopilot.check_every == 0 ||
            cfg.autopilot.stripe_rows > 0) &&
           (cfg.initial == nullptr ||
            (cfg.initial->nx() == cfg.nx && cfg.initial->ny() == cfg.ny));
  }

  /// Admission in three steps, so the member build (the model's
  /// allocation and its seeding or restore) runs without the mutex:
  /// reserve (the admission decision) under mu, build outside it,
  /// publish (id, job table, group splice) under mu again.
  submit_ticket admit(const member_config& cfg, tenant_id tenant) {
    if (!valid(cfg)) return {invalid_job, submit_error::invalid_config};
    const double cost = swm::predict_time(opts.machine, cfg.nx, cfg.ny,
                                          precision_of(cfg.prec), cfg.steps);

    group_base* group = nullptr;
    int retry_budget = 0;
    {
      std::lock_guard lock(mu);
      if (stop.load(std::memory_order_relaxed)) {
        return {invalid_job, submit_error::shutdown};
      }
      if (tenant >= tenant_count.load(std::memory_order_relaxed)) {
        return {invalid_job, submit_error::invalid_config};
      }
      if (active + reserved >= opts.max_members) {
        return {invalid_job, submit_error::queue_full};
      }
      if (backlog + cost > opts.max_backlog_seconds) {
        return {invalid_job, submit_error::backlog_exceeded};
      }
      // Groups are never erased, so the pointer outlives the build.
      auto& g = groups[key_of(cfg)];
      if (!g) g = make_group(cfg);
      group = g.get();
      retry_budget = tenants[tenant].retry_budget;
      reserved += 1;
      backlog += cost;
    }

    std::unique_ptr<job_record> job;
    std::unique_ptr<built_member> member;
    try {
      job = std::make_unique<job_record>();
      job->tenant = tenant;
      job->retry_budget = retry_budget;
      job->cfg = cfg;
      job->cfg.initial = nullptr;  // copied into the member by build()
      job->result.modeled_seconds = cost;
      job->result.prognostic = swm::state<double>(cfg.nx, cfg.ny);
      job->result.compensation = swm::state<double>(cfg.nx, cfg.ny);
      if (cfg.record_every > 0) {
        const auto snaps =
            static_cast<std::size_t>(cfg.steps / cfg.record_every);
        job->result.snapshots.reserve(snaps);
        for (std::size_t s = 0; s < snaps; ++s) {
          job->result.snapshots.emplace_back(cfg.nx, cfg.ny);
        }
      }
      member = group->build(job.get(), cfg.initial);
    } catch (...) {
      std::lock_guard lock(mu);
      release_reservation(cost);
      throw;
    }

    std::lock_guard lock(mu);
    if (stop.load(std::memory_order_relaxed)) {
      release_reservation(cost);
      return {invalid_job, submit_error::shutdown};
    }
    reserved -= 1;
    active += 1;
    const job_id id = next_id++;
    job->id = id;
    group->publish(std::move(member));
    jobs.emplace(id, std::move(job));
    if (opts.async) work_cv.notify_one();
    return {id, submit_error::none};
  }
};

engine::engine(engine_options opts) {
  TFX_EXPECTS(opts.threads >= 1);
  TFX_EXPECTS(opts.stride >= 1);
  TFX_EXPECTS(opts.max_tenants >= 1 && opts.max_tenants <= 65535);
  impl_ = std::make_unique<impl>(opts);
  impl_->add_tenant("default", 2);
  if (opts.async) {
    impl_->scheduler = std::thread([e = impl_.get()] { e->scheduler_loop(); });
  }
}

engine::~engine() {
  {
    std::lock_guard lock(impl_->mu);
    impl_->stop.store(true, std::memory_order_relaxed);
  }
  impl_->work_cv.notify_all();
  if (impl_->scheduler.joinable()) impl_->scheduler.join();
  {
    std::lock_guard lock(impl_->mu);
    for (auto& [id, job] : impl_->jobs) {
      const job_state s = job->state.load(std::memory_order_relaxed);
      if (!is_terminal(s)) {
        job->state.store(job_state::cancelled, std::memory_order_release);
      }
    }
  }
  impl_->done_cv.notify_all();
}

tenant_id engine::register_tenant(std::string name, int retry_budget) {
  return impl_->add_tenant(std::move(name), retry_budget);
}

submit_ticket engine::submit(const member_config& cfg, tenant_id tenant) {
  return impl_->admit(cfg, tenant);
}

std::optional<job_status> engine::poll(job_id id) const {
  std::lock_guard lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) return std::nullopt;
  const job_record& j = *it->second;
  job_status s;
  s.state = j.state.load(std::memory_order_acquire);
  s.steps_done = j.steps_done.load(std::memory_order_relaxed);
  s.failed_step = j.failed_step.load(std::memory_order_relaxed);
  s.reason = j.reason.load(std::memory_order_relaxed);
  s.repairs = j.repairs.load(std::memory_order_relaxed);
  return s;
}

cancel_result engine::cancel(job_id id) {
  std::lock_guard lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) return cancel_result::unknown_job;
  job_record& j = *it->second;
  switch (j.state.load(std::memory_order_acquire)) {
    case job_state::done: return cancel_result::already_done;
    case job_state::cancelled: return cancel_result::already_cancelled;
    case job_state::failed: return cancel_result::already_failed;
    default: break;
  }
  j.cancel_requested.store(true, std::memory_order_relaxed);
  return cancel_result::requested;
}

void engine::wait(job_id id) {
  impl& e = *impl_;
  if (!e.opts.async) {
    for (;;) {
      const auto st = poll(id);
      if (!st || is_terminal(st->state)) return;
      if (drive(1) == 0) return;  // nothing left to drive
    }
  }
  std::unique_lock lock(e.mu);
  e.done_cv.wait(lock, [&] {
    if (e.stop.load(std::memory_order_relaxed)) return true;
    const auto it = e.jobs.find(id);
    if (it == e.jobs.end()) return true;
    return is_terminal(it->second->state.load(std::memory_order_acquire));
  });
}

void engine::wait_all() {
  impl& e = *impl_;
  if (!e.opts.async) {
    while (e.run_round()) {
    }
    return;
  }
  std::unique_lock lock(e.mu);
  e.done_cv.wait(lock, [&] {
    return e.stop.load(std::memory_order_relaxed) || e.active == 0;
  });
}

const job_result* engine::result(job_id id) const {
  std::lock_guard lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) return nullptr;
  if (!is_terminal(it->second->state.load(std::memory_order_acquire))) {
    return nullptr;
  }
  return &it->second->result;
}

int engine::drive(int max_rounds) {
  TFX_EXPECTS(!impl_->opts.async &&
              "drive() races the scheduler thread in async mode");
  int rounds = 0;
  while (rounds < max_rounds && impl_->run_round()) ++rounds;
  return rounds;
}

std::size_t engine::active_members() const {
  std::lock_guard lock(impl_->mu);
  return impl_->active;
}

double engine::backlog_seconds() const {
  std::lock_guard lock(impl_->mu);
  return impl_->backlog;
}

std::size_t engine::tile_members_for(const member_config& cfg) const {
  return impl_->tile_for(cfg);
}

const engine_options& engine::options() const { return impl_->opts; }

}  // namespace tfx::ensemble
