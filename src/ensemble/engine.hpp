#pragma once

/// \file engine.hpp
/// The ensemble scenario engine: thousands of concurrent SWM member
/// runs behind an async submit/poll/cancel API, stepped in batches
/// over the core thread pool (docs/ENSEMBLE.md).
///
/// Scheduling model. Members with the same (personality, nx, ny, ftz)
/// form a *batch group*. Each scheduling round cuts every non-empty
/// group into claims and fans them out over the pool. A claim holds
/// at most `tile_members_for()` members — a tile, priced off the arch
/// model's L2 capacity through kernels::problems_per_tile so its
/// working set stays cache resident — and at most ceil(n / threads)
/// of the group's n members, so a group smaller than threads x tile
/// still spreads over every worker. The worker that takes a claim
/// runs `stride` consecutive steps on it before taking the next
/// (temporal cache reuse; stride bounds the per-round unfairness
/// between claims). Within a step the claim runs stage-major: every
/// member's four RHS stages, then ONE batched RK4-apply dispatch
/// through kernels::sweeps::rk4_update[_kahan]_batched for native
/// integration types (soft-float members fall back to per-member
/// applies inside the same loop).
///
/// Determinism. Members never share mutable state and no cross-member
/// reduction exists, so any claim order, pool size and tile split
/// yields bit-identical per-member trajectories — equal to the same
/// config run standalone through swm::model. That oracle equivalence
/// (including Kahan compensation bits) is pinned by
/// tests/ensemble_engine_test; tests/ensemble_stress_test pins that
/// the batched steady state allocates nothing after warmup.
///
/// Admission control. Each job carries a modeled cost
/// (swm::predict_time at its personality/size); submit() rejects with
/// typed errors when member capacity or the modeled backlog bound
/// would be exceeded — backpressure is a normal answer, not an error
/// path. The decision and the slot it reserves are taken under the
/// engine mutex; the member is then built (model, seeding or restore,
/// perturbation) on the calling thread without it, and published
/// under the mutex again, so concurrent submits build in parallel and
/// the scheduler steps earlier members meanwhile.
///
/// Member repair. With member_config::autopilot enabled, each member
/// carries a swm::autopilot that samples a Sherlog shadow stripe every
/// N steps and walks the rescale -> promote -> permfail ladder on
/// range drift or a numerical_error: rescales restate the member in
/// place (or from its last finite snapshot), promotions re-admit it
/// into the next personality's batch group at the end of the round
/// (re-priced through swm::predict_time), and every action lands on
/// the obs plane (ens.autopilot.* counters and instants) and in
/// job_result::repairs. Repair decisions are member-local, so the
/// transcript is identical across pool sizes and submission orders
/// (docs/AUTOPILOT.md).

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "arch/a64fx.hpp"
#include "ensemble/job.hpp"

namespace tfx::ensemble {

struct engine_options {
  /// Stepping threads (including the scheduler/driver thread, which
  /// participates as worker 0 of the pool).
  int threads = 1;

  /// true: a scheduler thread runs rounds whenever members are active
  /// (submit/poll/wait from any thread). false: nothing advances until
  /// the owner calls drive() — the deterministic harness the tests
  /// use, and what wait() falls back to.
  bool async = true;

  /// Admission: maximum members queued + running.
  std::size_t max_members = 4096;

  /// Admission: reject once the modeled backlog (sum of
  /// swm::predict_time over admitted, unfinished jobs) would pass this.
  double max_backlog_seconds = std::numeric_limits<double>::infinity();

  /// Steps a tile advances per claim before the worker moves to the
  /// next tile (temporal reuse vs cross-member fairness).
  int stride = 4;

  /// Members per tile, the most one claim holds; 0 prices it from
  /// `machine`'s L2 via kernels::problems_per_tile. A group smaller
  /// than threads x tile is cut into claims of ceil(members / threads)
  /// instead, one per worker.
  std::size_t tile_members = 0;

  /// Tile stride = 1 and tile_members = 1 make scheduling round-robin
  /// member-major — the cache-hostile fair baseline.

  int max_tenants = 16;

  /// Machine model used for tile pricing and admission costs.
  arch::a64fx_params machine = arch::fugaku_node;
};

class engine {
 public:
  explicit engine(engine_options opts = {});
  ~engine();
  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  /// Register a tenant and pre-create its obs counters
  /// (ens.steps.<name>, ens.jobs.<name>) so the stepping hot path only
  /// touches resolved handles. Tenant `default_tenant` ("default")
  /// always exists (retry budget 2).
  ///
  /// `retry_budget` bounds the *reactive* repairs (rollback + retry /
  /// rescale / promote after a numerical_error) each of this tenant's
  /// members may consume over its lifetime; one more sentinel trip
  /// past the budget is a typed permanent failure (retry_exhausted).
  /// Proactive drift repairs — applied in place, no rollback — are
  /// not metered: they are planned degradation, not failure recovery.
  tenant_id register_tenant(std::string name, int retry_budget = 2);

  /// Admit one member run; typed rejection instead of blocking.
  /// Thread-safe: racing submits are decided one at a time under the
  /// engine mutex, while their members build concurrently outside it.
  [[nodiscard]] submit_ticket submit(const member_config& cfg,
                                     tenant_id tenant = default_tenant);

  /// Status snapshot; nullopt for an unknown id.
  [[nodiscard]] std::optional<job_status> poll(job_id id) const;

  /// Request cancellation; takes effect at the member's next step
  /// boundary (its trajectory prefix stays oracle-exact).
  cancel_result cancel(job_id id);

  /// Block until the job reaches a terminal state. In manual mode
  /// this drives rounds on the calling thread.
  void wait(job_id id);

  /// Block until every admitted job has settled.
  void wait_all();

  /// The job's final output once terminal (nullptr before that, or
  /// for unknown ids). Stable for the engine's lifetime.
  [[nodiscard]] const job_result* result(job_id id) const;

  /// Manual mode: run up to `max_rounds` scheduling rounds on the
  /// calling thread; returns how many actually ran (a round with no
  /// active members does not run). Only valid when options().async is
  /// false.
  int drive(int max_rounds = std::numeric_limits<int>::max());

  /// Members currently queued or running.
  [[nodiscard]] std::size_t active_members() const;

  /// Modeled seconds of admitted, unfinished work (the admission
  /// gauge).
  [[nodiscard]] double backlog_seconds() const;

  /// The L2-priced tile size a member of this config batches at.
  [[nodiscard]] std::size_t tile_members_for(const member_config& cfg) const;

  [[nodiscard]] const engine_options& options() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace tfx::ensemble
