// Stress suite of the ensemble engine: thousands of members with
// randomized shapes and precision personalities through the async
// scheduler (run under TFX_SANITIZE=thread via the `threads` ctest
// label), an operator-new counting proof that the batched steady
// state allocates nothing after warmup (the kernels_hotswap_test
// idiom), and tenant isolation of the obs plane — each tenant's
// metric counters account for exactly its own member-steps, and
// ens-domain job events carry the owning tenant's track.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <set>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "ensemble/engine.hpp"
#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/model.hpp"

using namespace tfx;
using namespace tfx::ensemble;

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps
// it, so a window of zero proves the steady state touched no heap.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }

namespace {
// Out of line: inlined into a delete site, free() would take a pointer
// from operator new there, which -Wmismatched-new-delete reports.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace {

std::uint64_t allocs_during(const auto& fn) {
  const std::uint64_t before = g_allocs.load();
  fn();
  return g_allocs.load() - before;
}

// Standalone oracle (the ensemble_engine_test recipe, condensed):
// final scaled prognostic + compensation in double.
template <typename T, typename Tprog>
void run_oracle_as(const member_config& cfg, swm::integration_scheme scheme,
                   swm::state<double>& prog, swm::state<double>& comp) {
  swm::swm_params p;
  p.nx = cfg.nx;
  p.ny = cfg.ny;
  p.log2_scale = cfg.log2_scale;
  fp::ftz_guard guard(cfg.ftz);
  swm::model<T, Tprog> m(p, scheme);
  if (cfg.initial != nullptr) {
    m.restore(swm::convert_state<Tprog>(*cfg.initial), cfg.initial_steps);
  } else {
    m.seed_random_eddies(cfg.seed, cfg.velocity_amplitude);
  }
  if (cfg.perturb_seed != 0) {
    xoshiro256 rng(cfg.perturb_seed);
    auto& st = m.prognostic();
    for (auto* f : {&st.u, &st.v, &st.eta}) {
      for (auto& v : f->flat()) {
        v = Tprog(static_cast<double>(v) *
                  (1.0 + cfg.perturb_amplitude * rng.uniform(-1.0, 1.0)));
      }
    }
  }
  m.run(cfg.steps);
  swm::convert_state_into(prog, m.prognostic());
  swm::convert_state_into(comp, m.compensation());
}

void run_oracle(const member_config& cfg, swm::state<double>& prog,
                swm::state<double>& comp) {
  using swm::integration_scheme;
  switch (cfg.prec) {
    case personality::float64:
      run_oracle_as<double, double>(cfg, integration_scheme::standard, prog,
                                    comp);
      return;
    case personality::float64_comp:
      run_oracle_as<double, double>(cfg, integration_scheme::compensated, prog,
                                    comp);
      return;
    case personality::float32:
      run_oracle_as<float, float>(cfg, integration_scheme::standard, prog,
                                  comp);
      return;
    case personality::float16:
      run_oracle_as<fp::float16, fp::float16>(
          cfg, integration_scheme::compensated, prog, comp);
      return;
    case personality::float16_mixed:
      run_oracle_as<fp::float16, float>(cfg, integration_scheme::standard,
                                        prog, comp);
      return;
    case personality::bfloat16:
      run_oracle_as<fp::bfloat16, fp::bfloat16>(
          cfg, integration_scheme::compensated, prog, comp);
      return;
  }
}

void expect_state_bits(const swm::state<double>& got,
                       const swm::state<double>& want) {
  for (const auto& [g, w] : {std::pair{&got.u, &want.u},
                             std::pair{&got.v, &want.v},
                             std::pair{&got.eta, &want.eta}}) {
    const auto gf = g->flat();
    const auto wf = w->flat();
    ASSERT_EQ(gf.size(), wf.size());
    int bad = 0;
    for (std::size_t i = 0; i < gf.size(); ++i) {
      bad += std::bit_cast<std::uint64_t>(gf[i]) !=
             std::bit_cast<std::uint64_t>(wf[i]);
    }
    EXPECT_EQ(bad, 0);
  }
}

/// RAII tracing session (the obs_trace_test idiom).
struct obs_session {
  obs_session() {
    obs::metrics_registry::instance().clear();
    obs::start();
  }
  ~obs_session() { obs::stop(); }
  obs_session(const obs_session&) = delete;
  obs_session& operator=(const obs_session&) = delete;
};

}  // namespace

// ---------------------------------------------------------------------------
// 2k+ randomized members through the async scheduler.
// ---------------------------------------------------------------------------

TEST(EnsembleStress, ThousandsOfRandomizedMembersAllCompleteExactly) {
  constexpr int kMembers = 2048;
  constexpr struct {
    int nx, ny;
  } kShapes[] = {{8, 4}, {12, 6}, {16, 8}};

  std::mt19937 rng(20260807u);
  std::vector<member_config> configs;
  configs.reserve(kMembers);
  for (int i = 0; i < kMembers; ++i) {
    member_config cfg;
    cfg.prec = all_personalities[rng() % 6u];
    const auto& sh = kShapes[rng() % 3u];
    cfg.nx = sh.nx;
    cfg.ny = sh.ny;
    cfg.steps = 2 + static_cast<int>(rng() % 4u);
    cfg.seed = 100 + (rng() % 1000u);
    if (rng() % 4u == 0) {
      cfg.perturb_seed = 5000 + i;
      cfg.perturb_amplitude = 1e-2;
    }
    if (cfg.prec == personality::float16 && rng() % 2u == 0) {
      cfg.log2_scale = 8;
      cfg.ftz = fp::ftz_mode::flush;
    }
    configs.push_back(cfg);
  }

  engine_options opts;
  opts.threads = 4;
  opts.async = true;
  opts.max_members = kMembers;
  engine eng(opts);

  std::vector<job_id> ids;
  ids.reserve(configs.size());
  std::vector<job_id> cancelled;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const submit_ticket t = eng.submit(configs[i]);
    ASSERT_TRUE(t.ok()) << "member " << i << ": "
                        << submit_error_name(t.error);
    ids.push_back(t.id);
    // Sprinkle cancellations while the scheduler races the submitter.
    if (i % 97 == 0) {
      const cancel_result c = eng.cancel(t.id);
      EXPECT_TRUE(c == cancel_result::requested ||
                  c == cancel_result::already_done);
      cancelled.push_back(t.id);
    }
  }
  eng.wait_all();
  EXPECT_EQ(eng.active_members(), 0u);

  std::set<job_id> maybe_cancelled(cancelled.begin(), cancelled.end());
  int done = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto st = eng.poll(ids[i]);
    ASSERT_TRUE(st.has_value());
    if (maybe_cancelled.count(ids[i]) != 0) {
      ASSERT_TRUE(st->state == job_state::done ||
                  st->state == job_state::cancelled);
      continue;
    }
    ASSERT_EQ(st->state, job_state::done) << "member " << i;
    ASSERT_EQ(st->steps_done, configs[i].steps);
    ++done;
  }
  EXPECT_GE(done, kMembers - static_cast<int>(cancelled.size()));

  // Spot-check a deterministic sample against the standalone oracle —
  // full bit-identity, not tolerance.
  for (std::size_t i = 0; i < ids.size(); i += 97) {
    if (maybe_cancelled.count(ids[i]) != 0) continue;
    SCOPED_TRACE(::testing::Message() << "member " << i << " "
                                      << personality_name(configs[i].prec));
    const job_result* got = eng.result(ids[i]);
    ASSERT_NE(got, nullptr);
    swm::state<double> prog(configs[i].nx, configs[i].ny);
    swm::state<double> comp(configs[i].nx, configs[i].ny);
    run_oracle(configs[i], prog, comp);
    expect_state_bits(got->prognostic, prog);
    expect_state_bits(got->compensation, comp);
  }
}

// ---------------------------------------------------------------------------
// Allocation-freedom of the batched steady state.
// ---------------------------------------------------------------------------

TEST(EnsembleStress, BatchedSteadyStateIsAllocationFreeAfterWarmup) {
  ASSERT_FALSE(obs::active());  // obs off: the gated hot path is bare

  engine_options opts;
  opts.threads = 2;
  opts.async = false;  // manual rounds: the measured window is exact
  opts.stride = 2;
  engine eng(opts);

  // Two batch groups, enough members for several tiles each.
  for (int i = 0; i < 32; ++i) {
    member_config cfg;
    cfg.prec = personality::float32;
    cfg.nx = 16;
    cfg.ny = 8;
    cfg.steps = 30;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(eng.submit(cfg).ok());
  }
  for (int i = 0; i < 16; ++i) {
    member_config cfg;
    cfg.prec = personality::float64_comp;
    cfg.nx = 12;
    cfg.ny = 6;
    cfg.steps = 30;
    cfg.seed = 500 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(eng.submit(cfg).ok());
  }

  // Warmup: first rounds splice members into groups, reserve the
  // batch-item scratch and grow the pool's task buffer.
  ASSERT_EQ(eng.drive(2), 2);

  // Steady state: stepping rounds touch no heap at all.
  const std::uint64_t steady = allocs_during([&] { eng.drive(4); });
  EXPECT_EQ(steady, 0u)
      << "batched stepping rounds must not allocate after warmup";

  // Completion (finalize + compaction) only *releases* memory.
  const std::uint64_t drain = allocs_during([&] { eng.wait_all(); });
  EXPECT_EQ(drain, 0u) << "finalization must not allocate";

  for (job_id id = 1; id <= 48; ++id) {
    const auto st = eng.poll(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, job_state::done);
  }
}

// ---------------------------------------------------------------------------
// Obs tenant isolation.
// ---------------------------------------------------------------------------

TEST(EnsembleStress, TenantCountersAndTracksAreIsolated) {
  if (!obs::compiled) GTEST_SKIP() << "obs compiled out";
  const obs_session session;

  std::vector<obs::event> events;
  tenant_id alpha = 0;
  tenant_id beta = 0;
  std::vector<job_id> alpha_ids;
  std::vector<job_id> beta_ids;
  {
    engine_options opts;
    opts.threads = 2;
    opts.async = false;
    engine eng(opts);
    alpha = eng.register_tenant("alpha");
    beta = eng.register_tenant("beta");
    ASSERT_NE(alpha, beta);
    ASSERT_NE(alpha, default_tenant);

    // alpha: 3 jobs x 4 steps = 12 member-steps; beta: 2 x 5 = 10.
    for (int i = 0; i < 3; ++i) {
      member_config cfg;
      cfg.steps = 4;
      cfg.seed = 10 + static_cast<std::uint64_t>(i);
      const submit_ticket t = eng.submit(cfg, alpha);
      ASSERT_TRUE(t.ok());
      alpha_ids.push_back(t.id);
    }
    for (int i = 0; i < 2; ++i) {
      member_config cfg;
      cfg.prec = personality::float32;
      cfg.steps = 5;
      cfg.seed = 20 + static_cast<std::uint64_t>(i);
      const submit_ticket t = eng.submit(cfg, beta);
      ASSERT_TRUE(t.ok());
      beta_ids.push_back(t.id);
    }
    eng.wait_all();
    events = obs::collect();
  }

  // Per-tenant counters account for exactly the tenant's own steps —
  // no bleed between tenants, none from the default tenant.
  auto& reg = obs::metrics_registry::instance();
  EXPECT_EQ(reg.get_counter("ens.steps.alpha").value(), 12u);
  EXPECT_EQ(reg.get_counter("ens.jobs.alpha").value(), 3u);
  EXPECT_EQ(reg.get_counter("ens.steps.beta").value(), 10u);
  EXPECT_EQ(reg.get_counter("ens.jobs.beta").value(), 2u);
  EXPECT_EQ(reg.get_counter("ens.steps.default").value(), 0u);
  EXPECT_EQ(reg.get_counter("ens.member_steps").value(), 22u);
  EXPECT_EQ(reg.get_counter("ens.jobs_done").value(), 5u);

  // Every ens.job.done instant carries the owning tenant's track and
  // one of its job ids; ens.tenant.steps counters only name
  // registered tenants.
  const std::set<job_id> alpha_set(alpha_ids.begin(), alpha_ids.end());
  const std::set<job_id> beta_set(beta_ids.begin(), beta_ids.end());
  int done_events = 0;
  for (const obs::event& e : events) {
    if (e.dom != obs::domain::ens) continue;
    const std::string_view name(e.name);
    if (name == "ens.job.done") {
      ++done_events;
      if (e.track == alpha) {
        EXPECT_EQ(alpha_set.count(e.a), 1u) << "job " << e.a;
      } else if (e.track == beta) {
        EXPECT_EQ(beta_set.count(e.a), 1u) << "job " << e.a;
      } else {
        ADD_FAILURE() << "ens.job.done on unowned track " << e.track;
      }
    } else if (name == "ens.tenant.steps") {
      EXPECT_TRUE(e.track == alpha || e.track == beta)
          << "tenant counter on track " << e.track;
    }
  }
  EXPECT_EQ(done_events, 5);
}
