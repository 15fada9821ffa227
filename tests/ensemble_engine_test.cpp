// Determinism suite of the ensemble scenario engine (docs/ENSEMBLE.md):
// every member's trajectory through the engine must be BIT-identical —
// including the Kahan compensation residuals — to the same
// member_config run standalone through swm::model, at every pool size,
// submission order and batching mode. Members share no mutable state
// and the batched RK4 apply performs the same per-element chains as
// the per-member apply, so scheduling must never show up in the bits.
// Also pins the control plane: cancellation keeps an oracle-exact
// trajectory prefix, and admission control rejects with typed errors
// (queue_full / backlog_exceeded / invalid_config) instead of
// blocking or throwing, deciding racing submits exactly as serial ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
#include <cstdint>
#include <latch>
#include <limits>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "ensemble/engine.hpp"
#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "obs/trace.hpp"
#include "swm/model.hpp"
#include "swm/perfmodel.hpp"

using namespace tfx;
using namespace tfx::ensemble;

namespace {

// ---------------------------------------------------------------------------
// The standalone oracle: the exact initialization + stepping recipe
// the engine promises (job.hpp), run through the plain model API.
// ---------------------------------------------------------------------------

struct oracle_out {
  swm::state<double> prognostic;
  swm::state<double> compensation;
  std::vector<swm::state<double>> snapshots;
  int steps_done = 0;
  int failed_step = -1;
};

template <typename T, typename Tprog>
oracle_out run_oracle_as(const member_config& cfg,
                         swm::integration_scheme scheme) {
  swm::swm_params p;
  p.nx = cfg.nx;
  p.ny = cfg.ny;
  p.log2_scale = cfg.log2_scale;
  fp::ftz_guard guard(cfg.ftz);
  swm::model<T, Tprog> m(p, scheme);
  if (cfg.health_every > 0) m.set_health_interval(cfg.health_every);
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

  oracle_out out;
  out.prognostic = swm::state<double>(cfg.nx, cfg.ny);
  out.compensation = swm::state<double>(cfg.nx, cfg.ny);
  for (int s = 1; s <= cfg.steps; ++s) {
    try {
      m.step();
    } catch (const swm::numerical_error& err) {
      out.failed_step = err.step();
      break;
    }
    ++out.steps_done;
    if (cfg.record_every > 0 && s % cfg.record_every == 0) {
      out.snapshots.push_back(m.unscaled());
    }
  }
  swm::convert_state_into(out.prognostic, m.prognostic());
  swm::convert_state_into(out.compensation, m.compensation());
  return out;
}

oracle_out run_oracle(const member_config& cfg) {
  using swm::integration_scheme;
  switch (cfg.prec) {
    case personality::float64:
      return run_oracle_as<double, double>(cfg, integration_scheme::standard);
    case personality::float64_comp:
      return run_oracle_as<double, double>(cfg,
                                           integration_scheme::compensated);
    case personality::float32:
      return run_oracle_as<float, float>(cfg, integration_scheme::standard);
    case personality::float16:
      return run_oracle_as<fp::float16, fp::float16>(
          cfg, integration_scheme::compensated);
    case personality::float16_mixed:
      return run_oracle_as<fp::float16, float>(cfg,
                                               integration_scheme::standard);
    case personality::bfloat16:
      return run_oracle_as<fp::bfloat16, fp::bfloat16>(
          cfg, integration_scheme::compensated);
  }
  return {};
}

// Bit comparison (not operator==): distinguishes -0.0 from +0.0 and
// compares NaN payloads, which is what "bit-identical" means.
void expect_field_bits(std::span<const double> got, std::span<const double> want,
                       const char* field, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  int bad = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      if (bad == 0) first = i;
      ++bad;
    }
  }
  EXPECT_EQ(bad, 0) << what << "." << field << ": " << bad
                    << " elements differ, first at " << first << " ("
                    << got[first] << " vs " << want[first] << ")";
}

void expect_state_bits(const swm::state<double>& got,
                       const swm::state<double>& want, const char* what) {
  expect_field_bits(got.u.flat(), want.u.flat(), "u", what);
  expect_field_bits(got.v.flat(), want.v.flat(), "v", what);
  expect_field_bits(got.eta.flat(), want.eta.flat(), "eta", what);
}

// A mixed-precision suite: two members of every personality (one
// perturbed), plus an FTZ-flush Float16 pair that must land in its own
// batch group.
std::vector<member_config> mixed_suite() {
  std::vector<member_config> suite;
  for (const personality p : all_personalities) {
    member_config a;
    a.prec = p;
    a.nx = 16;
    a.ny = 8;
    a.steps = 8;
    a.seed = 7;
    suite.push_back(a);

    member_config b = a;
    b.nx = 12;
    b.ny = 6;
    b.steps = 5;
    b.seed = 11;
    b.perturb_seed = 1009;
    b.perturb_amplitude = 1e-2;
    suite.push_back(b);
  }
  member_config f;
  f.prec = personality::float16;
  f.nx = 16;
  f.ny = 8;
  f.steps = 6;
  f.log2_scale = 10;
  f.ftz = fp::ftz_mode::flush;
  suite.push_back(f);
  f.perturb_seed = 4242;
  f.perturb_amplitude = 1e-2;
  suite.push_back(f);
  return suite;
}

/// RAII tracing session: stopped on every exit from the test.
struct trace_session {
  trace_session() { obs::start(); }
  ~trace_session() { obs::stop(); }
  trace_session(const trace_session&) = delete;
  trace_session& operator=(const trace_session&) = delete;
};

void check_suite_against_oracle(engine& eng,
                                const std::vector<member_config>& suite,
                                const std::vector<job_id>& ids) {
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const member_config& cfg = suite[i];
    SCOPED_TRACE(::testing::Message()
                 << "member " << i << " " << personality_name(cfg.prec) << " "
                 << cfg.nx << "x" << cfg.ny << " steps=" << cfg.steps);
    const auto status = eng.poll(ids[i]);
    ASSERT_TRUE(status.has_value());
    ASSERT_EQ(status->state, job_state::done);
    EXPECT_EQ(status->steps_done, cfg.steps);
    const job_result* got = eng.result(ids[i]);
    ASSERT_NE(got, nullptr);
    const oracle_out want = run_oracle(cfg);
    EXPECT_EQ(got->steps_done, want.steps_done);
    expect_state_bits(got->prognostic, want.prognostic, "prognostic");
    expect_state_bits(got->compensation, want.compensation, "compensation");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Determinism: pool sizes x submission orders x tiling. "batched" runs
// the L2-priced tiles; "oneatatime" claims one member at a time (tile 1,
// stride 1: bench/ablation_ensemble's baseline schedule), so each
// batched apply covers a single member's fields. Every combination must
// reproduce the oracle bits for every member.
// ---------------------------------------------------------------------------

class EnsembleDeterminism
    : public ::testing::TestWithParam<std::tuple<int, unsigned, bool>> {};

TEST_P(EnsembleDeterminism, MembersMatchStandaloneOracleBitwise) {
  const auto [threads, order_seed, batched] = GetParam();

  std::vector<member_config> suite = mixed_suite();
  std::mt19937 order(order_seed);
  std::shuffle(suite.begin(), suite.end(), order);

  engine_options opts;
  opts.threads = threads;
  opts.async = false;
  if (!batched) {
    opts.tile_members = 1;
    opts.stride = 1;
  }
  engine eng(opts);

  std::vector<job_id> ids;
  for (const member_config& cfg : suite) {
    const submit_ticket t = eng.submit(cfg);
    ASSERT_TRUE(t.ok()) << submit_error_name(t.error);
    ids.push_back(t.id);
  }
  eng.wait_all();
  EXPECT_EQ(eng.active_members(), 0u);
  EXPECT_EQ(eng.backlog_seconds(), 0.0);
  check_suite_against_oracle(eng, suite, ids);
}

INSTANTIATE_TEST_SUITE_P(
    PoolsOrdersBatching, EnsembleDeterminism,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(true, false)),
    [](const auto& tp) {
      return "pool" + std::to_string(std::get<0>(tp.param)) + "_order" +
             std::to_string(std::get<1>(tp.param)) +
             (std::get<2>(tp.param) ? "_batched" : "_oneatatime");
    });

// Forced tiny tiles exercise the ragged tile split (members not
// divisible by the tile) without changing any bits.
TEST(EnsembleEngine, TinyTilesMatchOracle) {
  std::vector<member_config> suite = mixed_suite();
  engine_options opts;
  opts.threads = 2;
  opts.async = false;
  opts.tile_members = 3;  // 14 members -> tiles of 3,3,3,3,2 per group mix
  opts.stride = 2;
  engine eng(opts);
  std::vector<job_id> ids;
  for (const member_config& cfg : suite) {
    const submit_ticket t = eng.submit(cfg);
    ASSERT_TRUE(t.ok());
    ids.push_back(t.id);
  }
  eng.wait_all();
  check_suite_against_oracle(eng, suite, ids);
}

// A group smaller than its priced tile is cut into one claim per
// worker rather than stepping on one worker while the other idles:
// four Float16 members on two threads make two claims of two.
TEST(EnsembleEngine, SmallGroupSpreadsOverEveryWorker) {
  if (!obs::compiled) GTEST_SKIP() << "obs compiled out";
  std::vector<member_config> suite;
  for (int i = 0; i < 4; ++i) {
    member_config cfg;
    cfg.prec = personality::float16;
    cfg.nx = 32;
    cfg.ny = 16;
    cfg.steps = 3;
    cfg.log2_scale = 8;
    cfg.seed = 40 + static_cast<std::uint64_t>(i);
    suite.push_back(cfg);
  }

  const trace_session session;
  engine_options opts;
  opts.threads = 2;
  opts.async = false;
  engine eng(opts);
  ASSERT_GT(eng.tile_members_for(suite.front()), suite.size());
  std::vector<job_id> ids;
  for (const member_config& cfg : suite) {
    const submit_ticket t = eng.submit(cfg);
    ASSERT_TRUE(t.ok());
    ids.push_back(t.id);
  }
  eng.wait_all();
  const std::vector<obs::event> events = obs::collect();

  const auto first_round =
      std::find_if(events.begin(), events.end(), [](const obs::event& e) {
        return e.what == obs::kind::begin &&
               std::string_view(e.name) == "ens.round";
      });
  ASSERT_NE(first_round, events.end());
  EXPECT_EQ(first_round->a, 2u) << "claims in the first round";
  check_suite_against_oracle(eng, suite, ids);
}

// The async scheduler thread must produce the same bits as manual
// drive() — scheduling is invisible in the results.
TEST(EnsembleEngine, AsyncSchedulerMatchesOracle) {
  std::vector<member_config> suite = mixed_suite();
  engine_options opts;
  opts.threads = 4;
  opts.async = true;
  engine eng(opts);
  std::vector<job_id> ids;
  for (const member_config& cfg : suite) {
    const submit_ticket t = eng.submit(cfg);
    ASSERT_TRUE(t.ok());
    ids.push_back(t.id);
  }
  eng.wait(ids.front());
  {
    const auto st = eng.poll(ids.front());
    ASSERT_TRUE(st.has_value());
    EXPECT_TRUE(st->state == job_state::done);
  }
  eng.wait_all();
  check_suite_against_oracle(eng, suite, ids);
}

// Snapshots recorded mid-flight must be the exact model::unscaled()
// images the standalone run produces at the same steps.
TEST(EnsembleEngine, RecordedSnapshotsMatchOracleBitwise) {
  engine_options opts;
  opts.threads = 2;
  opts.async = false;
  engine eng(opts);

  std::vector<member_config> suite;
  for (const personality p : all_personalities) {
    member_config cfg;
    cfg.prec = p;
    cfg.nx = 16;
    cfg.ny = 8;
    cfg.steps = 9;
    cfg.record_every = 3;
    if (p == personality::float16) cfg.log2_scale = 8;
    suite.push_back(cfg);
  }
  std::vector<job_id> ids;
  for (const member_config& cfg : suite) {
    const submit_ticket t = eng.submit(cfg);
    ASSERT_TRUE(t.ok());
    ids.push_back(t.id);
  }
  eng.wait_all();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    SCOPED_TRACE(personality_name(suite[i].prec));
    const job_result* got = eng.result(ids[i]);
    ASSERT_NE(got, nullptr);
    const oracle_out want = run_oracle(suite[i]);
    ASSERT_EQ(got->snapshots.size(), 3u);
    ASSERT_EQ(want.snapshots.size(), 3u);
    for (std::size_t s = 0; s < 3; ++s) {
      expect_state_bits(got->snapshots[s], want.snapshots[s], "snapshot");
    }
  }
}

// Restart members (initial state + step offset) follow the same
// oracle: snapshotting one engine's result into another member
// continues bit-exactly.
TEST(EnsembleEngine, RestartFromInitialStateMatchesOracle) {
  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  engine eng(opts);

  member_config full;
  full.prec = personality::float64_comp;
  full.nx = 16;
  full.ny = 8;
  full.steps = 10;
  const submit_ticket t_full = eng.submit(full);
  ASSERT_TRUE(t_full.ok());
  eng.wait_all();
  const oracle_out want = run_oracle(full);

  // Re-run the last 4 steps from the oracle's step-6 state.
  member_config head = full;
  head.steps = 6;
  const oracle_out at6 = run_oracle(head);

  member_config tail = full;
  tail.steps = 4;
  tail.initial = &at6.prognostic;
  tail.initial_steps = 6;
  const submit_ticket t_tail = eng.submit(tail);
  ASSERT_TRUE(t_tail.ok());
  eng.wait_all();

  const job_result* got = eng.result(t_tail.id);
  ASSERT_NE(got, nullptr);
  // float64_comp restart via restore(state) resets compensation to
  // zero, so only the plain trajectory continues exactly when the
  // compensation was zero at the cut; compare against an oracle that
  // restarts the same way rather than the uncut run.
  member_config tail_oracle = tail;
  tail_oracle.initial = &at6.prognostic;
  const oracle_out want_tail = run_oracle(tail_oracle);
  expect_state_bits(got->prognostic, want_tail.prognostic, "prognostic");
  expect_state_bits(got->compensation, want_tail.compensation, "compensation");
  (void)want;
}

// ---------------------------------------------------------------------------
// Control plane: cancellation, typed admission errors, failure.
// ---------------------------------------------------------------------------

TEST(EnsembleControl, CancelKeepsOracleExactPrefix) {
  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  opts.stride = 1;  // one member step per round: precise cut points
  engine eng(opts);

  member_config cfg;
  cfg.prec = personality::float32;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.steps = 50;
  const submit_ticket t = eng.submit(cfg);
  ASSERT_TRUE(t.ok());

  ASSERT_EQ(eng.drive(3), 3);  // 3 rounds x stride 1 = 3 member steps
  {
    const auto st = eng.poll(t.id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->steps_done, 3);
  }
  EXPECT_EQ(eng.cancel(t.id), cancel_result::requested);
  eng.wait_all();

  const auto st = eng.poll(t.id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, job_state::cancelled);
  EXPECT_EQ(st->steps_done, 3);

  // The cancelled trajectory prefix is the oracle's step-3 state.
  const job_result* got = eng.result(t.id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->steps_done, 3);
  member_config prefix = cfg;
  prefix.steps = 3;
  const oracle_out want = run_oracle(prefix);
  expect_state_bits(got->prognostic, want.prognostic, "prognostic");

  EXPECT_EQ(eng.cancel(t.id), cancel_result::already_cancelled);
  EXPECT_EQ(eng.cancel(job_id{999999}), cancel_result::unknown_job);
}

TEST(EnsembleControl, CancelFinishedJobReportsAlreadyDone) {
  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  engine eng(opts);
  member_config cfg;
  cfg.steps = 2;
  const submit_ticket t = eng.submit(cfg);
  ASSERT_TRUE(t.ok());
  eng.wait_all();
  EXPECT_EQ(eng.cancel(t.id), cancel_result::already_done);
}

TEST(EnsembleControl, QueueFullIsTypedAndRecovers) {
  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  opts.max_members = 2;
  engine eng(opts);

  member_config cfg;
  cfg.steps = 2;
  ASSERT_TRUE(eng.submit(cfg).ok());
  ASSERT_TRUE(eng.submit(cfg).ok());
  const submit_ticket rejected = eng.submit(cfg);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error, submit_error::queue_full);
  EXPECT_EQ(rejected.id, invalid_job);

  eng.wait_all();  // capacity frees when members finish
  EXPECT_TRUE(eng.submit(cfg).ok());
  eng.wait_all();
}

TEST(EnsembleControl, BacklogBoundIsTypedAndPricedByPerfmodel) {
  member_config cfg;
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.steps = 100;
  const double cost = swm::predict_time(arch::fugaku_node, cfg.nx, cfg.ny,
                                        precision_of(cfg.prec), cfg.steps);
  ASSERT_GT(cost, 0.0);

  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  opts.max_backlog_seconds = 1.5 * cost;  // room for one job, not two
  engine eng(opts);

  const submit_ticket first = eng.submit(cfg);
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(eng.backlog_seconds(), cost);
  const submit_ticket second = eng.submit(cfg);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.error, submit_error::backlog_exceeded);

  eng.wait_all();
  EXPECT_EQ(eng.backlog_seconds(), 0.0);
  EXPECT_TRUE(eng.submit(cfg).ok());
  eng.wait_all();

  const job_result* r = eng.result(first.id);
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->modeled_seconds, cost);
}

TEST(EnsembleControl, InvalidConfigsAreTyped) {
  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  engine eng(opts);

  member_config bad;
  bad.nx = 0;
  EXPECT_EQ(eng.submit(bad).error, submit_error::invalid_config);
  bad = member_config{};
  bad.steps = 0;
  EXPECT_EQ(eng.submit(bad).error, submit_error::invalid_config);
  bad = member_config{};
  bad.record_every = -1;
  EXPECT_EQ(eng.submit(bad).error, submit_error::invalid_config);

  const swm::state<double> wrong_shape(8, 4);
  bad = member_config{};
  bad.nx = 16;
  bad.ny = 8;
  bad.initial = &wrong_shape;
  EXPECT_EQ(eng.submit(bad).error, submit_error::invalid_config);

  // Non-finite amplitudes would run to an all-NaN "done" result.
  for (const double a : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    bad = member_config{};
    bad.velocity_amplitude = a;
    EXPECT_EQ(eng.submit(bad).error, submit_error::invalid_config) << a;
    bad = member_config{};
    bad.perturb_seed = 3;
    bad.perturb_amplitude = a;
    EXPECT_EQ(eng.submit(bad).error, submit_error::invalid_config) << a;
  }
  // So would a scale whose 2^k or 2^-k is not a normal double.
  for (const int k : {1023, -1023, 4000, -4000, INT_MAX, INT_MIN}) {
    bad = member_config{};
    bad.log2_scale = k;
    EXPECT_EQ(eng.submit(bad).error, submit_error::invalid_config) << k;
  }

  // Unregistered tenant.
  member_config ok;
  ok.steps = 1;
  EXPECT_EQ(eng.submit(ok, tenant_id{7}).error, submit_error::invalid_config);

  // Nothing above was admitted; the widest scales both ways are.
  EXPECT_EQ(eng.active_members(), 0u);
  EXPECT_EQ(eng.backlog_seconds(), 0.0);
  for (const int k : {1022, -1022}) {
    ok.log2_scale = k;
    EXPECT_TRUE(eng.submit(ok).ok()) << k;
  }
}

namespace {

/// Four threads race eight submits each into a manual engine, where
/// nothing steps, so the admission bound alone decides: exactly 16 of
/// the 32 are admitted and the rest get `rejected_as`.
void race_admission(const engine_options& opts, submit_error rejected_as) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  member_config cfg;
  cfg.steps = 2;
  const double cost = swm::predict_time(arch::fugaku_node, cfg.nx, cfg.ny,
                                        precision_of(cfg.prec), cfg.steps);
  engine eng(opts);
  std::vector<submit_ticket> tickets(kThreads * kPerThread);
  std::latch start(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int k = 0; k < kPerThread; ++k) {
        tickets[static_cast<std::size_t>(t * kPerThread + k)] =
            eng.submit(cfg);
      }
    });
  }
  for (auto& th : submitters) th.join();

  std::vector<job_id> ids;
  int rejected = 0;
  for (const submit_ticket& t : tickets) {
    if (t.ok()) {
      ids.push_back(t.id);
    } else {
      EXPECT_EQ(t.error, rejected_as) << submit_error_name(t.error);
      EXPECT_EQ(t.id, invalid_job);
      ++rejected;
    }
  }
  EXPECT_EQ(ids.size(), 16u);
  EXPECT_EQ(rejected, 16);
  // Unique and dense: the admitted ids are exactly 1..16.
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i + 1);
  EXPECT_EQ(eng.active_members(), 16u);
  EXPECT_DOUBLE_EQ(eng.backlog_seconds(), 16 * cost);
}

}  // namespace

TEST(EnsembleControl, ConcurrentSubmitsFillCapacityExactly) {
  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  opts.max_members = 16;
  race_admission(opts, submit_error::queue_full);
}

TEST(EnsembleControl, ConcurrentSubmitsFillBacklogExactly) {
  member_config cfg;
  cfg.steps = 2;
  const double cost = swm::predict_time(arch::fugaku_node, cfg.nx, cfg.ny,
                                        precision_of(cfg.prec), cfg.steps);
  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  opts.max_backlog_seconds = 16.5 * cost;  // room for 16 jobs, not 17
  race_admission(opts, submit_error::backlog_exceeded);
}

// Four submitters, the live scheduler and a poller all at once: the
// scheduler steps members while others are still being built, and
// every member still matches its standalone oracle bit for bit.
TEST(EnsembleControl, ConcurrentSubmitsWithLiveSchedulerMatchOracle) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  constexpr int kMembers = kThreads * kPerThread;
  std::vector<member_config> suite;
  for (int i = 0; i < kMembers; ++i) {
    member_config cfg;
    cfg.prec = all_personalities[static_cast<std::size_t>(i) % 6];
    cfg.nx = i % 2 == 0 ? 16 : 12;
    cfg.ny = cfg.nx / 2;
    cfg.steps = 3 + i % 3;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    if (cfg.prec == personality::float16) cfg.log2_scale = 8;
    suite.push_back(cfg);
  }

  engine_options opts;
  opts.threads = 2;
  opts.async = true;
  engine eng(opts);
  std::vector<std::atomic<job_id>> ids(kMembers);
  std::atomic<int> submitted{0};
  std::latch start(kThreads + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int k = 0; k < kPerThread; ++k) {
        const auto i = static_cast<std::size_t>(t * kPerThread + k);
        const submit_ticket ticket = eng.submit(suite[i]);
        EXPECT_TRUE(ticket.ok()) << submit_error_name(ticket.error);
        ids[i].store(ticket.id, std::memory_order_relaxed);
        submitted.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // The poller sweeps every admitted job until all are terminal.
  threads.emplace_back([&] {
    start.arrive_and_wait();
    for (;;) {
      const bool all_in =
          submitted.load(std::memory_order_acquire) == kMembers;
      bool open = false;
      for (const auto& id : ids) {
        const job_id j = id.load(std::memory_order_relaxed);
        if (j == invalid_job) continue;
        const auto st = eng.poll(j);
        open = open || !st ||
               !(st->state == job_state::done ||
                 st->state == job_state::cancelled ||
                 st->state == job_state::failed);
      }
      if (all_in && !open) return;
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  eng.wait_all();
  EXPECT_EQ(eng.active_members(), 0u);
  EXPECT_EQ(eng.backlog_seconds(), 0.0);
  std::vector<job_id> got;
  for (const auto& id : ids) got.push_back(id.load());
  check_suite_against_oracle(eng, suite, got);
}

TEST(EnsembleControl, HealthSentinelFailureIsTerminalAndTyped) {
  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  engine eng(opts);

  // A non-finite initial state trips the model's health sentinel on
  // the first checked step.
  swm::state<double> blowup(16, 8);
  for (auto& v : blowup.u.flat()) v = 1e300;  // -> inf in Float16
  member_config cfg;
  cfg.prec = personality::float16;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.steps = 5;
  cfg.health_every = 1;
  cfg.initial = &blowup;

  const submit_ticket t = eng.submit(cfg);
  ASSERT_TRUE(t.ok());
  eng.wait_all();

  const auto st = eng.poll(t.id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, job_state::failed);
  EXPECT_EQ(st->failed_step, 1);
  const job_result* r = eng.result(t.id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->steps_done, 1);

  // The oracle fails at the same step.
  const oracle_out want = run_oracle(cfg);
  EXPECT_EQ(want.failed_step, 1);

  // A failed job alongside healthy ones doesn't poison the round.
  member_config healthy;
  healthy.steps = 3;
  const submit_ticket h = eng.submit(healthy);
  ASSERT_TRUE(h.ok());
  eng.wait_all();
  const auto hs = eng.poll(h.id);
  ASSERT_TRUE(hs.has_value());
  EXPECT_EQ(hs->state, job_state::done);
}

TEST(EnsembleControl, PollAndResultLifecycle) {
  engine_options opts;
  opts.threads = 1;
  opts.async = false;
  engine eng(opts);

  EXPECT_FALSE(eng.poll(job_id{1}).has_value());
  EXPECT_EQ(eng.result(job_id{1}), nullptr);

  member_config cfg;
  cfg.steps = 2;
  const submit_ticket t = eng.submit(cfg);
  ASSERT_TRUE(t.ok());
  {
    const auto st = eng.poll(t.id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, job_state::queued);
    EXPECT_EQ(st->steps_done, 0);
  }
  EXPECT_EQ(eng.result(t.id), nullptr);  // not terminal yet

  eng.wait(t.id);
  const auto st = eng.poll(t.id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, job_state::done);
  EXPECT_NE(eng.result(t.id), nullptr);
}

TEST(EnsembleControl, TileSizingIsPricedOrOverridden) {
  member_config cfg;
  cfg.nx = 16;
  cfg.ny = 8;
  {
    engine_options opts;
    opts.threads = 1;
    opts.async = false;
    engine eng(opts);
    EXPECT_GE(eng.tile_members_for(cfg), 1u);
  }
  {
    engine_options opts;
    opts.threads = 1;
    opts.async = false;
    opts.tile_members = 5;
    engine eng(opts);
    EXPECT_EQ(eng.tile_members_for(cfg), 5u);
  }
}
