// Rollback recovery for the distributed shallow-water model
// (swm/resilience.hpp): buddy checkpoints, crash-tolerant agreement,
// and deterministic replay.
//
// The contract under test: a resilient run that loses ranks to the
// fault plane - by crash schedule, by exhausted retries under chaos
// probabilities, or by the NaN health sentinel - finishes with every
// rank's slab_state *bit-identical* to a fault-free oracle, including
// crashes landing mid-checkpoint-commit and mid-recovery-round. When
// recovery is impossible (a rank and its buddy die together, or no
// committed epoch survives), every rank raises comm_error with
// reason::unrecoverable instead of hanging. And with no fault plane
// and no session, the plain step loop is untouched: bit- and
// allocation-identical to before the resilience layer existed.

// The replacement operator new/delete below route through malloc/free;
// GCC's heuristic cannot see that the pair matches and warns at every
// inlined delete site in this translation unit.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "mpisim/des.hpp"
#include "mpisim/faultplane.hpp"
#include "mpisim/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/distributed.hpp"
#include "swm/health.hpp"
#include "swm/model.hpp"
#include "swm/resilience.hpp"

using namespace tfx;
using namespace tfx::swm;

// ---------------------------------------------------------------------------
// Global allocation counter for the plain-path regression test.
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

swm_params small_params() {
  swm_params p;
  p.nx = 32;
  p.ny = 16;
  return p;
}

template <typename T>
state<T> initial_state(const swm_params& p) {
  model<T> m(p);
  m.seed_random_eddies(7, 0.5);
  return m.prognostic();
}

/// A crash event that never fires (no rank posts 2^40 sends): it
/// activates the fault plane's reliability protocol - which the
/// recovery wire format rides on - without injecting anything.
mpisim::crash_event never_fires() { return {0, std::uint64_t{1} << 40}; }

struct rank_result {
  std::vector<double> packed;  ///< pack_state() bytes at the end
  int steps = 0;
  recovery_report report;
};

/// Fault-free plain run (no session, no fault plane): the oracle.
std::vector<rank_result> oracle_run(const swm_params& params, int p,
                                    int steps) {
  const auto init = initial_state<double>(params);
  std::vector<rank_result> out(static_cast<std::size_t>(p));
  mpisim::world w(p);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    dm.run(steps);
    auto& mine = out[static_cast<std::size_t>(comm.rank())];
    mine.packed.resize(dm.packed_size());
    dm.pack_state(std::span<double>(mine.packed));
    mine.steps = dm.steps_taken();
  });
  return out;
}

/// A resilient run under the given fault schedule.
std::vector<rank_result> resilient_run(const swm_params& params, int p,
                                       int steps,
                                       const mpisim::fault_config& cfg,
                                       const resilience_options& opt) {
  const auto init = initial_state<double>(params);
  std::vector<rank_result> out(static_cast<std::size_t>(p));
  mpisim::world w(p);
  w.set_faults(cfg);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    auto& mine = out[static_cast<std::size_t>(comm.rank())];
    mine.report = run_resilient(comm, dm, steps, opt);
    mine.packed.resize(dm.packed_size());
    dm.pack_state(std::span<double>(mine.packed));
    mine.steps = dm.steps_taken();
  });
  return out;
}

void expect_bitwise_match(const std::vector<rank_result>& got,
                          const std::vector<rank_result>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].steps, want[r].steps) << "rank " << r;
    ASSERT_EQ(got[r].packed.size(), want[r].packed.size()) << "rank " << r;
    EXPECT_EQ(0, std::memcmp(got[r].packed.data(), want[r].packed.data(),
                             got[r].packed.size() * sizeof(double)))
        << "rank " << r << ": recovered state differs from the oracle";
  }
}

int total_rounds(const std::vector<rank_result>& rs) {
  int n = 0;
  for (const auto& r : rs) n = std::max(n, r.report.rounds);
  return n;
}

/// A resilient run with the fault plane active but silent: its reports'
/// commit_marks are where crashes get aimed.
std::vector<rank_result> silent_probe(const swm_params& params, int p,
                                      int steps,
                                      const resilience_options& opt) {
  mpisim::fault_config probe;
  probe.crashes.push_back(never_fires());
  return resilient_run(params, p, steps, probe, opt);
}

/// A crash of `rank` halfway through commit window `window` of the
/// probe run: the same window under any message schedule, as long as
/// the probe carries every crash that fires before this one.
mpisim::crash_event crash_mid_window(const std::vector<rank_result>& probe,
                                     int rank, std::size_t window) {
  return {rank, mid_window_send(
                    probe[static_cast<std::size_t>(rank)].report, window)};
}

/// The last full commit window of `rank` in `run`: the one its final
/// commit closes.
std::size_t last_window(const std::vector<rank_result>& run, int rank) {
  return run[static_cast<std::size_t>(rank)].report.commit_marks.size() - 2;
}

}  // namespace

// ---------------------------------------------------------------------------
// The recovery matrix: seeds x rank counts x crash schedules x
// checkpoint intervals, every cell bit-identical to the oracle.
// ---------------------------------------------------------------------------

// (ranks, checkpoint interval K, schedule id)
class RecoveryMatrix
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RecoveryMatrix, RecoversBitIdenticalToFaultFreeOracle) {
  const auto [p, k, schedule] = GetParam();
  const swm_params params = small_params();
  const int steps = 12;
  resilience_options opt;
  opt.checkpoint_interval = k;

  // Crashes are aimed at commit windows of a probe run (silent for a
  // first crash), so each schedule keeps its meaning whatever a step
  // sends.
  const auto probe = silent_probe(params, p, steps, opt);
  const std::size_t windows = probe[0].report.commit_marks.size() - 1;

  mpisim::fault_config cfg;
  cfg.seed = 40 + static_cast<std::uint64_t>(schedule);
  int promised_rounds = 1;
  // Schedule 1's second crash is aimed from a probe that carries the
  // first: the recovery round and the replay move every later send.
  std::vector<rank_result> after_first;
  switch (schedule) {
    case 0:  // one mid-run crash
      cfg.crashes.push_back(crash_mid_window(probe, 1, windows / 2));
      break;
    case 1: {  // two crashes, far enough apart for two separate rounds
      cfg.crashes.push_back(crash_mid_window(probe, 1, 0));
      after_first = resilient_run(params, p, steps, cfg, opt);
      cfg.crashes.push_back(
          crash_mid_window(after_first, 0, last_window(after_first, 0)));
      promised_rounds = 2;
      break;
    }
    case 2:  // a crash in a storm of recoverable chaos
      cfg.crashes.push_back(crash_mid_window(probe, 1, windows / 2));
      cfg.probs.drop = 0.02;
      cfg.probs.duplicate = 0.02;
      cfg.probs.corrupt = 0.02;
      cfg.retry.max_retries = 40;  // chaos must drain; only the
                                   // scheduled crash may kill
      break;
    case 3:  // crash in the first window: rollback to the initial state
      cfg.crashes.push_back(crash_mid_window(probe, 0, 0));
      break;
    default:
      FAIL();
  }

  const auto want = oracle_run(params, p, steps);
  const auto got = resilient_run(params, p, steps, cfg, opt);

  expect_bitwise_match(got, want);
  EXPECT_EQ(total_rounds(got), promised_rounds);
  for (const auto& r : got) {
    EXPECT_FALSE(r.report.casualties.empty());
    EXPECT_GT(r.report.replayed_steps + r.report.rounds, 0);
  }
  if (schedule == 1) {
    // Rank 0 died in the last window: it entered the commit that opens
    // the window at the probe's send count, and its next commit is the
    // recovery round's, after the crash.
    const auto& marks = got[0].report.commit_marks;
    const auto& aimed = after_first[0].report.commit_marks;
    const std::size_t w = last_window(after_first, 0);
    ASSERT_GT(marks.size(), w + 1);
    EXPECT_EQ(marks[w], aimed[w]);
    EXPECT_LT(marks[w], cfg.crashes[1].send_index);
    EXPECT_GT(marks[w + 1], cfg.crashes[1].send_index);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, RecoveryMatrix,
                         ::testing::Combine(::testing::Values(2, 4),
                                            ::testing::Values(2, 5),
                                            ::testing::Values(0, 1, 2, 3)));

INSTANTIATE_TEST_SUITE_P(EightRanks, RecoveryMatrix,
                         ::testing::Combine(::testing::Values(8),
                                            ::testing::Values(4),
                                            ::testing::Values(0, 1)));

// ---------------------------------------------------------------------------
// Surgical schedules: probe runs read the commit/recovery send marks
// out of the report, then aim a crash *inside* those windows.
// ---------------------------------------------------------------------------

TEST(Recovery, CrashDuringCheckpointCommit) {
  const swm_params params = small_params();
  const int p = 4, steps = 12;
  resilience_options opt;
  opt.checkpoint_interval = 4;

  // Probe: fault plane active but silent; read rank 1's send count at
  // the entry of its third commit (initial, step 4, step 8).
  const auto calib = silent_probe(params, p, steps, opt);
  ASSERT_GE(calib[1].report.commit_marks.size(), 3u);
  const std::uint64_t mark = calib[1].report.commit_marks[2];

  // Real run: rank 1 dies exactly on the commit's buddy-snapshot send,
  // leaving every survivor with a *prepared but uncommitted* epoch -
  // the two-phase-commit window this test exists for.
  mpisim::fault_config cfg;
  cfg.crashes.push_back({1, mark});
  const auto want = oracle_run(params, p, steps);
  const auto got = resilient_run(params, p, steps, cfg, opt);
  expect_bitwise_match(got, want);
  EXPECT_EQ(total_rounds(got), 1);
}

TEST(Recovery, CrashDuringRecoveryRound) {
  const swm_params params = small_params();
  const int p = 4, steps = 12;
  resilience_options opt;
  opt.checkpoint_interval = 4;

  // Probes: a silent run aims rank 1's crash at the window after the
  // step-8 commit; a run with that crash reads rank 3's send count at
  // recovery entry.
  const mpisim::crash_event first =
      crash_mid_window(silent_probe(params, p, steps, opt), 1, 2);
  mpisim::fault_config probe;
  probe.crashes.push_back(first);
  const auto calib = resilient_run(params, p, steps, probe, opt);
  const std::uint64_t entry = calib[3].report.recovery_entry_mark;
  ASSERT_GT(entry, 0u);

  // Real run: rank 3 dies on its first send *inside* the recovery
  // round (the survivor agreement). The round must abort and restart
  // with the casualty set {1, 3} - non-adjacent, so still recoverable.
  mpisim::fault_config cfg;
  cfg.crashes.push_back(first);
  cfg.crashes.push_back({3, entry});
  const auto want = oracle_run(params, p, steps);
  const auto got = resilient_run(params, p, steps, cfg, opt);
  expect_bitwise_match(got, want);
  EXPECT_EQ(total_rounds(got), 1);
  int aborted = 0;
  for (const auto& r : got) aborted = std::max(aborted, r.report.aborted_rounds);
  EXPECT_GE(aborted, 1);
  // Both deaths are on the record.
  for (const auto& r : got) {
    EXPECT_NE(std::find(r.report.casualties.begin(),
                        r.report.casualties.end(), 1),
              r.report.casualties.end());
    EXPECT_NE(std::find(r.report.casualties.begin(),
                        r.report.casualties.end(), 3),
              r.report.casualties.end());
  }
}

// A survivor can see the next crash notice before the casualty calls
// report_death. The round it then begins must not pass barrier 0 on
// the counts the previous round left in the phase slots: it has to wait
// until the report aborts it.
TEST(RecoveryBoard, NextRoundWaitsForTheCasualtysReport) {
  mpisim::recovery_board board;
  board.reset(2);
  board.report_death(1);
  auto run_round = [&board] {
    const auto round = board.begin_round();
    EXPECT_TRUE(board.arrive(0, round.generation));
    EXPECT_TRUE(board.arrive(1, round.generation));
    EXPECT_TRUE(board.complete_round(round.generation));
  };
  std::thread peer(run_round);
  run_round();
  peer.join();

  const auto next = board.begin_round();
  EXPECT_TRUE(next.dead.empty());
  std::atomic<bool> reported{false};
  std::thread reporter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    reported.store(true);
    board.report_death(1);
  });
  EXPECT_FALSE(board.arrive(0, next.generation));
  EXPECT_TRUE(reported.load()) << "barrier 0 returned before the report";
  reporter.join();
  const auto retry = board.begin_round();
  EXPECT_EQ(retry.dead, std::vector<int>{1});
}

TEST(Recovery, BuddyPairDeathIsUnrecoverableNotAHang) {
  const swm_params params = small_params();
  const int p = 2, steps = 12;
  resilience_options opt;
  opt.checkpoint_interval = 4;

  // Probes: a silent run aims rank 0's crash mid-run; a run with that
  // crash alone reads rank 1's recovery-entry mark.
  const mpisim::crash_event first =
      crash_mid_window(silent_probe(params, p, steps, opt), 0, 1);
  mpisim::fault_config probe;
  probe.crashes.push_back(first);
  const auto calib = resilient_run(params, p, steps, probe, opt);
  const std::uint64_t entry = calib[1].report.recovery_entry_mark;
  ASSERT_GT(entry, 0u);

  // Real run: rank 1 dies inside the round. At p=2 the two ranks are
  // each other's buddies, so both replicas are gone - every rank must
  // raise reason::unrecoverable, loudly and promptly.
  mpisim::fault_config cfg;
  cfg.crashes.push_back(first);
  cfg.crashes.push_back({1, entry});
  const auto init = initial_state<double>(params);
  mpisim::world w(p);
  w.set_faults(cfg);
  try {
    w.run([&](mpisim::communicator& comm) {
      distributed_model<double> dm(comm, params);
      dm.set_from_global(init);
      run_resilient(comm, dm, steps, opt);
    });
    FAIL() << "expected comm_error(unrecoverable), got a completed run";
  } catch (const mpisim::comm_error& e) {
    EXPECT_EQ(e.why(), mpisim::comm_error::reason::unrecoverable) << e.what();
  }
}

// ---------------------------------------------------------------------------
// The health sentinel: NaN corruption is a crash like any other.
// ---------------------------------------------------------------------------

TEST(Recovery, HealthSentinelTreatedLikeACrash) {
  const swm_params params = small_params();
  const int p = 4, steps = 12;

  resilience_options opt;
  opt.checkpoint_interval = 4;
  opt.health_interval = 2;
  opt.inject = {6, 2};  // NaN lands on rank 2 right after step 6

  mpisim::fault_config cfg;
  cfg.crashes.push_back(never_fires());

  const auto want = oracle_run(params, p, steps);
  const auto got = resilient_run(params, p, steps, cfg, opt);
  expect_bitwise_match(got, want);
  EXPECT_EQ(total_rounds(got), 1);
  for (const auto& r : got) {
    EXPECT_NE(std::find(r.report.casualties.begin(),
                        r.report.casualties.end(), 2),
              r.report.casualties.end())
        << "the sentinel hit on rank 2 must be reported as a death";
  }
}

TEST(Recovery, SingleRankHealsLocally) {
  // p=1 has no buddy and needs none: the sentinel hit rolls the model
  // back to its own committed snapshot and replays.
  const swm_params params = small_params();
  const int steps = 10;
  resilience_options opt;
  opt.checkpoint_interval = 2;
  opt.health_interval = 1;
  opt.inject = {5, 0};

  const auto want = oracle_run(params, 1, steps);
  const auto got =
      resilient_run(params, 1, steps, mpisim::fault_config{}, opt);
  expect_bitwise_match(got, want);
  EXPECT_EQ(got[0].report.rounds, 0);
  EXPECT_TRUE(got[0].report.casualties.empty());
  EXPECT_EQ(got[0].report.replayed_steps, 1);  // died at 5, back to 4
}

TEST(HealthSentinel, SerialModelRaisesTypedError) {
  const swm_params params = small_params();
  model<double> m(params);
  m.seed_random_eddies(7, 0.5);
  m.run(4);
  m.prognostic().eta(3, 2) = std::numeric_limits<double>::quiet_NaN();
  m.set_health_interval(1);
  try {
    m.step();
    FAIL() << "expected numerical_error";
  } catch (const numerical_error& e) {
    EXPECT_STREQ(e.field(), "eta");
    EXPECT_EQ(e.step(), 5);
    EXPECT_EQ(e.rank(), -1);
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The no-fault path: reports stay clean, and the plain step loop is
// untouched by the resilience layer's existence.
// ---------------------------------------------------------------------------

TEST(Recovery, CleanRunReportsNoRecovery) {
  const swm_params params = small_params();
  const int p = 4, steps = 12;
  resilience_options opt;
  opt.checkpoint_interval = 5;

  mpisim::fault_config cfg;
  cfg.crashes.push_back(never_fires());

  const auto want = oracle_run(params, p, steps);
  const auto got = resilient_run(params, p, steps, cfg, opt);
  expect_bitwise_match(got, want);
  for (const auto& r : got) {
    EXPECT_EQ(r.report.rounds, 0);
    EXPECT_EQ(r.report.aborted_rounds, 0);
    EXPECT_EQ(r.report.replayed_steps, 0);
    EXPECT_TRUE(r.report.casualties.empty());
    EXPECT_EQ(r.report.commits, 3u);  // initial + steps 5 and 10
    EXPECT_EQ(r.report.final_epoch, 3u);
    EXPECT_EQ(r.report.recovery_entry_mark, 0u);
  }
}

TEST(Recovery, PlainStepLoopStaysAllocationIdentical) {
  // No fault plane, no session: the step loop must behave exactly as
  // it did before the resilience layer - same bits (checked against
  // the oracle) and the same allocation count run over run, whether or
  // not the (disabled) health sentinel interval is touched.
  const swm_params params = small_params();
  const int steps = 6;
  const auto init = initial_state<double>(params);

  // One rank keeps the measurement deterministic: with several rank
  // threads the mailbox deques grow with the scheduling interleaving
  // and the totals jitter. The step-loop code under test is the same.
  auto measure = [&](bool touch_sentinel) {
    mpisim::world w(1);
    const std::uint64_t before = g_allocs.load();
    w.run([&](mpisim::communicator& comm) {
      distributed_model<double> dm(comm, params);
      dm.set_from_global(init);
      if (touch_sentinel) dm.set_health_interval(0);
      dm.run(steps);
    });
    return g_allocs.load() - before;
  };

  const std::uint64_t warm = measure(false);   // warm both code paths
  const std::uint64_t plain = measure(false);
  const std::uint64_t touched = measure(true);
  (void)warm;
  EXPECT_EQ(plain, touched);
}

// ---------------------------------------------------------------------------
// Observability cross-check: a traced recovery run records exactly the
// injected crash, the recovery-round generations, and the replayed
// steps - and tracing does not perturb the recovered trajectory.
// ---------------------------------------------------------------------------

TEST(Recovery, TraceRecordsCrashRoundsAndReplay) {
  if (!obs::compiled) GTEST_SKIP() << "TFX_OBS=OFF";
  const swm_params params = small_params();
  const int p = 4, steps = 12;

  resilience_options opt;
  opt.checkpoint_interval = 4;
  mpisim::fault_config cfg;
  cfg.seed = 40;  // one mid-run crash on rank 1
  cfg.crashes.push_back(
      crash_mid_window(silent_probe(params, p, steps, opt), 1, 1));

  const auto want = oracle_run(params, p, steps);
  tfx::obs::metrics_registry::instance().clear();
  tfx::obs::start();
  const auto got = resilient_run(params, p, steps, cfg, opt);
  tfx::obs::stop();
  const auto events = tfx::obs::collect();
  EXPECT_EQ(tfx::obs::dropped(), 0u);

  // Tracing is an observer: the recovered state still matches the
  // fault-free oracle bit for bit.
  expect_bitwise_match(got, want);

  // Exactly the injected crash: one self-implicated net.casualty on
  // rank 1 (a = dying rank = track, b = a for a scheduled crash), and
  // no self-implicated casualty anywhere else.
  int scheduled = 0;
  for (const auto& e : events) {
    if (e.dom != tfx::obs::domain::net) continue;
    if (std::strcmp(e.name, "net.casualty") != 0) continue;
    if (e.a == e.b) {
      EXPECT_EQ(e.track, 1u) << "self-implicated casualty on a rank the "
                                "schedule never crashed";
      ++scheduled;
    }
  }
  EXPECT_EQ(scheduled, 1) << "the scheduled crash must appear exactly once";

  // Recovery rounds: every rank logged round:begin with nondecreasing
  // generations, and at least one round completed (round:done).
  std::vector<std::uint64_t> last_gen(static_cast<std::size_t>(p), 0);
  int begins = 0, dones = 0;
  for (const auto& e : events) {
    if (e.dom != tfx::obs::domain::resil) continue;
    if (std::strcmp(e.name, "round:begin") == 0) {
      const auto r = static_cast<std::size_t>(e.track);
      EXPECT_GE(e.a, last_gen[r]) << "generation went backwards on rank "
                                  << e.track;
      last_gen[r] = e.a;
      ++begins;
    } else if (std::strcmp(e.name, "round:done") == 0) {
      ++dones;
    }
  }
  EXPECT_GE(begins, p) << "every rank must enter the recovery round";
  EXPECT_GE(dones, p) << "every rank must complete the recovery round";

  // Replayed steps: the rollback events' replay counts (payload b)
  // sum to exactly what each rank's report claims it re-executed.
  for (int r = 0; r < p; ++r) {
    std::uint64_t replayed = 0;
    std::size_t commit_spans = 0;
    for (const auto& e : events) {
      if (e.track != static_cast<std::uint16_t>(r)) continue;
      if (e.dom == tfx::obs::domain::resil &&
          std::strcmp(e.name, "rollback") == 0) {
        replayed += e.b;
      }
      if (e.dom == tfx::obs::domain::resil &&
          e.what == tfx::obs::kind::begin &&
          std::strcmp(e.name, "ckpt.commit") == 0) {
        ++commit_spans;
      }
    }
    const auto& report = got[static_cast<std::size_t>(r)].report;
    EXPECT_EQ(replayed, static_cast<std::uint64_t>(report.replayed_steps))
        << "rank " << r;
    EXPECT_GE(commit_spans, report.commits) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// DES cross-pin: the checkpoint commit's virtual clocks match the
// discrete-event model of the same message pattern, rank for rank.
// ---------------------------------------------------------------------------

class CheckpointDes : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointDes, CommitClocksMatchEventModel) {
  const int p = GetParam();
  const swm_params params = small_params();
  const auto init = initial_state<double>(params);

  std::size_t bytes = 0;
  mpisim::world w(p);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    resilient_session<double> session(comm, dm, resilience_options{});
    if (comm.rank() == 0) bytes = session.message_bytes();
    session.checkpoint_commit();
  });

  const auto prog = make_checkpoint_program(w.net(), p, bytes);
  const auto des = mpisim::simulate(prog, w.net(), w.placement());
  ASSERT_EQ(des.clocks.size(), w.final_clocks().size());
  for (int r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(w.final_clocks()[static_cast<std::size_t>(r)],
                     des.clocks[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CheckpointDes,
                         ::testing::Values(1, 2, 4, 8));
