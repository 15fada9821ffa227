// The aggregated, overlapped halo engine (swm/halo.hpp): packed
// exchanges move the right rows, the distributed model reproduces the
// serial model bit-for-bit under chaos and through crash/rollback
// recovery (the clean standard, compensated, Float16 and uneven cases
// are swm_distributed_test's), the threaded virtual clocks pin against
// the DES twin, overlap hides compute in virtual time, the perfmodel's
// halo term matches the measured obs counters exactly, and the engine
// is allocation-free after warmup.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/des.hpp"
#include "mpisim/faultplane.hpp"
#include "mpisim/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/distributed.hpp"
#include "swm/halo.hpp"
#include "swm/model.hpp"
#include "swm/resilience.hpp"
#include "swm/tags.hpp"

using namespace tfx;
using namespace tfx::swm;

// -- global allocation counter for the warmup test --------------------
// Counting only: every operator still defers to malloc/free, so the
// rest of the binary is unaffected.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }

namespace {
// Out of line: inlined into a delete site, free() would take a pointer
// from operator new there, which -Wmismatched-new-delete reports.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

#define REQUIRE_OBS_COMPILED()                                          \
  if (!obs::compiled) {                                                 \
    GTEST_SKIP() << "observability plane compiled out (TFX_OBS=OFF)";   \
  }                                                                     \
  static_assert(true, "")

namespace {

swm_params small_params() {
  swm_params p;
  p.nx = 32;
  p.ny = 16;
  return p;
}

template <typename T>
state<T> serial_trajectory(const swm_params& p, int steps,
                           integration_scheme scheme) {
  model<T> m(p, scheme);
  m.seed_random_eddies(7, 0.5);
  m.run(steps);
  return m.prognostic();
}

template <typename T>
state<T> initial_state(const swm_params& p) {
  model<T> m(p);
  m.seed_random_eddies(7, 0.5);
  return m.prognostic();
}

template <typename T>
void expect_states_bitwise(const state<T>& got, const state<T>& want,
                           const std::string& label) {
  for (int j = 0; j < want.ny(); ++j) {
    for (int i = 0; i < want.nx(); ++i) {
      ASSERT_EQ(got.u(i, j), want.u(i, j)) << label << " u " << i << "," << j;
      ASSERT_EQ(got.v(i, j), want.v(i, j)) << label << " v " << i << "," << j;
      ASSERT_EQ(got.eta(i, j), want.eta(i, j))
          << label << " eta " << i << "," << j;
    }
  }
}

/// RAII tracing session (the obs_trace_test discipline).
struct obs_session {
  obs_session() {
    obs::metrics_registry::instance().clear();
    obs::start();
  }
  ~obs_session() { obs::stop(); }
  obs_session(const obs_session&) = delete;
  obs_session& operator=(const obs_session&) = delete;
};

std::uint64_t counter_value(std::string_view name) {
  return obs::metrics_registry::instance().get_counter(name).value();
}

}  // namespace

// ---------------------------------------------------------------------------
// Mechanics: the packed engine moves the right rows to the right halos.
// ---------------------------------------------------------------------------

namespace {

/// A 4 x 3 slab state whose field f (u, v, eta) holds 100*f + 10*rank
/// + row on its own rows and -1 on every halo row.
slab_state<double> labelled_state(int rank) {
  slab_state<double> st(4, 3);
  st.fill(-1.0);
  slab<double>* fields[] = {&st.u, &st.v, &st.eta};
  for (int f = 0; f < 3; ++f) {
    for (int j = 0; j < 3; ++j) {
      for (int i = 0; i < 4; ++i) {
        (*fields[f])(i, j) = 100.0 * f + 10.0 * rank + j;
      }
    }
  }
  return st;
}

/// The 2 + 2 + 1 layout: u and v get two halo rows on each side, eta
/// one, and every field's own rows are left alone. `rank` owns `st`;
/// `below` and `above` are the ranks whose rows should arrive.
void expect_layout(const slab_state<double>& st, int rank, int below,
                   int above) {
  const slab<double>* fields[] = {&st.u, &st.v, &st.eta};
  for (int f = 0; f < 3; ++f) {
    const auto& s = *fields[f];
    const double base = 100.0 * f;
    for (int j = 0; j < 3; ++j) {
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(s(i, j), base + 10.0 * rank + j)
            << "own row " << j << " of field " << f;
      }
    }
    // The lower halo mirrors the top rows (j = 1, 2) of the rank
    // below, the upper halo the bottom rows (j = 0, 1) of the rank
    // above.
    EXPECT_EQ(s(1, -1), base + 10.0 * below + 2) << f;
    EXPECT_EQ(s(1, 3), base + 10.0 * above + 0) << f;
    const bool two_rows = f < 2;
    EXPECT_EQ(s(2, -2), two_rows ? base + 10.0 * below + 1 : -1.0) << f;
    EXPECT_EQ(s(2, 4), two_rows ? base + 10.0 * above + 1 : -1.0) << f;
  }
}

}  // namespace

TEST(HaloEngine, PackedExchangeMovesNeighbourRows) {
  mpisim::world w(3);
  w.run([](mpisim::communicator& comm) {
    const int r = comm.rank();
    const int p = comm.size();
    slab_state<double> st = labelled_state(r);
    halo_exchanger<double> ex(comm, 4);
    ex.start(st);
    EXPECT_TRUE(ex.in_flight());
    ex.finish();
    EXPECT_FALSE(ex.in_flight());
    expect_layout(st, r, (r - 1 + p) % p, (r + 1) % p);
    EXPECT_EQ(ex.messages_sent(), 2u);
    EXPECT_EQ(ex.bytes_sent(), 2u * 5u * 4u * sizeof(double));
  });
}

TEST(HaloEngine, SingleRankWrapsPeriodically) {
  mpisim::world w(1);
  w.run([](mpisim::communicator& comm) {
    slab_state<double> st = labelled_state(0);
    halo_exchanger<double> ex(comm, 4);
    ex.start(st);
    ex.finish();
    expect_layout(st, 0, 0, 0);  // the wrap: two rows of u and v, one of eta
    EXPECT_EQ(ex.messages_sent(), 0u);  // the wrap is local
  });
}

// ---------------------------------------------------------------------------
// Fault-plane compatibility of the packed channels.
// ---------------------------------------------------------------------------

TEST(HaloFaults, CrashAnnotatesPackedPhase) {
  const swm_params params = small_params();
  const auto init = initial_state<double>(params);
  mpisim::world w(4);
  mpisim::fault_config cfg;
  cfg.crashes.push_back({1, 0});
  w.set_faults(cfg);
  try {
    w.run([&](mpisim::communicator& comm) {
      distributed_model<double> dm(comm, params);  // default: overlap
      dm.set_from_global(init);
      dm.run(5);
    });
    FAIL() << "expected comm_error, got a completed run";
  } catch (const mpisim::comm_error& e) {
    EXPECT_EQ(e.why(), mpisim::comm_error::reason::peer_crashed) << e.what();
    const std::string what = e.what();
    EXPECT_NE(what.find("halo exchange"), std::string::npos) << what;
    EXPECT_NE(what.find("packed"), std::string::npos) << what;
  }
}

TEST(HaloFaults, ChaosRunBitEqualToCleanOracle) {
  // Recoverable chaos (drops, duplicates, corruption - with a retry
  // budget deep enough to drain it) on the packed overlapped channels
  // must not change a single bit of the trajectory.
  const swm_params params = small_params();
  const int p = 4;
  const int steps = 10;
  const auto oracle =
      serial_trajectory<double>(params, steps, integration_scheme::standard);

  const auto init = initial_state<double>(params);
  state<double> got(params.nx, params.ny);
  mpisim::world w(p);
  mpisim::fault_config cfg;
  cfg.seed = 77;
  cfg.probs.drop = 0.05;
  cfg.probs.duplicate = 0.04;
  cfg.probs.corrupt = 0.03;
  cfg.probs.reorder = 0.04;
  cfg.retry.max_retries = 40;
  w.set_faults(cfg);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    dm.run(steps);
    auto global = dm.gather_global();
    if (comm.rank() == 0) got = std::move(global);
  });
  expect_states_bitwise(got, oracle, "chaos");
  EXPECT_GT(w.last_fault_report().stats.retries, 0u)
      << "the chaos schedule must actually have injected";
}

TEST(HaloFaults, RecoveryReplaysOverPackedChannels) {
  // A mid-run crash with buddy-checkpoint recovery, halos on the
  // packed overlapped engine end to end: the recovered trajectory must
  // match the fault-free one bit for bit.
  const swm_params params = small_params();
  const int p = 4;
  const int steps = 12;
  const auto init = initial_state<double>(params);

  struct outcome {
    std::vector<std::vector<double>> packed;
    std::vector<recovery_report> reports;
  };
  auto run_one = [&](const mpisim::fault_config& cfg, bool resilient) {
    outcome out;
    out.packed.resize(static_cast<std::size_t>(p));
    out.reports.resize(static_cast<std::size_t>(p));
    mpisim::world w(p);
    w.set_faults(cfg);
    w.run([&](mpisim::communicator& comm) {
      distributed_model<double> dm(comm, params);
      dm.set_from_global(init);
      const auto r = static_cast<std::size_t>(comm.rank());
      if (resilient) {
        resilience_options opt;
        opt.checkpoint_interval = 4;
        out.reports[r] = run_resilient(comm, dm, steps, opt);
      } else {
        dm.run(steps);
      }
      out.packed[r].resize(dm.packed_size());
      dm.pack_state(std::span<double>(out.packed[r]));
    });
    return out;
  };

  mpisim::fault_config quiet;
  quiet.crashes.push_back({3, 1u << 30});  // fault plane on, never fires
  const auto want = run_one(quiet, false).packed;

  // The crash lands mid-run: halfway between the step-4 and step-8
  // commits of a silent resilient run.
  const auto probe = run_one(quiet, true).reports;
  mpisim::fault_config cfg;
  cfg.seed = 41;
  cfg.crashes.push_back({1, mid_window_send(probe[1], 1)});
  const auto got = run_one(cfg, true);

  for (int r = 0; r < p; ++r) {
    const auto k = static_cast<std::size_t>(r);
    EXPECT_EQ(got.reports[k].rounds, 1) << "the crash must trigger recovery";
    ASSERT_EQ(got.packed[k].size(), want[k].size());
    EXPECT_EQ(got.packed[k], want[k]) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Virtual-time accounting: DES twin, overlap benefit, perfmodel pin.
// ---------------------------------------------------------------------------

namespace {

/// Threaded virtual clocks of a `steps`-step run with the
/// modeled-compute knob at `rhs_seconds`.
std::vector<double> threaded_clocks(const swm_params& params, int p,
                                    int steps, double rhs_seconds) {
  const auto init = initial_state<double>(params);
  mpisim::world w(p);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_modeled_rhs_seconds(rhs_seconds);
    dm.set_from_global(init);
    dm.run(steps);
  });
  return w.final_clocks();
}

/// The modeled compute charges per RHS evaluation the DES pin runs:
/// none (comm-only), light, and heavy enough for the interior rows to
/// outlast the transfers.
constexpr double des_rhs_seconds[] = {0.0, 3e-6, 20e-6};

}  // namespace

// (ranks, compute-charge index into des_rhs_seconds)
class HaloDes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HaloDes, ThreadedClocksMatchDesTwin) {
  const auto [p, charge_idx] = GetParam();
  const double rhs_seconds = des_rhs_seconds[charge_idx];
  const swm_params params = small_params();
  ASSERT_EQ(params.ny % p, 0) << "the DES twin assumes uniform slabs";
  const int steps = 3;

  const auto threaded = threaded_clocks(params, p, steps, rhs_seconds);

  mpisim::world w(p);  // only for net()/placement()
  const auto prog = make_halo_program(p, params.nx, sizeof(double), steps,
                                      rhs_seconds, params.ny / p);
  const auto des = mpisim::simulate(prog, w.net(), w.placement());
  ASSERT_EQ(des.clocks.size(), threaded.size());
  for (std::size_t r = 0; r < threaded.size(); ++r) {
    EXPECT_DOUBLE_EQ(threaded[r], des.clocks[r])
        << "charge " << rhs_seconds << " rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, HaloDes,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(0, 1, 2)));

namespace {

/// make_halo_program's traffic and charges with nothing overlapped:
/// each stage pays both compute shares after its receives.
mpisim::sim_program serialized_halo_program(int p, int nx, int steps,
                                            const rhs_compute_split& cs) {
  const std::size_t packed = static_cast<std::size_t>(halo_message_rows) *
                             static_cast<std::size_t>(nx) * sizeof(double);
  mpisim::sim_program prog(p);
  for (int r = 0; r < p; ++r) {
    auto& ops = prog.rank(r);
    const int up = (r + 1) % p;
    const int down = (r - 1 + p) % p;
    for (int stage = 0; stage < 4 * steps; ++stage) {
      ops.push_back(mpisim::sim_op::send_to(up, packed));
      ops.push_back(mpisim::sim_op::send_to(down, packed));
      ops.push_back(mpisim::sim_op::recv_from(down, packed));
      ops.push_back(mpisim::sim_op::recv_from(up, packed));
      ops.push_back(mpisim::sim_op::compute_for(cs.interior));
      ops.push_back(mpisim::sim_op::compute_for(cs.boundary));
    }
  }
  return prog;
}

}  // namespace

TEST(HaloTime, OverlapHidesComputeInVirtualTime) {
  // With a real compute charge, the step loop finishes earlier than
  // the same traffic and compute with nothing overlapped: the interior
  // share of each charge runs while the payloads are in flight.
  const swm_params params = small_params();
  const int p = 4;
  const int steps = 5;
  const double rhs_seconds = 20e-6;
  const auto overlap = threaded_clocks(params, p, steps, rhs_seconds);
  const rhs_compute_split cs = split_rhs_compute(rhs_seconds, params.ny / p);
  ASSERT_GT(cs.interior, 0.0) << "nothing to overlap";
  mpisim::world w(p);  // only for net()/placement()
  const auto serialized = mpisim::simulate(
      serialized_halo_program(p, params.nx, steps, cs), w.net(),
      w.placement());
  // The two schedules split the same charges differently, so their
  // clocks may differ by rounding alone; overlap must win by more.
  for (std::size_t r = 0; r < overlap.size(); ++r) {
    EXPECT_LT(overlap[r] + 1e-9, serialized.clocks[r]) << "rank " << r;
  }
}

TEST(HaloPerfmodel, PredictionMatchesMeasuredCounters) {
  REQUIRE_OBS_COMPILED();
  // predict_halo's messages/bytes must equal the measured obs counters
  // exactly. Totals aggregate over p ranks and `steps` steps.
  const swm_params params = small_params();
  const int p = 4;
  const int steps = 5;
  const auto init = initial_state<double>(params);
  obs_session session;
  mpisim::world w(p);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    dm.run(steps);
  });
  const halo_cost pred =
      predict_halo(w.net(), params.nx, sizeof(double), p);
  const std::uint64_t scale =
      static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(steps);
  EXPECT_EQ(counter_value("swm.halo_messages"), scale * pred.messages);
  EXPECT_EQ(counter_value("swm.halo_bytes"), scale * pred.bytes);
  EXPECT_EQ(counter_value("swm.dist_steps"), scale);
}

TEST(HaloPerfmodel, PlacementAwarePredictionMatchesMeasuredCounters) {
  REQUIRE_OBS_COMPILED();
  // The comm-aware overload (docs/TOPOLOGY.md) must not drift from the
  // measured traffic either: summing the per-rank placement-aware
  // predictions over a real torus run reproduces swm.halo_messages /
  // swm.halo_bytes exactly, placement or no placement. Only the cost
  // fields may differ from the flat overload.
  const swm_params params = small_params();
  const int steps = 5;
  const mpisim::torus_placement place({2, 2, 1}, 1);
  const int p = place.rank_count();
  const auto init = initial_state<double>(params);
  obs_session session;
  mpisim::world w(place, mpisim::tofud_params{});
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    dm.run(steps);
  });
  const mpisim::tofud_params net;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (int r = 0; r < p; ++r) {
    const halo_cost placed =
        predict_halo(net, place, r, params.nx, sizeof(double), p);
    messages += placed.messages;
    bytes += placed.bytes;
    EXPECT_GE(placed.contended_seconds, placed.seconds) << "rank " << r;
  }
  const auto scale = static_cast<std::uint64_t>(steps);
  EXPECT_EQ(counter_value("swm.halo_messages"), scale * messages);
  EXPECT_EQ(counter_value("swm.halo_bytes"), scale * bytes);
}

TEST(HaloPerfmodel, MessageArithmetic) {
  mpisim::world w(2);
  const auto& net = w.net();
  // Per step, the retired engines: 4 stages x (3 + 4 rows) x 2
  // directions = 56 one-row messages, or 4 x 2 packed phases x 2
  // directions = 16 - the same 56 rows. The engine: 4 stages x 2
  // directions = 8 messages of 2 + 2 + 1 rows, 40 rows.
  const auto pf = predict_halo(net, 32, 8, 2, halo_mode::per_field);
  const auto ag = predict_halo(net, 32, 8, 2, halo_mode::aggregated);
  const auto ov = predict_halo(net, 32, 8, 2, halo_mode::aggregated_overlap);
  EXPECT_EQ(pf.messages, 56u);
  EXPECT_EQ(ag.messages, 16u);
  EXPECT_EQ(ov.messages, 8u);
  EXPECT_EQ(pf.bytes, 56u * 32u * 8u);
  EXPECT_EQ(ag.bytes, pf.bytes);
  EXPECT_EQ(ov.bytes, 40u * 32u * 8u);
  EXPECT_GT(pf.seconds, ag.seconds);
  EXPECT_GT(ag.seconds, ov.seconds);
  // Single rank: the wrap is local.
  const auto solo = predict_halo(net, 32, 8, 1, halo_mode::aggregated);
  EXPECT_EQ(solo.messages, 0u);
  EXPECT_EQ(solo.bytes, 0u);
  EXPECT_EQ(solo.seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Allocation discipline: steady-state steps allocate nothing on a
// single rank (pure wrap path) and a constant amount with neighbours
// (mpisim message payloads only - the engine's own buffers are warm).
// ---------------------------------------------------------------------------

TEST(HaloAlloc, SingleRankStepsAllocationFreeAfterWarmup) {
  const swm_params params = small_params();
  const auto init = initial_state<double>(params);
  mpisim::world w(1);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    dm.run(2);  // warmup
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    dm.run(5);
    const std::uint64_t after =
        g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "steady-state steps must not allocate";
  });
}

TEST(HaloAlloc, MultiRankStepsAllocateSteadyState) {
  // With neighbours, a step inherently allocates (mpisim copies each
  // payload into the mailbox), but the per-step count must be steady
  // once the engine's buffers are warm. Whole-run totals are compared;
  // they carry bounded timing noise (mailbox channel queues grow to
  // the peak queue depth, which depends on the thread interleaving,
  // and the delivery log doubles amortized), so the windows are made
  // wide - 24 steps each - and the tolerance covers only that bounded
  // term. A per-message (linear) leak would scale with the window and
  // blow far past it. The halo engine's own zero-allocation property
  // is pinned exactly by the single-rank test above.
  const swm_params params = small_params();
  const auto init = initial_state<double>(params);
  auto total_allocs = [&](int steps) {
    mpisim::world w(4);
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    w.run([&](mpisim::communicator& comm) {
      distributed_model<double> dm(comm, params);
      dm.set_from_global(init);
      dm.run(steps);
    });
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  const std::uint64_t a2 = total_allocs(2);
  const std::uint64_t a26 = total_allocs(26);
  const std::uint64_t a50 = total_allocs(50);
  const std::uint64_t lo = std::min(a50 - a26, a26 - a2);
  const std::uint64_t hi = std::max(a50 - a26, a26 - a2);
  EXPECT_LE(hi - lo, 96u) << "per-step allocations must be steady: "
                          << (a26 - a2) << " vs " << (a50 - a26);
  EXPECT_GT(a26, a2) << "messages do allocate payload copies";
}
