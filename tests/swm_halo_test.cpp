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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

TEST(HaloEngine, PackedExchangeMovesNeighbourRows) {
  mpisim::world w(3);
  w.run([](mpisim::communicator& comm) {
    const int r = comm.rank();
    const int p = comm.size();
    // Three fields with distinguishable contents: field f on rank r
    // holds 100*f + 10*r + row.
    slab<double> a(4, 3), b(4, 3), c(4, 3);
    slab<double>* fields[] = {&a, &b, &c};
    for (int f = 0; f < 3; ++f) {
      for (int j = 0; j < 3; ++j) {
        for (int i = 0; i < 4; ++i) {
          (*fields[f])(i, j) = 100.0 * f + 10.0 * r + j;
        }
      }
    }
    halo_exchanger<double> ex(comm, 4);
    ex.start(halo_exchanger<double>::phase::prognostic, {&a, &b, &c});
    EXPECT_TRUE(ex.in_flight());
    ex.finish();
    EXPECT_FALSE(ex.in_flight());
    const int up = (r + 1) % p;
    const int down = (r - 1 + p) % p;
    for (int f = 0; f < 3; ++f) {
      // My lower halo is my down-neighbour's top row (j = 2), my upper
      // halo its up-neighbour's bottom row (j = 0).
      EXPECT_EQ((*fields[f])(1, -1), 100.0 * f + 10.0 * down + 2) << f;
      EXPECT_EQ((*fields[f])(1, 3), 100.0 * f + 10.0 * up + 0) << f;
      EXPECT_EQ((*fields[f])(1, 0), 100.0 * f + 10.0 * r + 0) << f;
    }
    EXPECT_EQ(ex.messages_sent(), 2u);
    EXPECT_EQ(ex.bytes_sent(), 2u * 3u * 4u * sizeof(double));
  });
}

TEST(HaloEngine, SingleRankWrapsPeriodically) {
  mpisim::world w(1);
  w.run([](mpisim::communicator& comm) {
    slab<double> a(4, 3), b(4, 3);
    for (int j = 0; j < 3; ++j) {
      for (int i = 0; i < 4; ++i) {
        a(i, j) = 10 + j;
        b(i, j) = 20 + j;
      }
    }
    halo_exchanger<double> ex(comm, 4);
    ex.start(halo_exchanger<double>::phase::derived, {&a, &b});
    ex.finish();
    EXPECT_EQ(a(0, -1), 12.0);  // wrap: top row
    EXPECT_EQ(a(0, 3), 10.0);   // wrap: bottom row
    EXPECT_EQ(b(0, -1), 22.0);
    EXPECT_EQ(b(0, 3), 20.0);
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

  auto run_one = [&](const mpisim::fault_config& cfg, bool resilient) {
    std::vector<std::vector<double>> packed(static_cast<std::size_t>(p));
    mpisim::world w(p);
    w.set_faults(cfg);
    w.run([&](mpisim::communicator& comm) {
      distributed_model<double> dm(comm, params);
      dm.set_from_global(init);
      if (resilient) {
        resilience_options opt;
        opt.checkpoint_interval = 4;
        const auto report = run_resilient(comm, dm, steps, opt);
        EXPECT_GE(report.rounds, 1) << "the crash must trigger recovery";
      } else {
        dm.run(steps);
      }
      auto& mine = packed[static_cast<std::size_t>(comm.rank())];
      mine.resize(dm.packed_size());
      dm.pack_state(std::span<double>(mine));
    });
    return packed;
  };

  mpisim::fault_config quiet;
  quiet.crashes.push_back({3, 1u << 30});  // fault plane on, never fires
  const auto want = run_one(quiet, false);

  mpisim::fault_config cfg;
  cfg.seed = 41;
  cfg.crashes.push_back({1, 120});
  const auto got = run_one(cfg, true);

  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(),
              want[static_cast<std::size_t>(r)].size());
    EXPECT_EQ(got[static_cast<std::size_t>(r)],
              want[static_cast<std::size_t>(r)])
        << "rank " << r;
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

TEST(HaloTime, OverlapHidesComputeInVirtualTime) {
  // With a real compute charge, the step loop finishes earlier than
  // the same traffic and compute with nothing overlapped: the interior
  // share of each charge runs while the payloads are in flight. The
  // DES twin of a 2-row slab, which has no interior rows, charges all
  // of it after finish() - the no-overlap schedule.
  const swm_params params = small_params();
  const int p = 4;
  const int steps = 5;
  const double rhs_seconds = 20e-6;
  const auto overlap = threaded_clocks(params, p, steps, rhs_seconds);
  mpisim::world w(p);  // only for net()/placement()
  const auto serialized = mpisim::simulate(
      make_halo_program(p, params.nx, sizeof(double), steps, rhs_seconds, 2),
      w.net(), w.placement());
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
  // Per step: 4 stages x (3 + 4 fields) x 2 directions = 56 per-field
  // messages; aggregated: 4 x 2 phases x 2 directions = 16. Bytes are
  // identical: aggregation repackages rows, it does not change volume.
  const auto pf = predict_halo(net, 32, 8, 2, halo_mode::per_field);
  const auto ag = predict_halo(net, 32, 8, 2, halo_mode::aggregated);
  const auto ov = predict_halo(net, 32, 8, 2, halo_mode::aggregated_overlap);
  EXPECT_EQ(pf.messages, 56u);
  EXPECT_EQ(ag.messages, 16u);
  EXPECT_EQ(ov.messages, 16u);
  EXPECT_EQ(pf.bytes, 56u * 32u * 8u);
  EXPECT_EQ(ag.bytes, pf.bytes);
  EXPECT_GT(pf.seconds, ag.seconds);
  EXPECT_EQ(ag.seconds, ov.seconds);  // overlap moves time, not traffic
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
  // they carry bounded timing noise (mailbox deques grow by blocks to
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
