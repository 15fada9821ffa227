// Chaos harness for the mpisim fault plane (faultplane.hpp).
//
// The contract under test: with a seeded fault plane, the reliability
// layer (seq numbers, checksums, timeout-retry-backoff, receive-side
// dedup) makes collectives complete *bit-identically* to a fault-free
// oracle as long as retries drain - and when they cannot (crash
// schedules, exhausted retry budgets), every involved rank raises a
// typed comm_error instead of hanging. All of it replayable: the same
// (seed, schedule) reproduces the identical event trace, and the
// threaded runtime agrees with the discrete-event engine field for
// field.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/des.hpp"
#include "mpisim/faultplane.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"

using namespace tfx;
using namespace tfx::mpisim;

// ---------------------------------------------------------------------------
// Global allocation counter: the zero-probability plane must leave the
// runtime not just bit-identical but *allocation-identical* to the
// vanilla path (no hidden bookkeeping on the hot path).
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

fault_config chaos_config(std::uint64_t seed) {
  fault_config cfg;
  cfg.seed = seed;
  cfg.probs.drop = 0.08;
  cfg.probs.duplicate = 0.05;
  cfg.probs.corrupt = 0.04;
  cfg.probs.reorder = 0.06;
  cfg.probs.delay = 0.05;
  cfg.retry.max_retries = 30;  // deep enough that chaos always drains
  return cfg;
}

std::vector<double> rank_vector(int rank, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(rank + 1) * 0.5 +
           static_cast<double>(i) * 0.01;
  }
  return v;
}

enum class coll { barrier, bcast, allreduce, allgather };

const char* coll_name(coll c) {
  switch (c) {
    case coll::barrier: return "barrier";
    case coll::bcast: return "bcast";
    case coll::allreduce: return "allreduce";
    case coll::allgather: return "allgather";
  }
  return "?";
}

/// Run one collective on every rank; returns each rank's result buffer
/// (empty for barrier) so chaos and oracle runs can be diffed bitwise.
std::vector<std::vector<double>> run_collective(world& w, coll which,
                                                std::size_t count) {
  const int p = w.size();
  std::vector<std::vector<double>> out(static_cast<std::size_t>(p));
  w.run([&](communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    switch (which) {
      case coll::barrier:
        barrier(comm);
        break;
      case coll::bcast: {
        std::vector<double> data =
            comm.rank() == 0 ? rank_vector(0, count)
                             : std::vector<double>(count, 0.0);
        bcast(comm, std::span<double>(data), 0);
        out[r] = std::move(data);
        break;
      }
      case coll::allreduce: {
        const auto in = rank_vector(comm.rank(), count);
        std::vector<double> res(count);
        allreduce(comm, std::span<const double>(in), std::span<double>(res),
                  ops::sum{});
        out[r] = std::move(res);
        break;
      }
      case coll::allgather: {
        const auto in = rank_vector(comm.rank(), count);
        std::vector<double> res(count * static_cast<std::size_t>(p));
        allgather(comm, std::span<const double>(in), std::span<double>(res));
        out[r] = std::move(res);
        break;
      }
    }
  });
  return out;
}

/// A deterministic pairwise-exchange program (the shape of the fuzz
/// harness, but directed) for cross-engine chaos comparison.
sim_program pairwise_program(int p, std::uint64_t seed, int rounds) {
  xoshiro256 rng(seed);
  sim_program prog(p);
  for (int round = 0; round < rounds; ++round) {
    for (int a = 0; a + 1 < p; a += 2) {
      const int b = a + 1;
      const std::size_t bytes = 1 + rng.bounded(4096);
      prog.rank(a).push_back(sim_op::send_to(b, bytes));
      prog.rank(b).push_back(sim_op::send_to(a, bytes));
      prog.rank(a).push_back(sim_op::recv_from(b, bytes));
      prog.rank(b).push_back(sim_op::recv_from(a, bytes));
    }
    // Neighbour shift so traffic crosses pair boundaries too.
    for (int a = 0; a < p; ++a) {
      const int b = (a + 1) % p;
      if (p < 3) break;
      prog.rank(a).push_back(sim_op::send_to(b, 256));
    }
    for (int a = 0; a < p; ++a) {
      const int b = (a + p - 1) % p;
      if (p < 3) break;
      prog.rank(a).push_back(sim_op::recv_from(b, 256));
    }
  }
  return prog;
}

/// Execute a sim_program on the threaded runtime under `w`'s fault
/// plane. Sends use tag 0 to match the DES delivery records.
void run_threaded_program(world& w, const sim_program& prog) {
  w.run([&](communicator& comm) {
    const auto& ops = prog.ranks[static_cast<std::size_t>(comm.rank())];
    std::vector<std::byte> buf(1 << 13);
    for (const auto& op : ops) {
      switch (op.what) {
        case sim_op::kind::send:
          comm.send_bytes(std::span<const std::byte>(buf.data(), op.bytes),
                          op.peer, 0);
          break;
        case sim_op::kind::recv:
          comm.recv_bytes(std::span<std::byte>(buf.data(), op.bytes),
                          op.peer, 0);
          break;
        case sim_op::kind::compute:
          comm.advance(op.seconds);
          break;
      }
    }
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Tentpole property: chaos results are bit-identical to the fault-free
// oracle whenever the retry budget drains the injected faults.
// ---------------------------------------------------------------------------

class ChaosCollectives
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, coll>> {};

TEST_P(ChaosCollectives, BitIdenticalToFaultFreeOracle) {
  const auto [seed, p, which] = GetParam();
  SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " ranks " +
               std::to_string(p) + " " + coll_name(which));
  const std::size_t count = 37;

  world oracle(p);
  const auto want = run_collective(oracle, which, count);

  world chaotic(p);
  chaotic.set_faults(chaos_config(seed));
  const auto got = run_collective(chaotic, which, count);

  ASSERT_EQ(want.size(), got.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    // Bitwise equality, not tolerance: the payload survived the wire.
    ASSERT_EQ(want[r], got[r]) << "rank " << r;
  }
  const auto& report = chaotic.last_fault_report();
  EXPECT_TRUE(report.crashed.empty());
  EXPECT_EQ(report.stats.failed_sends, 0u);
  EXPECT_GT(report.stats.sends, 0u);
  EXPECT_EQ(report.stats.attempts,
            report.stats.sends + report.stats.retries);
  // Every drop and corruption costs exactly one retransmission (no
  // send failed, so no final attempt went unanswered), and the only
  // receive-side discards are corrupt or replayed copies - some of
  // which may still sit unread in a mailbox after the last recv.
  EXPECT_EQ(report.stats.retries,
            report.stats.drops + report.stats.corruptions);
  EXPECT_LE(report.rx_discards,
            report.stats.corruptions + report.stats.duplicates);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsRanksColls, ChaosCollectives,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2026, 0xA64F),
                       ::testing::Values(2, 5, 8),
                       ::testing::Values(coll::barrier, coll::bcast,
                                         coll::allreduce, coll::allgather)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_p" +
             std::to_string(std::get<1>(param_info.param)) + "_" +
             coll_name(std::get<2>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Zero-probability plane: inert by construction - the vanilla path
// must run bit- AND allocation-identically.
// ---------------------------------------------------------------------------

namespace {

/// Single-rank self-messaging loop: fully deterministic (one thread),
/// so allocation counts are exactly reproducible.
std::pair<double, std::vector<double>> self_send_run(world& w) {
  std::vector<double> data;
  w.run([&](communicator& comm) {
    std::vector<double> buf(64);
    std::iota(buf.begin(), buf.end(), 1.0);
    for (int i = 0; i < 20; ++i) {
      comm.send(std::span<const double>(buf), 0, i);
      comm.advance(1e-7);
      comm.recv(std::span<double>(buf), 0, i);
      buf[0] += 1.0;
    }
    data = buf;
  });
  return {w.final_clocks()[0], data};
}

}  // namespace

TEST(ZeroProbPlane, InactiveByConstruction) {
  const fault_plane plane{fault_config{}};  // all probabilities zero
  EXPECT_FALSE(plane.active());

  fault_config armed;
  armed.probs.drop = 0.1;
  EXPECT_TRUE(fault_plane{armed}.active());
  fault_config crashy;
  crashy.crashes.push_back({1, 0});
  EXPECT_TRUE(fault_plane{crashy}.active());
}

TEST(ZeroProbPlane, BitAndAllocationIdenticalToVanilla) {
  // Warm both paths once so lazy one-time allocations (gtest, locale,
  // thread bootstrap) don't pollute the measured counts.
  {
    world warm(1);
    self_send_run(warm);
    warm.set_faults(fault_config{});
    self_send_run(warm);
  }

  world vanilla(1);
  const std::uint64_t before_vanilla = g_allocs.load();
  const auto [clock_vanilla, data_vanilla] = self_send_run(vanilla);
  const std::uint64_t count_vanilla = g_allocs.load() - before_vanilla;

  world zeroed(1);
  zeroed.set_faults(fault_config{});  // attached but inert
  ASSERT_NE(zeroed.faults(), nullptr);
  ASSERT_FALSE(zeroed.faults()->active());
  const std::uint64_t before_zeroed = g_allocs.load();
  const auto [clock_zeroed, data_zeroed] = self_send_run(zeroed);
  const std::uint64_t count_zeroed = g_allocs.load() - before_zeroed;

  EXPECT_EQ(clock_vanilla, clock_zeroed);  // bit-identical virtual time
  EXPECT_EQ(data_vanilla, data_zeroed);
  EXPECT_EQ(count_vanilla, count_zeroed)
      << "inert fault plane changed the allocation profile";
}

// ---------------------------------------------------------------------------
// Seed replay: one (seed, schedule) pair reproduces the identical
// event trace - stats, per-rank delivery orders, discards, clocks.
// ---------------------------------------------------------------------------

TEST(SeedReplay, IdenticalEventTraceTwice) {
  const int p = 6;
  fault_config cfg = chaos_config(99);
  cfg.stalls.push_back({2, 1, 5e-6});

  const auto once = [&] {
    world w(p);
    w.set_faults(cfg);
    // Allgather's ring moves p*(p-1) messages - enough traffic that
    // the 8% drop rate injects with near certainty.
    run_collective(w, coll::allgather, 64);
    return std::make_pair(w.last_fault_report(), w.final_clocks());
  };
  const auto [report1, clocks1] = once();
  const auto [report2, clocks2] = once();

  EXPECT_EQ(report1.stats, report2.stats);
  EXPECT_EQ(report1.rx_discards, report2.rx_discards);
  EXPECT_EQ(report1.crashed, report2.crashed);
  ASSERT_EQ(report1.deliveries.size(), report2.deliveries.size());
  for (std::size_t r = 0; r < report1.deliveries.size(); ++r) {
    EXPECT_EQ(report1.deliveries[r], report2.deliveries[r]) << "rank " << r;
  }
  EXPECT_EQ(clocks1, clocks2);  // bitwise: no tolerance
  EXPECT_GT(report1.stats.retries, 0u) << "schedule injected nothing";
  EXPECT_EQ(report1.stats.stalls, 1u);
}

// ---------------------------------------------------------------------------
// Cross-engine agreement: the threaded runtime and the DES execute the
// same chaos schedule with identical delivery orders, retry counters,
// and virtual clocks.
// ---------------------------------------------------------------------------

class EngineChaosAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineChaosAgreement, ClocksStatsDeliveriesMatch) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const int p = 6;
  const auto prog = pairwise_program(p, seed, 4);
  const tofud_params net;
  const torus_placement place = torus_placement::line(p);
  const fault_config cfg = chaos_config(seed * 31 + 7);
  const fault_plane plane(cfg);

  world w(place, net);
  w.set_faults(cfg);
  run_threaded_program(w, prog);
  const auto& threaded = w.last_fault_report();

  const auto des = simulate(prog, net, place, {}, &plane);

  EXPECT_EQ(threaded.stats, des.stats);
  EXPECT_TRUE(des.crashed.empty());
  EXPECT_TRUE(threaded.crashed.empty());
  ASSERT_EQ(des.deliveries.size(), w.final_clocks().size());
  for (std::size_t r = 0; r < des.deliveries.size(); ++r) {
    EXPECT_EQ(threaded.deliveries[r], des.deliveries[r]) << "rank " << r;
    EXPECT_NEAR(w.final_clocks()[r], des.clocks[r],
                1e-15 + 1e-9 * des.clocks[r])
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineChaosAgreement,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Failure paths: crash schedules and exhausted retry budgets must fail
// loudly on every endpoint, never hang.
// ---------------------------------------------------------------------------

TEST(CrashSchedule, EveryRankFailsLoudly) {
  const int p = 4;
  world w(p);
  fault_config cfg;
  cfg.crashes.push_back({1, 0});  // rank 1 dies before its first send
  w.set_faults(cfg);
  try {
    run_collective(w, coll::allreduce, 32);
    FAIL() << "expected comm_error";
  } catch (const comm_error& e) {
    EXPECT_TRUE(e.why() == comm_error::reason::peer_crashed ||
                e.why() == comm_error::reason::retries_exhausted)
        << e.what();
    // Collectives annotate the failure with their name.
    EXPECT_NE(std::string(e.what()).find("allreduce"), std::string::npos)
        << e.what();
  }
  const auto& report = w.last_fault_report();
  // Rank 1 crashed by schedule; the cascade kills everyone blocked on
  // it (allreduce couples all ranks), so nobody is left hanging.
  ASSERT_FALSE(report.crashed.empty());
  EXPECT_NE(std::find(report.crashed.begin(), report.crashed.end(), 1),
            report.crashed.end());
}

TEST(CrashSchedule, EnginesAgreeOnCasualties) {
  const int p = 6;
  const auto prog = pairwise_program(p, 11, 3);
  const tofud_params net;
  const torus_placement place = torus_placement::line(p);
  fault_config cfg;
  cfg.crashes.push_back({3, 2});  // mid-program death
  const fault_plane plane(cfg);

  world w(place, net);
  w.set_faults(cfg);
  EXPECT_THROW(run_threaded_program(w, prog), comm_error);

  const auto des = simulate(prog, net, place, {}, &plane);
  EXPECT_EQ(w.last_fault_report().crashed, des.crashed);
  EXPECT_FALSE(des.crashed.empty());
  EXPECT_EQ(w.last_fault_report().stats, des.stats);
}

TEST(RetryBudget, ExhaustionRaisesTypedError) {
  world w(2);
  fault_config cfg;
  cfg.probs.drop = 1.0;  // nothing ever gets through
  cfg.retry.max_retries = 2;
  w.set_faults(cfg);
  try {
    w.run([](communicator& comm) {
      const double v = 42.0;
      double in = 0;
      if (comm.rank() == 0) {
        comm.send_value(v, 1, 5);
      } else {
        comm.recv(std::span<double>(&in, 1), 0, 5);
      }
    });
    FAIL() << "expected comm_error";
  } catch (const comm_error& e) {
    EXPECT_EQ(e.why(), comm_error::reason::retries_exhausted) << e.what();
  }
  const auto& st = w.last_fault_report().stats;
  EXPECT_EQ(st.failed_sends, 1u);
  EXPECT_EQ(st.attempts, 3u);  // first try + max_retries
  EXPECT_EQ(st.drops, 3u);
}

TEST(StallSchedule, ChargesVirtualTimeOnly) {
  const int p = 2;
  const double stall_s = 1e-3;

  world quiet(p);
  fault_config inert;
  inert.stalls.push_back({0, 1u << 30, 0.0});  // activates, never fires
  quiet.set_faults(inert);
  run_collective(quiet, coll::bcast, 16);
  const double base = quiet.final_clocks()[1];

  world stalled(p);
  fault_config cfg;
  cfg.stalls.push_back({0, 0, stall_s});
  stalled.set_faults(cfg);
  const auto got = run_collective(stalled, coll::bcast, 16);
  EXPECT_EQ(got[1], rank_vector(0, 16));
  EXPECT_EQ(stalled.last_fault_report().stats.stalls, 1u);
  // The root's stall delays the broadcast end-to-end.
  EXPECT_NEAR(stalled.final_clocks()[1], base + stall_s, 1e-12);
}

// ---------------------------------------------------------------------------
// Building blocks.
// ---------------------------------------------------------------------------

TEST(FaultPlaneUnits, DecisionsAreDeterministic) {
  const fault_plane plane(chaos_config(7));
  for (int src = 0; src < 3; ++src) {
    for (int dst = 0; dst < 3; ++dst) {
      for (std::uint64_t m = 0; m < 50; ++m) {
        const auto a = plane.decide(src, dst, m, 0);
        const auto b = plane.decide(src, dst, m, 0);
        EXPECT_EQ(a.drop, b.drop);
        EXPECT_EQ(a.corrupt, b.corrupt);
        EXPECT_EQ(a.duplicate, b.duplicate);
        EXPECT_EQ(a.reorder, b.reorder);
        EXPECT_EQ(a.extra_delay_s, b.extra_delay_s);
        EXPECT_EQ(a.flip, b.flip);
      }
    }
  }
}

TEST(FaultPlaneUnits, ChecksumCatchesEverySingleBitFlip) {
  std::vector<std::byte> payload(96);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 37 + 11);
  }
  const std::uint64_t good = fault_plane::checksum(payload);
  for (std::size_t at = 0; at < payload.size(); at += 7) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = payload;
      bad[at] ^= static_cast<std::byte>(1 << bit);
      EXPECT_NE(fault_plane::checksum(bad), good)
          << "byte " << at << " bit " << bit;
    }
  }
}

TEST(FaultPlaneUnits, BackoffGrowsGeometrically) {
  const double t0 = 3e-6;
  EXPECT_EQ(backoff_delay_seconds(t0, 2.0, 0), t0);
  EXPECT_EQ(backoff_delay_seconds(t0, 2.0, 1), t0 * 2.0);
  EXPECT_EQ(backoff_delay_seconds(t0, 2.0, 2), t0 * 2.0 * 2.0);
  EXPECT_EQ(backoff_delay_seconds(t0, 1.0, 9), t0);
}
