// Cross-engine fuzzing: random (seeded) communication programs are
// executed on BOTH the threaded runtime and the discrete-event engine;
// virtual clocks must agree exactly. This covers arbitrary interleaved
// patterns the structured collective tests never produce.
//
// The transport is a fuzz dimension too: each seed draws the channel
// layer the threaded runtime uses (shm channels / real loopback TCP),
// and the DES parity must hold over every one - virtual time is not a
// transport property (transport.hpp).

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"
#include "mpisim/des.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/transport.hpp"

using namespace tfx;
using namespace tfx::mpisim;

namespace {

/// Generate a random deadlock-free program: a sequence of global
/// rounds; in each round a random perfect/partial pairing of ranks
/// exchanges messages of random sizes, and random ranks do local
/// compute. Within a rank the ops are ordered (sends before recvs per
/// round), which the threaded engine can always execute.
sim_program random_program(int p, std::uint64_t seed, int rounds) {
  xoshiro256 rng(seed);
  sim_program prog(p);
  for (int round = 0; round < rounds; ++round) {
    // Random permutation pairing: shuffle ranks, pair adjacent ones.
    std::vector<int> order(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) order[static_cast<std::size_t>(r)] = r;
    for (int i = p - 1; i > 0; --i) {
      const auto j = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(i + 1)));
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(j)]);
    }
    for (int k = 0; k + 1 < p; k += 2) {
      const int a = order[static_cast<std::size_t>(k)];
      const int b = order[static_cast<std::size_t>(k + 1)];
      if (rng.bounded(4) == 0) continue;  // some pairs idle this round
      const std::size_t bytes = 1 + rng.bounded(200000);
      // Both send first, then both receive: never blocks.
      prog.rank(a).push_back(sim_op::send_to(b, bytes));
      prog.rank(b).push_back(sim_op::send_to(a, bytes));
      prog.rank(a).push_back(sim_op::recv_from(b, bytes));
      prog.rank(b).push_back(sim_op::recv_from(a, bytes));
    }
    for (int r = 0; r < p; ++r) {
      if (rng.bounded(3) == 0) {
        prog.rank(r).push_back(
            sim_op::compute_for(rng.uniform(0.0, 5e-6)));
      }
    }
  }
  return prog;
}

/// Execute a sim_program on (an already configured) world. `tag` is 7
/// for the vanilla fuzz (any fixed tag works) but 0 for fault-plane
/// runs, whose delivery records are compared against the DES (which
/// logs tag 0 - sim_ops carry no tag).
void run_program(world& w, const sim_program& prog, int tag) {
  w.run([&](communicator& comm) {
    const auto& ops = prog.ranks[static_cast<std::size_t>(comm.rank())];
    std::vector<std::byte> buf(1 << 18);
    for (const auto& op : ops) {
      switch (op.what) {
        case sim_op::kind::send:
          comm.send_bytes(std::span<const std::byte>(buf.data(), op.bytes),
                          op.peer, tag);
          break;
        case sim_op::kind::recv:
          comm.recv_bytes(std::span<std::byte>(buf.data(), op.bytes),
                          op.peer, tag);
          break;
        case sim_op::kind::compute:
          comm.advance(op.seconds);
          break;
      }
    }
  });
}

/// Execute a sim_program on the threaded runtime, returning the final
/// virtual clocks.
std::vector<double> run_threaded(const sim_program& prog,
                                 const torus_placement& place,
                                 const tofud_params& net,
                                 const transport_options& topt) {
  world w(place, net, topt);
  run_program(w, prog, 7);
  return w.final_clocks();
}

/// Draw the threaded runtime's transport for this seed. The draw is
/// three-way (two shm outcomes, one socket); changing its range would
/// re-roll every seed's rank count, rounds and program. Socket falls
/// back to shm when the sandbox forbids loopback TCP, so the parity
/// checks stay green everywhere.
transport_options fuzz_transport(xoshiro256& rng) {
  transport_options topt;  // shm
  if (rng.bounded(3) == 2 && transport_manager::loopback_available()) {
    topt.kind = transport_kind::socket;
  }
  return topt;
}

}  // namespace

class FuzzEngines : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEngines, ThreadedAndDesClocksAgree) {
  const std::uint64_t seed = GetParam();
  xoshiro256 meta(seed);
  const int p = 2 + static_cast<int>(meta.bounded(9));       // 2..10 ranks
  const int rounds = 3 + static_cast<int>(meta.bounded(10)); // 3..12 rounds
  const int per_node = 1 + static_cast<int>(meta.bounded(3));
  const int nodes = (p + per_node - 1) / per_node;
  const torus_placement place({nodes, 1, 1}, per_node);
  const transport_options topt = fuzz_transport(meta);
  // Pad the program to the placement's full rank count.
  const int total = place.rank_count();
  SCOPED_TRACE("seed " + std::to_string(seed) + " ranks " +
               std::to_string(total) + " rounds " + std::to_string(rounds) +
               " per_node " + std::to_string(per_node) + " transport " +
               transport_manager::name_of(topt.kind));
  auto prog = random_program(total, seed * 7919 + 13, rounds);

  const tofud_params net;
  const auto threaded = run_threaded(prog, place, net, topt);
  const auto des = simulate(prog, net, place).clocks;
  ASSERT_EQ(threaded.size(), des.size());
  for (std::size_t r = 0; r < des.size(); ++r) {
    ASSERT_NEAR(threaded[r], des[r], 1e-15 + 1e-9 * des[r])
        << "seed " << seed << " rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEngines,
                         ::testing::Range<std::uint64_t>(1, 26));

// Same fuzz, now with a seeded fault plane: both engines must agree on
// the virtual clocks AND on the chaos bookkeeping - per-rank delivery
// orders, retry/drop/duplicate counters, nobody crashed (the retry
// budget is deep enough to always drain).
class FuzzEnginesFaulty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEnginesFaulty, ChaosClocksStatsAndDeliveriesAgree) {
  const std::uint64_t seed = GetParam();
  xoshiro256 meta(seed * 0x9e3779b97f4a7c15ULL + 1);
  const int p = 2 + static_cast<int>(meta.bounded(7));      // 2..8 ranks
  const int rounds = 2 + static_cast<int>(meta.bounded(6)); // 2..7 rounds
  const torus_placement place({p, 1, 1}, 1);
  const transport_options topt = fuzz_transport(meta);
  SCOPED_TRACE("seed " + std::to_string(seed) + " ranks " +
               std::to_string(p) + " rounds " + std::to_string(rounds) +
               " transport " + transport_manager::name_of(topt.kind));
  const auto prog = random_program(p, seed * 6271 + 5, rounds);

  fault_config cfg;
  cfg.seed = seed * 131 + 17;
  cfg.probs.drop = 0.1;
  cfg.probs.duplicate = 0.06;
  cfg.probs.corrupt = 0.05;
  cfg.probs.reorder = 0.08;
  cfg.probs.delay = 0.06;
  cfg.retry.max_retries = 40;
  const fault_plane plane(cfg);

  const tofud_params net;
  world w(place, net, topt);
  w.set_faults(cfg);
  run_program(w, prog, /*tag=*/0);
  const auto& threaded = w.last_fault_report();

  const auto des = simulate(prog, net, place, {}, &plane);

  EXPECT_TRUE(threaded.crashed.empty());
  EXPECT_TRUE(des.crashed.empty());
  EXPECT_EQ(threaded.stats, des.stats);
  ASSERT_EQ(des.deliveries.size(), des.clocks.size());
  for (std::size_t r = 0; r < des.clocks.size(); ++r) {
    EXPECT_EQ(threaded.deliveries[r], des.deliveries[r]) << "rank " << r;
    ASSERT_NEAR(w.final_clocks()[r], des.clocks[r],
                1e-15 + 1e-9 * des.clocks[r])
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEnginesFaulty,
                         ::testing::Range<std::uint64_t>(1, 17));
