// The discrete-event engine must reproduce the threaded runtime's
// virtual clocks exactly: same algorithms, same clock rules. This is
// the test that licenses running Fig. 3 at 1536 ranks without threads.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/des.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"
#include "obs/trace.hpp"

#include "golden_hash.hpp"

using namespace tfx::mpisim;

namespace {

/// Run a collective on the threaded runtime and return final clocks.
template <typename Fn>
std::vector<double> threaded_clocks(int p, Fn&& fn) {
  world w(p);
  w.run(fn);
  return w.final_clocks();
}

void expect_clocks_equal(const std::vector<double>& a,
                         const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-15 + 1e-9 * a[i]) << "rank " << i;
  }
}

}  // namespace

class DesAgreement : public ::testing::TestWithParam<int> {};

TEST_P(DesAgreement, Barrier) {
  const int p = GetParam();
  const auto real = threaded_clocks(p, [](communicator& c) { barrier(c); });
  const tofud_params net;
  const auto place = torus_placement::line(p);
  const auto des = simulate(make_barrier_program(p), net, place);
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, Bcast) {
  const int p = GetParam();
  const std::size_t count = 300;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> data(count, c.rank() == 0 ? 1.0 : 0.0);
    bcast(c, std::span<double>(data), 0);
  });
  const tofud_params net;
  const auto des = simulate(make_bcast_program(p, count, sizeof(double), 0),
                            net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, Reduce) {
  const int p = GetParam();
  const std::size_t count = 123;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0), out(count);
    reduce(c, std::span<const double>(in), std::span<double>(out),
           ops::sum{}, 0);
  });
  const tofud_params net;
  const auto des =
      simulate(make_reduce_program(net, p, count, sizeof(double), 0), net,
               torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, AllreduceRecursiveDoubling) {
  const int p = GetParam();
  const std::size_t count = 64;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0), out(count);
    allreduce(c, std::span<const double>(in), std::span<double>(out),
              ops::sum{}, coll_algorithm::recursive_doubling);
  });
  const tofud_params net;
  const auto des = simulate(
      make_allreduce_program(net, p, count, sizeof(double),
                             coll_algorithm::recursive_doubling),
      net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, AllreduceRing) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP();
  const std::size_t count = 1000;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0), out(count);
    allreduce(c, std::span<const double>(in), std::span<double>(out),
              ops::sum{}, coll_algorithm::ring);
  });
  const tofud_params net;
  const auto des =
      simulate(make_allreduce_program(net, p, count, sizeof(double),
                                      coll_algorithm::ring),
               net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, AllreduceRabenseifner) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP();
  const std::size_t count = 640;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0), out(count);
    allreduce(c, std::span<const double>(in), std::span<double>(out),
              ops::sum{}, coll_algorithm::rabenseifner);
  });
  const tofud_params net;
  const auto des =
      simulate(make_allreduce_program(net, p, count, sizeof(double),
                                      coll_algorithm::rabenseifner),
               net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, Gatherv) {
  const int p = GetParam();
  const std::size_t count = 50;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(p), count);
    std::vector<double> in(count, 1.0);
    std::vector<double> out(count * static_cast<std::size_t>(p));
    gatherv(c, std::span<const double>(in),
            std::span<const std::size_t>(counts), std::span<double>(out), 0);
  });
  const tofud_params net;
  const auto des =
      simulate(make_gatherv_program(p, count, sizeof(double), 0), net,
               torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, Allgather) {
  const int p = GetParam();
  const std::size_t count = 80;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0);
    std::vector<double> out(count * static_cast<std::size_t>(p));
    allgather(c, std::span<const double>(in), std::span<double>(out));
  });
  const tofud_params net;
  const auto des = simulate(make_allgather_program(p, count, sizeof(double)),
                            net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DesAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 16));

TEST(Des, StartClocksSeedTheSimulation) {
  const tofud_params net;
  const int p = 4;
  const auto place = torus_placement::line(p);
  const auto prog = make_barrier_program(p);
  const auto cold = simulate(prog, net, place);
  std::vector<double> seed(static_cast<std::size_t>(p), 1.0);
  const auto warm = simulate(prog, net, place, seed);
  for (int r = 0; r < p; ++r) {
    EXPECT_NEAR(warm.clocks[static_cast<std::size_t>(r)],
                cold.clocks[static_cast<std::size_t>(r)] + 1.0, 1e-12);
  }
}

TEST(Des, ScalesToFig3RankCount) {
  // 1536 ranks on the 4x6x16 torus: must run in milliseconds of host
  // time and produce sane, size-monotone latencies.
  const tofud_params net;
  const torus_placement place({4, 6, 16}, 4);
  const int p = place.rank_count();
  ASSERT_EQ(p, 1536);

  double prev = 0;
  for (const std::size_t count : {1u, 256u, 65536u}) {
    const auto prog = make_allreduce_program(
        net, p, count, 4, coll_algorithm::recursive_doubling);
    const auto res = simulate(prog, net, place);
    EXPECT_GT(res.max_clock(), prev);
    prev = res.max_clock();
  }
  // Small allreduce at 1536 ranks: ~11 rounds x ~(1 us): order 10 us.
  const auto small = simulate(
      make_allreduce_program(net, p, 1, 4,
                             coll_algorithm::recursive_doubling),
      net, place);
  EXPECT_GT(small.max_clock(), 5e-6);
  EXPECT_LT(small.max_clock(), 100e-6);
}

TEST(Des, ResultStatistics) {
  const tofud_params net;
  const auto place = torus_placement::line(2);
  const auto res = simulate(make_barrier_program(2), net, place);
  EXPECT_LE(res.min_clock(), res.avg_clock());
  EXPECT_LE(res.avg_clock(), res.max_clock());
}

// ---------------------------------------------------------------------------
// Program goldens: the exact op lists every program builder produces,
// recorded from the hand-written generators that preceded the capture
// (patterns.hpp). Each hash folds a whole grid of programs: per rank
// its op count, then every op's kind, peer, bytes and the bits of its
// compute seconds.
// ---------------------------------------------------------------------------

namespace {

void hash_program(tfx::test::fnv1a& h, const sim_program& prog) {
  h.value(prog.size());
  for (const auto& ops : prog.ranks) {
    h.value(ops.size());
    for (const sim_op& op : ops) {
      h.value(op.what);
      h.value(op.peer);
      h.value(op.bytes);
      h.value(op.seconds);
    }
  }
}

constexpr int golden_ranks[] = {1, 2, 3, 5, 8, 9, 16, 17, 100, 1536};
constexpr std::size_t golden_elems[] = {1, 4, 8};
/// 1024 x 8 B sits exactly on the automatic threshold, 1025 x 8 B just
/// above it; 1 and 7 leave most ring and Rabenseifner blocks empty.
constexpr std::size_t golden_counts[] = {1, 7, 1024, 1025, 10000};
/// Ring and allgather programs grow as O(p^2): keep them small.
constexpr int quadratic_max_ranks = 100;

std::array<int, 3> golden_roots(int p) { return {0, p / 2, p - 1}; }

/// Hash `build(p, count, elem)` over every rank count (up to `max_p`),
/// element size and count of the grid.
template <typename Build>
std::uint64_t grid_hash(Build&& build, int max_p = 1 << 30) {
  tfx::test::fnv1a h;
  for (const int p : golden_ranks) {
    if (p > max_p) continue;
    for (const std::size_t elem : golden_elems) {
      for (const std::size_t count : golden_counts) {
        build(h, p, count, elem);
      }
    }
  }
  return h.h;
}

void expect_golden(const char* name, std::uint64_t got, std::uint64_t want) {
  EXPECT_EQ(got, want) << name << ": got 0x" << std::hex << got;
}

}  // namespace

TEST(ProgramGolden, Barrier) {
  tfx::test::fnv1a h;
  for (const int p : golden_ranks) hash_program(h, make_barrier_program(p));
  expect_golden("barrier", h.h, 0x5dd097eb9f553c98ull);
}

TEST(ProgramGolden, Bcast) {
  expect_golden("bcast",
                grid_hash([](auto& h, int p, std::size_t count,
                             std::size_t elem) {
                  for (const int root : golden_roots(p)) {
                    hash_program(h, make_bcast_program(p, count, elem, root));
                  }
                }),
                0xb30f925f0792e9a2ull);
}

TEST(ProgramGolden, Reduce) {
  const tofud_params net;
  expect_golden("reduce",
                grid_hash([&](auto& h, int p, std::size_t count,
                              std::size_t elem) {
                  for (const int root : golden_roots(p)) {
                    hash_program(
                        h, make_reduce_program(net, p, count, elem, root));
                  }
                }),
                0x92d42eb329ca3397ull);
}

TEST(ProgramGolden, Allreduce) {
  const tofud_params net;
  const struct {
    coll_algorithm algo;
    const char* name;
    std::uint64_t want;
  } cases[] = {
      {coll_algorithm::automatic, "automatic", 0xd880e302007ce3a8ull},
      {coll_algorithm::recursive_doubling, "recursive_doubling", 0x3ae29be1f08aa844ull},
      {coll_algorithm::ring, "ring", 0xb49119afe6350d6bull},
      {coll_algorithm::rabenseifner, "rabenseifner", 0x100f2336030e7716ull},
  };
  for (const auto& c : cases) {
    const int max_p = c.algo == coll_algorithm::ring ? quadratic_max_ranks
                                                     : 1 << 30;
    expect_golden(c.name,
                  grid_hash(
                      [&](auto& h, int p, std::size_t count,
                          std::size_t elem) {
                        hash_program(h, make_allreduce_program(
                                            net, p, count, elem, c.algo));
                      },
                      max_p),
                  c.want);
  }
}

TEST(ProgramGolden, HierarchicalAllreduce) {
  const tofud_params net;
  const torus_placement placements[] = {
      {{2, 2, 1}, 4}, {{3, 1, 1}, 3}, {{2, 3, 1}, 2},
      {{4, 6, 16}, 4}, {{8, 8, 16}, 4}};
  const struct {
    coll_algorithm algo;
    const char* name;
    std::uint64_t want;
  } cases[] = {
      {coll_algorithm::automatic, "automatic", 0xed7510d2787ef3cfull},
      {coll_algorithm::recursive_doubling, "recursive_doubling", 0x2b8f932d966adc47ull},
      {coll_algorithm::ring, "ring", 0xeaa391bd7a136fadull},
      {coll_algorithm::rabenseifner, "rabenseifner", 0xab4f51b146879ce0ull},
  };
  for (const auto& c : cases) {
    tfx::test::fnv1a h;
    for (const auto& place : placements) {
      // The leaders' ring is O(nodes^2) ops, like the flat ring.
      if (c.algo == coll_algorithm::ring &&
          place.node_count() > quadratic_max_ranks) {
        continue;
      }
      for (const std::size_t elem : golden_elems) {
        for (const std::size_t count : golden_counts) {
          hash_program(h, make_hierarchical_allreduce_program(
                              net, place, count, elem, c.algo));
        }
      }
    }
    expect_golden(c.name, h.h, c.want);
  }
}

TEST(ProgramGolden, Gatherv) {
  expect_golden("gatherv",
                grid_hash([](auto& h, int p, std::size_t count,
                             std::size_t elem) {
                  for (const int root : golden_roots(p)) {
                    hash_program(h, make_gatherv_program(p, count, elem, root));
                  }
                }),
                0x1af427800fa96d0full);
}

TEST(ProgramGolden, Allgather) {
  expect_golden("allgather",
                grid_hash(
                    [](auto& h, int p, std::size_t count, std::size_t elem) {
                      hash_program(h, make_allgather_program(p, count, elem));
                    },
                    quadratic_max_ranks),
                0x0061801e57a50fc6ull);
}

// Every rooted collective checks its root, so every program captured
// from one inherits the check instead of indexing past the last rank.
TEST(ProgramCaptureDeathTest, RootOutsideTheCommunicatorAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const tofud_params net;
  const char* const msg = "precondition failed: root >= 0 && root < p";
  EXPECT_DEATH(make_gatherv_program(4, 1, 8, 4), msg);
  EXPECT_DEATH(make_gatherv_program(4, 1, 8, -1), msg);
  EXPECT_DEATH(make_reduce_program(net, 4, 1, 8, 4), msg);
  EXPECT_DEATH(make_bcast_program(4, 1, 8, -1), msg);
  EXPECT_DEATH(
      {
        world w(2);
        w.run([](communicator& c) {
          std::vector<double> in(2), out(1);
          scatter(c, std::span<const double>(in), std::span<double>(out), 2);
        });
      },
      msg);
}

// A peer outside [0, p) must abort when its op executes, before it
// indexes past the per-rank state: with p = 2, a send to 2 or a
// receive from -1 names no rank.
TEST(DesDeathTest, PeerOutsideTheProgramAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const tofud_params net;
  const auto place = torus_placement::line(2);
  const char* const msg = "precondition failed: op.peer >= 0 && op.peer < p";
  sim_program misaddressed(2);
  misaddressed.rank(0) = {sim_op::send_to(2, 64), sim_op::recv_from(1, 64)};
  EXPECT_DEATH(simulate(misaddressed, net, place), msg);
  sim_program negative(2);
  negative.rank(1) = {sim_op::recv_from(-1, 64)};
  EXPECT_DEATH(simulate(negative, net, place), msg);
}

// A receive no send ever matches deadlocks the program: its rank stays
// blocked, no pass is left to run, and the engine reaches its deadlock
// check instead of waiting forever.
TEST(DesDeathTest, UnmatchedReceiveDeadlocks) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const tofud_params net;
  sim_program prog(2);
  prog.rank(0) = {sim_op::recv_from(1, 64)};
  EXPECT_DEATH(simulate(prog, net, torus_placement::line(2)),
               "sim_program deadlocked");
}

// Building a program leaves no trace: tracing a run that builds DES
// programs must not log a collective span per simulated rank.
TEST(ProgramCapture, EmitsNoTraceEvents) {
  const tofud_params net;
  tfx::obs::start();
  const auto flat = make_allreduce_program(net, 64, 1000, 8,
                                           coll_algorithm::automatic);
  const auto hier = make_hierarchical_allreduce_program(
      net, torus_placement({2, 2, 1}, 4), 4096, 8);
  const auto events = tfx::obs::collect();
  tfx::obs::stop();
  EXPECT_FALSE(flat.ranks[0].empty());
  EXPECT_FALSE(hier.ranks[0].empty());
  for (const auto& e : events) {
    EXPECT_NE(e.dom, tfx::obs::domain::net) << e.name;
  }
}
