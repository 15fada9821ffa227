// Topology layer tests: dimension-ordered routing on the torus, the
// golden-clock oracles pinning the uncontended DES bit-for-bit and the
// contended one with its link census, the contended
// (store-and-forward) fabric's semantics, and the
// scaled-rank-count smoke with a host-time budget (the witness that
// DES keeps 1k-4k simulated ranks ctest-friendly).
//
// The golden hashes pin the *exact* virtual clocks of the pre-topology
// DES: any change to the send/recv arithmetic - however reasonable -
// must be a conscious re-baselining, not an accident.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "mpisim/des.hpp"
#include "mpisim/network.hpp"
#include "mpisim/patterns.hpp"

#include "golden_hash.hpp"

using namespace tfx;
using namespace tfx::mpisim;

namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool under_tsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool under_tsan = true;
#else
constexpr bool under_tsan = false;
#endif
#else
constexpr bool under_tsan = false;
#endif

des_options contended_fabric() {
  des_options opts;
  opts.fabric = fabric_mode::contended;
  return opts;
}

// ---------------------------------------------------------------------------
// Dimension-ordered routing.
// ---------------------------------------------------------------------------

TEST(TorusRoute, NeighborWrapsAroundEveryDimension) {
  const torus_placement place({4, 6, 16}, 1);
  // Node 0 sits at (0,0,0): the negative neighbour in each dimension
  // is the wraparound node at coordinate n-1.
  EXPECT_EQ(place.neighbor_of(0, 0, +1), place.node_at({1, 0, 0}));
  EXPECT_EQ(place.neighbor_of(0, 0, -1), place.node_at({3, 0, 0}));
  EXPECT_EQ(place.neighbor_of(0, 1, -1), place.node_at({0, 5, 0}));
  EXPECT_EQ(place.neighbor_of(0, 2, -1), place.node_at({0, 0, 15}));
  // Walking +1 n times in a dimension returns home.
  for (int dim = 0; dim < 3; ++dim) {
    int node = 17;
    const int n = place.shape()[static_cast<std::size_t>(dim)];
    for (int s = 0; s < n; ++s) node = place.neighbor_of(node, dim, +1);
    EXPECT_EQ(node, 17) << "dim " << dim;
  }
}

TEST(TorusRoute, RouteLengthEqualsHopsEverywhere) {
  const torus_placement place({4, 6, 16}, 1);
  for (int a = 0; a < place.node_count(); a += 7) {
    for (int b = 0; b < place.node_count(); b += 11) {
      const auto route = place.route_of(a, b);
      EXPECT_EQ(static_cast<int>(route.size()), place.hops(a, b))
          << "route " << a << " -> " << b;
      for (const int id : route) {
        EXPECT_GE(id, 0);
        EXPECT_LT(id, place.link_count());
      }
    }
  }
}

TEST(TorusRoute, SelfRouteIsEmpty) {
  const torus_placement place({4, 6, 16}, 1);
  EXPECT_TRUE(place.route_of(5, 5).empty());
  EXPECT_EQ(place.hops(5, 5), 0);
}

TEST(TorusRoute, TakesShorterWayAroundAndBreaksTiesPositive) {
  // One dimension of size 6: distance 2 forward beats 4 backward;
  // distance 3 is a tie and must resolve to the positive direction.
  const torus_placement place({6, 1, 1}, 1);
  {
    const auto route = place.route_of(0, 2);
    ASSERT_EQ(route.size(), 2u);
    for (const int id : route) {
      EXPECT_EQ(place.link_at(id).dir, +1);
    }
  }
  {
    const auto route = place.route_of(0, 4);  // 2 hops backward, not 4
    ASSERT_EQ(route.size(), 2u);
    for (const int id : route) {
      EXPECT_EQ(place.link_at(id).dir, -1);
    }
  }
  {
    const auto route = place.route_of(1, 4);  // tie: 3 either way
    ASSERT_EQ(route.size(), 3u);
    for (const int id : route) {
      EXPECT_EQ(place.link_at(id).dir, +1) << "tie must go positive";
    }
  }
}

TEST(TorusRoute, IsDimensionOrderedAndContiguous) {
  const torus_placement place({4, 6, 16}, 1);
  const int a = place.node_at({3, 1, 14});
  const int b = place.node_at({1, 4, 2});
  const auto route = place.route_of(a, b);
  int cur = a;
  int last_dim = 0;
  for (const int id : route) {
    const torus_link l = place.link_at(id);
    EXPECT_GE(l.dim, last_dim) << "x, then y, then z - never backtrack";
    last_dim = l.dim;
    EXPECT_EQ(l.node, cur) << "each link leaves the node the walk is at";
    cur = place.neighbor_of(cur, l.dim, l.dir);
  }
  EXPECT_EQ(cur, b);
}

TEST(TorusRoute, ReverseRouteNeedNotMirrorButLengthsAgree) {
  const torus_placement place({4, 6, 16}, 1);
  const int a = place.node_at({0, 1, 3});
  const int b = place.node_at({2, 5, 9});
  EXPECT_EQ(place.route_of(a, b).size(), place.route_of(b, a).size());
}

TEST(TorusRoute, LinkIdsRoundTripThroughLinkAt) {
  const torus_placement place({3, 4, 5}, 1);
  EXPECT_EQ(place.link_count(), place.node_count() * 6);
  for (int node = 0; node < place.node_count(); node += 3) {
    for (int dim = 0; dim < 3; ++dim) {
      for (const int dir : {+1, -1}) {
        const int id = place.link_id(node, dim, dir);
        const torus_link l = place.link_at(id);
        EXPECT_EQ(l.node, node);
        EXPECT_EQ(l.dim, dim);
        EXPECT_EQ(l.dir, dir);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden clocks: the uncontended DES is the bit-exact oracle.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::vector<double>& v) {
  tfx::test::fnv1a h;
  h.values(v);
  return h.h;
}

struct golden_case {
  const char* name;
  std::uint64_t hash;
};

TEST(DesGolden, UncontendedClocksMatchPreTopologyBaseline) {
  const tofud_params net;

  const auto check = [&](const golden_case& want, const sim_program& prog,
                         const torus_placement& place) {
    const auto res = simulate(prog, net, place);
    EXPECT_EQ(fnv1a(res.clocks), want.hash) << want.name;
    // The explicit uncontended option is the same code path.
    des_options opts;
    opts.fabric = fabric_mode::uncontended;
    const auto res2 = simulate(prog, net, place, {}, nullptr, opts);
    EXPECT_EQ(res2.clocks, res.clocks) << want.name;
  };

  {
    const torus_placement place({4, 6, 16}, 4);  // Fig. 3: 1536 ranks
    const int p = place.rank_count();
    check({"fig3 allreduce rdbl 64B", 0x40d622af6d0ae913ull},
          make_allreduce_program(net, p, 8, 8,
                                 coll_algorithm::recursive_doubling),
          place);
    check({"fig3 allreduce rab 512KiB", 0xfc542e03a7471eabull},
          make_allreduce_program(net, p, 65536, 8,
                                 coll_algorithm::rabenseifner),
          place);
    check({"fig3 gatherv 4KiB", 0xfd9c7f2dc69c57ffull},
          make_gatherv_program(p, 512, 8, 0), place);
    check({"fig3 bcast 64KiB", 0x257a3b8502238011ull},
          make_bcast_program(p, 8192, 8, 0), place);
    check({"fig3 barrier", 0x2b7ef9563637cea3ull}, make_barrier_program(p),
          place);
  }
  {
    const torus_placement place({8, 8, 4}, 4);  // 1024 ranks
    const int p = place.rank_count();
    check({"1024 allreduce ring 64KiB", 0xd197d65eec7206a3ull},
          make_allreduce_program(net, p, 8192, 8, coll_algorithm::ring),
          place);
    check({"1024 reduce 32KiB", 0x91d2a300461c067eull},
          make_reduce_program(net, p, 4096, 8, 3), place);
    check({"1024 allgather 1KiB", 0xfb327e66acf0b283ull},
          make_allgather_program(p, 128, 8), place);
  }
}

// The contended fabric's golden: the clocks plus the whole link census,
// so a change to the route walk or the link ids shows even where the
// clocks would survive it.
TEST(DesGolden, ContendedClocksAndLinkCensus) {
  const tofud_params net;

  const auto check = [&](const golden_case& want, const sim_program& prog,
                         const torus_placement& place) {
    const auto res =
        simulate(prog, net, place, {}, nullptr, contended_fabric());
    tfx::test::fnv1a h;
    h.values(res.clocks);
    h.value(res.links.routed_messages);
    h.value(res.links.link_hops);
    h.value(res.links.contended_hops);
    h.value(res.links.wait_seconds);
    h.value(res.links.max_link_busy_s);
    h.value(res.links.max_link);
    EXPECT_EQ(h.h, want.hash) << want.name << ": got 0x" << std::hex << h.h;
  };

  {
    const torus_placement place({4, 6, 16}, 4);  // Fig. 3: 1536 ranks
    const int p = place.rank_count();
    check({"fig3 allreduce rdbl 64B", 0xfa624f30df1ef81bull},
          make_allreduce_program(net, p, 8, 8,
                                 coll_algorithm::recursive_doubling),
          place);
    check({"fig3 allreduce rab 1MiB", 0xe343705b1652a13bull},
          make_allreduce_program(net, p, 131072, 8,
                                 coll_algorithm::rabenseifner),
          place);
    check({"fig3 gatherv 4KiB", 0x7a10272d25d793caull},
          make_gatherv_program(p, 512, 8, 0), place);
    check({"fig3 reduce 32KiB", 0x4e3d188d2035461full},
          make_reduce_program(net, p, 4096, 8, 0), place);
  }
  {
    const torus_placement place({8, 8, 16}, 4);  // 4096 ranks
    check({"4096 hierarchical allreduce 8KiB", 0x45a8f0dc2a6a0405ull},
          make_hierarchical_allreduce_program(net, place, 1024, 8), place);
  }
  {
    // Pass order: rank 3's two sends wake ranks 0 and 2. Rank 0 runs
    // first and wakes rank 1, which runs in the same pass because its
    // index is higher, so rank 1's 1 MiB takes link 2->3 before rank
    // 2's and rank 2's waits (1 contended hop). Deferring rank 1 to
    // the next pass would swap the two messages on that link.
    const auto place = torus_placement::line(4);
    const std::size_t mib = std::size_t{1} << 20;
    sim_program prog(4);
    prog.rank(0) = {sim_op::recv_from(3, 8), sim_op::send_to(1, 8)};
    prog.rank(1) = {sim_op::recv_from(0, 8), sim_op::send_to(3, mib)};
    prog.rank(2) = {sim_op::recv_from(3, 8), sim_op::send_to(3, mib)};
    prog.rank(3) = {sim_op::send_to(0, 8), sim_op::send_to(2, 8),
                    sim_op::recv_from(1, mib), sim_op::recv_from(2, mib)};
    check({"line(4) pass order", 0xb7459ada3986696aull}, prog, place);
  }
}

// ---------------------------------------------------------------------------
// Contended-fabric semantics.
// ---------------------------------------------------------------------------

TEST(DesContention, UncontendedRunsLeaveLinkStatsEmpty) {
  const tofud_params net;
  const torus_placement place({4, 4, 1}, 4);
  const auto prog =
      make_allreduce_program(net, place.rank_count(), 1024, 8,
                             coll_algorithm::ring);
  const auto res = simulate(prog, net, place);
  EXPECT_EQ(res.links.routed_messages, 0u);
  EXPECT_EQ(res.links.link_hops, 0u);
  EXPECT_EQ(res.links.wait_seconds, 0.0);
  EXPECT_EQ(res.links.max_link, -1);
}

TEST(DesContention, ContendedNeverBeatsUncontendedAndFillsStats) {
  const tofud_params net;
  const torus_placement place({4, 4, 4}, 4);  // 256 ranks
  for (const auto algo : {coll_algorithm::ring, coll_algorithm::rabenseifner,
                          coll_algorithm::recursive_doubling}) {
    const auto prog =
        make_allreduce_program(net, place.rank_count(), 4096, 8, algo);
    const auto plain = simulate(prog, net, place);
    const auto cont = simulate(prog, net, place, {}, nullptr,
                               contended_fabric());
    ASSERT_EQ(cont.clocks.size(), plain.clocks.size());
    for (std::size_t r = 0; r < cont.clocks.size(); ++r) {
      EXPECT_GE(cont.clocks[r], plain.clocks[r]) << "rank " << r;
    }
    EXPECT_GT(cont.links.routed_messages, 0u);
    EXPECT_GE(cont.links.link_hops, cont.links.routed_messages);
    EXPECT_GE(cont.links.max_link, 0);
    EXPECT_GT(cont.links.max_link_busy_s, 0.0);
  }
}

TEST(DesContention, IntraNodeTrafficIsImmuneToTheFabricMode) {
  // Everything on one node: no message ever touches a torus link, so
  // the contended clocks are bit-identical to the uncontended ones.
  const tofud_params net;
  const torus_placement place({1, 1, 1}, 16);
  for (const auto algo :
       {coll_algorithm::ring, coll_algorithm::recursive_doubling}) {
    const auto prog =
        make_allreduce_program(net, place.rank_count(), 2048, 8, algo);
    const auto plain = simulate(prog, net, place);
    const auto cont =
        simulate(prog, net, place, {}, nullptr, contended_fabric());
    EXPECT_EQ(cont.clocks, plain.clocks);
    EXPECT_EQ(cont.links.routed_messages, 0u);
    EXPECT_EQ(cont.links.wait_seconds, 0.0);
  }
}

TEST(DesContention, SingleSinkIncastQueuesOnTheRootLinks) {
  // 1535 ranks funnel into rank 0: the contended fabric must observe
  // real queueing (hops that found their link busy) even though the
  // cold-op makespan stays bounded by the root's ejection port.
  const tofud_params net;
  const torus_placement place({4, 6, 16}, 4);
  const auto prog = make_gatherv_program(place.rank_count(), 512, 8, 0);
  const auto cont =
      simulate(prog, net, place, {}, nullptr, contended_fabric());
  EXPECT_EQ(cont.links.routed_messages, 1532u);  // 1535 minus 3 local
  EXPECT_GT(cont.links.contended_hops, 0u);
  EXPECT_GT(cont.links.wait_seconds, 0.0);
}

TEST(DesContention, FaultPlaneComposesWithTheContendedFabric) {
  // Chaos + contention: the delivered copy of every retried message is
  // routed over the links; clocks stay >= the uncontended chaos run.
  const tofud_params net;
  const torus_placement place({4, 2, 1}, 4);
  const auto prog = make_allreduce_program(net, place.rank_count(), 512, 8,
                                           coll_algorithm::ring);
  fault_config cfg;
  cfg.seed = 5;
  cfg.probs.drop = 0.05;
  cfg.probs.delay = 0.05;
  cfg.retry.max_retries = 30;
  fault_plane faults(cfg);
  const auto plain = simulate(prog, net, place, {}, &faults);
  const auto cont =
      simulate(prog, net, place, {}, &faults, contended_fabric());
  ASSERT_EQ(cont.clocks.size(), plain.clocks.size());
  for (std::size_t r = 0; r < cont.clocks.size(); ++r) {
    EXPECT_GE(cont.clocks[r], plain.clocks[r]) << "rank " << r;
  }
  EXPECT_EQ(cont.stats.sends, plain.stats.sends);
  EXPECT_EQ(cont.stats.retries, plain.stats.retries);
  EXPECT_TRUE(cont.crashed.empty());
}

// ---------------------------------------------------------------------------
// Scale smoke: the refactor's host-time budget, ctest-friendly.
// ---------------------------------------------------------------------------

double run_and_time_ms(const sim_program& prog, const tofud_params& net,
                       const torus_placement& place, des_options opts = {}) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = simulate(prog, net, place, {}, nullptr, opts);
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_GT(res.max_clock(), 0.0);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

TEST(DesScale, Fig3RankCountSimulatesWithinBudget) {
  const tofud_params net;
  const torus_placement place({4, 6, 16}, 4);  // 1536 ranks
  const auto prog =
      make_allreduce_program(net, place.rank_count(), 8, 8,
                             coll_algorithm::recursive_doubling);
  const double ms = run_and_time_ms(prog, net, place);
  const double cont_ms =
      run_and_time_ms(prog, net, place, contended_fabric());
  // Release builds simulate this in ~0.3 ms uncontended and ~0.7-1.1 ms
  // contended (a 4-core AVX-512 EPYC guest); the budget leaves room for
  // debug/sanitizer builds without tolerating a complexity regression.
  const double budget_ms = under_tsan ? 30000.0 : 5000.0;
  EXPECT_LT(ms, budget_ms);
  EXPECT_LT(cont_ms, budget_ms);
}

TEST(DesScale, FourThousandRanksSimulateWithinBudget) {
  const tofud_params net;
  const torus_placement place({8, 8, 16}, 4);  // 4096 ranks
  const int p = place.rank_count();
  ASSERT_EQ(p, 4096);
  const double small_ms = run_and_time_ms(
      make_allreduce_program(net, p, 8, 8, coll_algorithm::recursive_doubling),
      net, place);
  const double large_ms = run_and_time_ms(
      make_allreduce_program(net, p, 1 << 17, 8, coll_algorithm::rabenseifner),
      net, place);
  // Release: ~1.5-2.4 ms / ~2.4-3.3 ms to simulate on a 4-core AVX-512
  // EPYC guest (the pre-refactor engine took ~96 ms / ~85 ms to build
  // and simulate on an older host, and scaled super-linearly with rank
  // count).
  const double budget_ms = under_tsan ? 60000.0 : 10000.0;
  EXPECT_LT(small_ms, budget_ms);
  EXPECT_LT(large_ms, budget_ms);
}

TEST(DesScale, HierarchicalProgramSimulatesAtScale) {
  const tofud_params net;
  const torus_placement place({8, 8, 16}, 4);
  const auto prog = make_hierarchical_allreduce_program(net, place, 1024, 8);
  const auto res = simulate(prog, net, place);
  ASSERT_EQ(static_cast<int>(res.clocks.size()), place.rank_count());
  EXPECT_GT(res.max_clock(), 0.0);
  const auto cont =
      simulate(prog, net, place, {}, nullptr, contended_fabric());
  EXPECT_GE(cont.max_clock(), res.max_clock());
}

}  // namespace
