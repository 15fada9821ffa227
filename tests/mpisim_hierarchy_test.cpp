// CMG/node-aware hierarchy conformance suite (mpisim/hierarchical.hpp).
//
// The contract: the hierarchy handle's collectives produce the SAME
// bits as the flat algorithms - across every transport, world size,
// and root - because intra-node reduction uses the same child order as
// the flat binomial tree and the tested operators are either
// order-insensitive (min/max) or exact (sums of integer-valued
// doubles). On top of the bitwise contract:
//   * steady state is allocation-free (operator-new-counted): the two
//     sub-communicator splits happen once at construction, the scratch
//     arena grows to the largest payload and stops - unlike the
//     one-shot hierarchical_allreduce, which re-splits per call;
//   * the DES program captured from the same code
//     (make_hierarchical_allreduce_program) reproduces the threaded
//     runtime's virtual clocks exactly;
//   * chaos schedules leave results and virtual clocks bit-equal to
//     the same schedule run over shm, and crash schedules fail with
//     the same typed errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "mpisim/des.hpp"
#include "mpisim/hierarchical.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/transport.hpp"

using namespace tfx;
using namespace tfx::mpisim;

// ---------------------------------------------------------------------------
// Global allocation counter (the ensemble_stress_test idiom): every
// operator new in the process bumps it, so a window of zero proves the
// steady state touched no heap.
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

transport_options topt_for(transport_kind kind) {
  transport_options topt;
  topt.kind = kind;
  return topt;
}

#define SKIP_WITHOUT_LOOPBACK(kind)                                  \
  do {                                                               \
    if ((kind) == transport_kind::socket &&                          \
        !transport_manager::loopback_available()) {                  \
      GTEST_SKIP() << "loopback TCP unavailable in this sandbox";    \
    }                                                                \
  } while (0)

/// Integer-valued per-rank inputs: double sums over them are exact, so
/// any reduction order produces the same bits.
std::vector<double> input_for(int rank, std::size_t count) {
  std::vector<double> in(count);
  for (std::size_t i = 0; i < count; ++i) {
    in[i] = static_cast<double>((rank + 1) * 3 + static_cast<int>(i % 17));
  }
  return in;
}

struct run_result {
  std::vector<std::vector<double>> per_rank;
  std::vector<double> clocks;

  bool operator==(const run_result&) const = default;
};

/// Drive `body(comm, hierarchy&, out)` on a fresh world of the given
/// placement and transport; returns every rank's result buffer and the
/// final virtual clocks.
template <typename Body>
run_result hierarchy_run(const torus_placement& place, transport_kind kind,
                         const Body& body,
                         const fault_config* faults = nullptr) {
  world w(place, tofud_params{}, topt_for(kind));
  if (faults != nullptr) w.set_faults(*faults);
  run_result out;
  out.per_rank.resize(static_cast<std::size_t>(place.rank_count()));
  w.run([&](communicator& comm) {
    hierarchy h(comm);
    body(comm, h, out.per_rank[static_cast<std::size_t>(comm.rank())]);
  });
  out.clocks = w.final_clocks();
  return out;
}

// ---------------------------------------------------------------------------
// The conformance matrix: transport x placement.
// ---------------------------------------------------------------------------

struct matrix_case {
  transport_kind kind;
  std::array<int, 3> shape;
  int per_node;
};

class HierarchyConformance
    : public ::testing::TestWithParam<
          std::tuple<transport_kind, std::pair<std::array<int, 3>, int>>> {
 protected:
  void SetUp() override {
    kind_ = std::get<0>(GetParam());
    const auto& [shape, per_node] = std::get<1>(GetParam());
    SKIP_WITHOUT_LOOPBACK(kind_);
    place_.emplace(shape, per_node);
  }

  torus_placement& place() { return *place_; }

  transport_kind kind_ = transport_kind::shm;
  std::optional<torus_placement> place_;
};

TEST_P(HierarchyConformance, AllreduceMatchesFlatBitwise) {
  constexpr std::size_t count = 193;
  const auto flat = [&](communicator& comm, hierarchy&,
                        std::vector<double>& out) {
    const auto in = input_for(comm.rank(), count);
    out.resize(count);
    allreduce(comm, std::span<const double>(in), std::span<double>(out),
              ops::sum{});
  };
  const auto hier = [&](communicator& comm, hierarchy& h,
                        std::vector<double>& out) {
    const auto in = input_for(comm.rank(), count);
    out.resize(count);
    h.allreduce(std::span<const double>(in), std::span<double>(out),
                ops::sum{});
  };
  const auto want = hierarchy_run(place(), transport_kind::shm, flat);
  const auto got = hierarchy_run(place(), kind_, hier);
  EXPECT_EQ(got.per_rank, want.per_rank);
  // Small and large payloads cross the leader-phase algorithm switch.
  constexpr std::size_t big = 3000;  // 24 KB > allreduce_ring_threshold
  const auto flat_big = [&](communicator& comm, hierarchy&,
                            std::vector<double>& out) {
    const auto in = input_for(comm.rank(), big);
    out.resize(big);
    allreduce(comm, std::span<const double>(in), std::span<double>(out),
              ops::max{});
  };
  const auto hier_big = [&](communicator& comm, hierarchy& h,
                            std::vector<double>& out) {
    const auto in = input_for(comm.rank(), big);
    out.resize(big);
    h.allreduce(std::span<const double>(in), std::span<double>(out),
                ops::max{});
  };
  EXPECT_EQ(hierarchy_run(place(), kind_, hier_big).per_rank,
            hierarchy_run(place(), transport_kind::shm, flat_big)
                .per_rank);
}

TEST_P(HierarchyConformance, ReduceMatchesFlatAtEveryRootKind) {
  constexpr std::size_t count = 67;
  // Roots covering the three cases: a node leader, a non-leader, and
  // the last rank (leader handoff crosses the torus).
  for (const int root : {0, place().rank_count() / 2 + 1,
                         place().rank_count() - 1}) {
    const auto flat = [&](communicator& comm, hierarchy&,
                          std::vector<double>& out) {
      const auto in = input_for(comm.rank(), count);
      out.resize(count);
      reduce(comm, std::span<const double>(in), std::span<double>(out),
             ops::sum{}, root);
      if (comm.rank() != root) out.assign(count, 0.0);  // only root defined
    };
    const auto hier = [&](communicator& comm, hierarchy& h,
                          std::vector<double>& out) {
      const auto in = input_for(comm.rank(), count);
      out.resize(count);
      h.reduce(std::span<const double>(in), std::span<double>(out),
               ops::sum{}, root);
      if (comm.rank() != root) out.assign(count, 0.0);
    };
    EXPECT_EQ(hierarchy_run(place(), kind_, hier).per_rank,
              hierarchy_run(place(), transport_kind::shm, flat)
                  .per_rank)
        << "root " << root;
  }
}

TEST_P(HierarchyConformance, BcastDeliversRootBufferEverywhere) {
  constexpr std::size_t count = 129;
  for (const int root : {0, place().rank_count() - 1}) {
    const auto body = [&](communicator& comm, hierarchy& h,
                          std::vector<double>& out) {
      out = comm.rank() == root ? input_for(root, count)
                                : std::vector<double>(count, -1.0);
      h.bcast(std::span<double>(out), root);
    };
    const auto got = hierarchy_run(place(), kind_, body);
    const auto want = input_for(root, count);
    for (std::size_t r = 0; r < got.per_rank.size(); ++r) {
      EXPECT_EQ(got.per_rank[r], want) << "rank " << r << " root " << root;
    }
  }
}

TEST_P(HierarchyConformance, BarrierSeparatesEpochs) {
  // Every rank advances a rank-dependent amount; after the barrier all
  // clocks must be >= the largest pre-barrier clock.
  world w(place(), tofud_params{}, topt_for(kind_));
  const int p = place().rank_count();
  std::vector<double> before(static_cast<std::size_t>(p));
  w.run([&](communicator& comm) {
    hierarchy h(comm);
    comm.advance(1e-6 * (comm.rank() + 1));
    before[static_cast<std::size_t>(comm.rank())] = comm.now();
    h.barrier();
  });
  const double slowest =
      *std::max_element(before.begin(), before.end());
  for (const double c : w.final_clocks()) EXPECT_GE(c, slowest);
}

TEST_P(HierarchyConformance, ChaosScheduleBitIdenticalToOracle) {
  if (place().rank_count() < 2) GTEST_SKIP() << "chaos needs a peer";
  fault_config cfg;
  cfg.seed = 3;
  cfg.probs.drop = 0.06;
  cfg.probs.duplicate = 0.04;
  cfg.probs.reorder = 0.05;
  cfg.probs.delay = 0.04;
  cfg.retry.max_retries = 30;

  constexpr std::size_t count = 41;
  const auto body = [&](communicator& comm, hierarchy& h,
                        std::vector<double>& out) {
    auto in = input_for(comm.rank(), count);
    out.resize(count);
    for (int round = 0; round < 6; ++round) {
      h.allreduce(std::span<const double>(in), std::span<double>(out),
                  ops::sum{});
      for (std::size_t i = 0; i < count; ++i) in[i] = out[i] * 0.25;
    }
  };
  const auto want =
      hierarchy_run(place(), transport_kind::shm, body, &cfg);
  const auto got = hierarchy_run(place(), kind_, body, &cfg);
  EXPECT_EQ(got.per_rank, want.per_rank);
  EXPECT_EQ(got.clocks, want.clocks);
}

TEST_P(HierarchyConformance, CrashScheduleRaisesTypedError) {
  if (place().rank_count() < 2) GTEST_SKIP() << "a crash needs a peer";
  fault_config cfg;
  cfg.seed = 9;
  cfg.crashes.push_back({1, 2});
  cfg.retry.max_retries = 4;

  world w(place(), tofud_params{}, topt_for(kind_));
  w.set_faults(cfg);
  constexpr std::size_t count = 33;
  bool raised = false;
  try {
    w.run([&](communicator& comm) {
      hierarchy h(comm);
      const auto in = input_for(comm.rank(), count);
      std::vector<double> out(count);
      for (int round = 0; round < 8; ++round) {
        h.allreduce(std::span<const double>(in), std::span<double>(out),
                    ops::sum{});
      }
    });
  } catch (const comm_error& e) {
    raised = true;
    EXPECT_TRUE(e.why() == comm_error::reason::peer_crashed ||
                e.why() == comm_error::reason::retries_exhausted)
        << "unexpected reason " << static_cast<int>(e.why());
  }
  EXPECT_TRUE(raised);
  EXPECT_FALSE(w.last_fault_report().crashed.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, HierarchyConformance,
    ::testing::Combine(
        ::testing::Values(transport_kind::shm, transport_kind::socket),
        ::testing::Values(std::pair<std::array<int, 3>, int>{{1, 1, 1}, 4},
                          std::pair<std::array<int, 3>, int>{{2, 1, 1}, 4},
                          std::pair<std::array<int, 3>, int>{{2, 2, 1}, 3},
                          std::pair<std::array<int, 3>, int>{{4, 2, 1}, 2})),
    [](const auto& tp) {
      const auto& placement = std::get<1>(tp.param);
      return std::string(
                 transport_manager::name_of(std::get<0>(tp.param))) +
             "_n" +
             std::to_string(placement.first[0] * placement.first[1] *
                            placement.first[2]) +
             "x" + std::to_string(placement.second);
    });

// ---------------------------------------------------------------------------
// Allocation discipline.
// ---------------------------------------------------------------------------

std::uint64_t allocs_during(const auto& fn) {
  const std::uint64_t before = g_allocs.load();
  fn();
  return g_allocs.load() - before;
}

TEST(HierarchyAllocation, SteadyStateIsAllocationFreeAtTheLayer) {
  // One rank: the transport below moves no messages, so every
  // allocation in the window would be the hierarchy's own. After the
  // first call sized the scratch arena, further calls must be clean -
  // the old free-function composition allocated two sub-communicators
  // and a partial vector per call.
  world w(torus_placement({1, 1, 1}, 1), tofud_params{});
  w.run([&](communicator& comm) {
    hierarchy h(comm);
    constexpr std::size_t count = 4096;
    const auto in = input_for(comm.rank(), count);
    std::vector<double> out(count);
    h.allreduce(std::span<const double>(in), std::span<double>(out),
                ops::sum{});  // warmup: scratch arena grows here
    const std::uint64_t during = allocs_during([&] {
      for (int it = 0; it < 64; ++it) {
        h.allreduce(std::span<const double>(in), std::span<double>(out),
                    ops::sum{});
        h.reduce(std::span<const double>(in), std::span<double>(out),
                 ops::sum{}, 0);
        h.bcast(std::span<double>(out), 0);
        h.barrier();
      }
    });
    EXPECT_EQ(during, 0u)
        << "hierarchy steady state allocated " << during << " times";
  });
}

TEST(HierarchyAllocation, CachedHandleBeatsPerCallResplit) {
  // Multi-rank: messaging itself allocates (wire payloads), so compare
  // totals - the cached handle must save at least the per-call split
  // machinery the one-shot hierarchical_allreduce pays 32 times.
  const torus_placement place({2, 2, 1}, 4);
  constexpr std::size_t count = 256;
  constexpr int iters = 32;

  const auto cached_total = allocs_during([&] {
    world w(place, tofud_params{});
    w.run([&](communicator& comm) {
      hierarchy h(comm);
      const auto in = input_for(comm.rank(), count);
      std::vector<double> out(count);
      for (int it = 0; it < iters; ++it) {
        h.allreduce(std::span<const double>(in), std::span<double>(out),
                    ops::sum{});
      }
    });
  });
  const auto resplit_total = allocs_during([&] {
    world w(place, tofud_params{});
    w.run([&](communicator& comm) {
      const auto in = input_for(comm.rank(), count);
      std::vector<double> out(count);
      for (int it = 0; it < iters; ++it) {
        hierarchical_allreduce(comm, std::span<const double>(in),
                               std::span<double>(out), ops::sum{});
      }
    });
  });
  // Each re-split pays two split() allgathers per rank per call; the
  // margin of `iters` keeps the comparison robust to scheduling noise
  // in the threaded runtime's own allocations.
  EXPECT_GT(resplit_total, cached_total + iters)
      << "cached=" << cached_total << " resplit=" << resplit_total;
}

// ---------------------------------------------------------------------------
// DES / threaded-runtime clock parity for the hierarchical program.
// ---------------------------------------------------------------------------

TEST(HierarchyDesParity, ProgramGeneratorReproducesThreadedClocks) {
  const tofud_params net;
  for (const std::size_t count : {16u, 4096u}) {  // rdoubling / rabenseifner
    const torus_placement place({2, 2, 1}, 4);
    world w(place, net);
    std::vector<double> started(
        static_cast<std::size_t>(place.rank_count()));
    w.run([&](communicator& comm) {
      hierarchy h(comm);  // split allgathers advance the clocks
      started[static_cast<std::size_t>(comm.rank())] = comm.now();
      const auto in = input_for(comm.rank(), count);
      std::vector<double> out(count);
      h.allreduce(std::span<const double>(in), std::span<double>(out),
                  ops::sum{});
    });
    const auto prog =
        make_hierarchical_allreduce_program(net, place, count, 8);
    const auto res = simulate(prog, net, place, started);
    EXPECT_EQ(res.clocks, w.final_clocks()) << "count " << count;
  }
}

}  // namespace
