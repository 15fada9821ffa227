// Distributed (domain-decomposed) shallow-water model over the
// simulated MPI: bit-equality against the serial model, compensated
// integration, collective diagnostics, Float16 operation, and the
// serial model's preconditions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>

#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "kernels/dispatch.hpp"
#include "mpisim/runtime.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"

using namespace tfx;
using namespace tfx::swm;
using tfx::fp::float16;

namespace {

swm_params small_params() {
  swm_params p;
  p.nx = 32;
  p.ny = 16;
  return p;
}

/// Run the serial model `steps` steps from the standard seed.
template <typename T>
state<T> serial_trajectory(const swm_params& p, int steps,
                           integration_scheme scheme) {
  model<T> m(p, scheme);
  m.seed_random_eddies(7, 0.5);
  m.run(steps);
  return m.prognostic();
}

/// The initial state the distributed ranks adopt.
template <typename T>
state<T> initial_state(const swm_params& p) {
  model<T> m(p);
  m.seed_random_eddies(7, 0.5);
  return m.prognostic();
}

}  // namespace

class DistributedRanks : public ::testing::TestWithParam<int> {};

// The serial trajectory runs at the default width; the ranks run
// eval_rhs's pass calls and the sweeps at every width, so the baseline,
// AVX2 and AVX-512F copies (kernels/dispatch.hpp) are each held to it.
TEST_P(DistributedRanks, BitEqualToSerialFloat64) {
  const int p = GetParam();
  const swm_params params = small_params();
  ASSERT_EQ(params.ny % p, 0);
  const int steps = 20;

  const auto init = initial_state<double>(params);
  const auto serial =
      serial_trajectory<double>(params, steps, integration_scheme::standard);

  for (const std::size_t width : {0, 128, 256, 512}) {
    ASSERT_TRUE(kernels::set_simd_width(width));
    mpisim::world w(p);
    w.run([&](mpisim::communicator& comm) {
      distributed_model<double> dm(comm, params);
      dm.set_from_global(init);
      dm.run(steps);
      const auto global = dm.gather_global();
      for (int j = 0; j < params.ny; ++j) {
        for (int i = 0; i < params.nx; ++i) {
          ASSERT_EQ(global.u(i, j), serial.u(i, j))
              << "width " << width << ": " << i << "," << j;
          ASSERT_EQ(global.v(i, j), serial.v(i, j))
              << "width " << width << ": " << i << "," << j;
          ASSERT_EQ(global.eta(i, j), serial.eta(i, j))
              << "width " << width << ": " << i << "," << j;
        }
      }
    });
  }
  kernels::reset_simd_width();
}

TEST_P(DistributedRanks, CompensatedSchemeAlsoBitEqual) {
  const int p = GetParam();
  const swm_params params = small_params();
  const int steps = 12;

  const auto init = initial_state<double>(params);
  const auto serial = serial_trajectory<double>(
      params, steps, integration_scheme::compensated);

  mpisim::world w(p);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params,
                                 integration_scheme::compensated);
    dm.set_from_global(init);
    dm.run(steps);
    const auto global = dm.gather_global();
    for (int j = 0; j < params.ny; ++j) {
      for (int i = 0; i < params.nx; ++i) {
        ASSERT_EQ(global.u(i, j), serial.u(i, j)) << i << "," << j;
        ASSERT_EQ(global.v(i, j), serial.v(i, j)) << i << "," << j;
        ASSERT_EQ(global.eta(i, j), serial.eta(i, j)) << i << "," << j;
      }
    }
  });
}

TEST_P(DistributedRanks, Float16CompensatedBitEqualToSerial) {
  // Float16 flushes subnormal results per thread (A64FX FZ16), so the
  // serial oracle and every rank thread run under the same flush mode.
  const int p = GetParam();
  swm_params params = small_params();
  params.log2_scale = 12;
  const int steps = 10;
  state<float16> init, serial;
  {
    fp::ftz_guard ftz(fp::ftz_mode::flush);
    init = initial_state<float16>(params);
    serial = serial_trajectory<float16>(params, steps,
                                        integration_scheme::compensated);
  }
  mpisim::world w(p);
  w.run([&](mpisim::communicator& comm) {
    fp::ftz_guard ftz(fp::ftz_mode::flush);
    distributed_model<float16> dm(comm, params,
                                  integration_scheme::compensated);
    dm.set_from_global(init);
    dm.run(steps);
    const auto global = dm.gather_global();
    for (int j = 0; j < params.ny; ++j) {
      for (int i = 0; i < params.nx; ++i) {
        ASSERT_EQ(global.u(i, j).bits(), serial.u(i, j).bits())
            << i << "," << j;
        ASSERT_EQ(global.v(i, j).bits(), serial.v(i, j).bits())
            << i << "," << j;
        ASSERT_EQ(global.eta(i, j).bits(), serial.eta(i, j).bits())
            << i << "," << j;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedRanks,
                         ::testing::Values(1, 2, 4, 8));

TEST(Distributed, GlobalMaxSpeedMatchesSerialDiagnostic) {
  const swm_params params = small_params();
  const auto init = initial_state<double>(params);

  model<double> serial(params);
  serial.prognostic() = init;
  const double expected = serial.diag().max_speed;

  mpisim::world w(4);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    EXPECT_NEAR(dm.global_max_speed(), expected, 1e-15);
  });
}

TEST(Distributed, Float16RunsWithScalingAndFtz) {
  swm_params params = small_params();
  params.log2_scale = 12;
  mpisim::world w(4);
  w.run([&](mpisim::communicator& comm) {
    fp::ftz_guard ftz(fp::ftz_mode::flush);  // per rank thread
    distributed_model<float16> dm(comm, params,
                                  integration_scheme::compensated);
    // Seed from a serial float16 model for a realistic field.
    model<float16> seeder(params);
    seeder.seed_random_eddies(7, 0.5);
    dm.set_from_global(seeder.prognostic());
    dm.run(15);
    const auto global = dm.gather_global();
    for (const auto& v : global.eta.flat()) {
      ASSERT_TRUE(v.isfinite());
    }
  });
}

TEST(Distributed, SlabIndexingAndHalos) {
  slab<double> s(4, 3);
  s.fill(0.0);
  s(1, -2) = -2.0;  // halo below, two rows deep
  s(1, -1) = -1.0;
  s(2, 3) = 3.0;    // halo above, two rows deep
  s(2, 4) = 4.0;
  s(0, 0) = 5.0;
  EXPECT_EQ(s(1, -2), -2.0);
  EXPECT_EQ(s(1, -1), -1.0);
  EXPECT_EQ(s(2, 3), 3.0);
  EXPECT_EQ(s(2, 4), 4.0);
  EXPECT_EQ(s.interior()[0], 5.0);
  EXPECT_EQ(s.interior().size(), 12u);
  EXPECT_EQ(s.row(0).size(), 4u);
  EXPECT_EQ(s.ip(3), 0);
  EXPECT_EQ(s.im(0), 3);
}

TEST(Distributed, HaloExchangeMovesNeighbourRows) {
  mpisim::world w(3);
  w.run([](mpisim::communicator& comm) {
    const int r = comm.rank();
    slab_state<double> s(2, 2);
    s.fill(static_cast<double>(r));
    halo_exchanger<double> halo(comm, 2);
    halo.start(s);
    halo.finish();
    const int up = (r + 1) % 3;
    const int down = (r - 1 + 3) % 3;
    EXPECT_EQ(s.u(0, -1), static_cast<double>(down));
    EXPECT_EQ(s.u(0, 2), static_cast<double>(up));
    EXPECT_EQ(s.u(0, 0), static_cast<double>(r));  // interior untouched
  });
}

TEST(Distributed, CrashedRankFailsTheStepLoudly) {
  // A crashed neighbour must surface as a typed comm_error from the
  // halo exchange - annotated with the exchange context - never as a
  // hang. Rank 1 dies by schedule before its first halo send; the
  // crash notice cascades through the ring so every rank fails.
  const swm_params params = small_params();
  const auto init = initial_state<double>(params);

  mpisim::world w(4);
  mpisim::fault_config cfg;
  cfg.crashes.push_back({1, 0});
  w.set_faults(cfg);
  try {
    w.run([&](mpisim::communicator& comm) {
      distributed_model<double> dm(comm, params);
      dm.set_from_global(init);
      dm.run(5);
    });
    FAIL() << "expected comm_error, got a completed run";
  } catch (const mpisim::comm_error& e) {
    EXPECT_EQ(e.why(), mpisim::comm_error::reason::peer_crashed) << e.what();
    EXPECT_NE(std::string(e.what()).find("halo exchange"), std::string::npos)
        << e.what();
  }
  const auto& crashed = w.last_fault_report().crashed;
  EXPECT_NE(std::find(crashed.begin(), crashed.end(), 1), crashed.end());
}

TEST(DistributedDeathTest, NonSquareCellsAbortLikeTheSerialModel) {
  // The discretisation assumes dx == dy (the v-equation's vorticity
  // term uses dt/dx); the serial model rejects other cells, and so
  // must every rank of the distributed one.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  swm_params params = small_params();
  params.ny = params.nx;  // the default Lx = 2 Ly makes dx = 2 dy
  ASSERT_GT(std::abs(params.dx() - params.dy()), 0.0);
  EXPECT_DEATH(model<double>{params}, "p.dx\\(\\) - p.dy\\(\\)");
  EXPECT_DEATH(
      {
        mpisim::world w(2);
        w.run([&](mpisim::communicator& comm) {
          distributed_model<double> dm(comm, params);
          dm.run(2);
        });
      },
      "p.dx\\(\\) - p.dy\\(\\)");
}

TEST(Distributed, DecompositionArithmetic) {
  const swm_params params = small_params();  // ny = 16
  mpisim::world w(4);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    EXPECT_EQ(dm.local_ny(), 4);
    EXPECT_EQ(dm.global_j0(), comm.rank() * 4);
  });
}

TEST(Distributed, UnevenDecompositionArithmetic) {
  // 18 rows over 4 ranks: heights 5,5,4,4 at offsets 0,5,10,14; the
  // heights sum to ny and the offsets are their prefix sums.
  EXPECT_EQ(slab_rows(18, 4, 0), 5);
  EXPECT_EQ(slab_rows(18, 4, 1), 5);
  EXPECT_EQ(slab_rows(18, 4, 2), 4);
  EXPECT_EQ(slab_rows(18, 4, 3), 4);
  EXPECT_EQ(slab_offset(18, 4, 0), 0);
  EXPECT_EQ(slab_offset(18, 4, 1), 5);
  EXPECT_EQ(slab_offset(18, 4, 2), 10);
  EXPECT_EQ(slab_offset(18, 4, 3), 14);
  for (const auto& [ny, p] : {std::pair{17, 5}, {11, 3}, {16, 4}}) {
    int sum = 0;
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(slab_offset(ny, p, r), sum) << ny << "/" << p << "@" << r;
      sum += slab_rows(ny, p, r);
    }
    EXPECT_EQ(sum, ny) << ny << "/" << p;
  }
}

// (nx, ny, p): ny % p != 0 and odd nx - decompositions the historical
// model rejected outright.
class DistributedUneven
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DistributedUneven, BitEqualToSerialBothSchemes) {
  const auto [nx, ny, p] = GetParam();
  swm_params params;
  params.nx = nx;
  params.ny = ny;
  params.Ly = params.Lx * ny / nx;  // keep the cells square (dx == dy)
  const int steps = 8;
  for (const auto scheme :
       {integration_scheme::standard, integration_scheme::compensated}) {
    const auto init = initial_state<double>(params);
    const auto serial = serial_trajectory<double>(params, steps, scheme);
    mpisim::world w(p);
    w.run([&](mpisim::communicator& comm) {
      distributed_model<double> dm(comm, params, scheme);
      EXPECT_EQ(dm.local_ny(), slab_rows(ny, p, comm.rank()));
      EXPECT_EQ(dm.global_j0(), slab_offset(ny, p, comm.rank()));
      dm.set_from_global(init);
      dm.run(steps);
      const auto global = dm.gather_global();
      for (int j = 0; j < params.ny; ++j) {
        for (int i = 0; i < params.nx; ++i) {
          ASSERT_EQ(global.u(i, j), serial.u(i, j)) << i << "," << j;
          ASSERT_EQ(global.v(i, j), serial.v(i, j)) << i << "," << j;
          ASSERT_EQ(global.eta(i, j), serial.eta(i, j)) << i << "," << j;
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, DistributedUneven,
                         ::testing::Values(std::make_tuple(31, 18, 4),
                                           std::make_tuple(33, 11, 3),
                                           std::make_tuple(32, 17, 5)));
