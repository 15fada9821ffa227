// The pooled fused RK4 step: bit-equality with the no-pool step for
// every Fig. 5 personality (Float64, Float32, Float16 compensated,
// Float16/32 mixed) across pool sizes. The ctest label `threads` runs
// these under TSan.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/threadpool.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "swm/model.hpp"

using namespace tfx;
using namespace tfx::swm;
using tfx::fp::float16;

namespace {

swm_params params_for(int nx, int ny, int log2_scale = 0) {
  swm_params p;
  p.nx = nx;
  p.ny = ny;
  if (log2_scale != 0) p.log2_scale = log2_scale;
  return p;
}

/// Bit-equality of two states, compared through double (exact for
/// every library format).
template <typename V>
void expect_bit_equal(const state<V>& a, const state<V>& b,
                      const char* what) {
  for (std::size_t k = 0; k < a.eta.size(); ++k) {
    ASSERT_EQ(static_cast<double>(a.u.flat()[k]),
              static_cast<double>(b.u.flat()[k]))
        << what << " u @" << k;
    ASSERT_EQ(static_cast<double>(a.v.flat()[k]),
              static_cast<double>(b.v.flat()[k]))
        << what << " v @" << k;
    ASSERT_EQ(static_cast<double>(a.eta.flat()[k]),
              static_cast<double>(b.eta.flat()[k]))
        << what << " eta @" << k;
  }
}

/// Run `steps` from the same seeded eddies with no pool and on a pool
/// of `threads`; the prognostic and Kahan compensation fields must
/// agree bit for bit.
template <typename T, typename Tprog = T>
void expect_pooled_matches_serial(const swm_params& p,
                                  integration_scheme scheme, int steps,
                                  int threads, std::uint64_t seed) {
  model<T, Tprog> serial(p, scheme);
  serial.seed_random_eddies(seed, 0.5);
  serial.run(steps);

  thread_pool pool(threads);
  model<T, Tprog> pooled(p, scheme);
  pooled.attach_pool(&pool);
  pooled.seed_random_eddies(seed, 0.5);
  pooled.run(steps);

  expect_bit_equal(serial.prognostic(), pooled.prognostic(), "prognostic");
  expect_bit_equal(serial.compensation(), pooled.compensation(),
                   "compensation");
}

}  // namespace

class ParallelModel : public ::testing::TestWithParam<int> {};

TEST_P(ParallelModel, BitIdenticalToSerialFloat64) {
  expect_pooled_matches_serial<double>(params_for(48, 24),
                                       integration_scheme::standard, 25,
                                       GetParam(), 21);
}

TEST_P(ParallelModel, BitIdenticalToSerialFloat32) {
  expect_pooled_matches_serial<float>(params_for(48, 24),
                                      integration_scheme::standard, 20,
                                      GetParam(), 31);
}

TEST_P(ParallelModel, BitIdenticalToSerialFloat16CompensatedWithFtz) {
  // The paper's Float16 configuration: compensated integration, FTZ on
  // (A64FX FZ16). The mode is thread-local; the pooled step carries
  // the caller's mode into the workers or this would diverge.
  fp::ftz_guard ftz(fp::ftz_mode::flush);
  expect_pooled_matches_serial<float16>(params_for(32, 16, 12),
                                        integration_scheme::compensated, 12,
                                        GetParam(), 31);
}

TEST_P(ParallelModel, BitIdenticalToSerialMixedFloat16_32) {
  fp::ftz_guard ftz(fp::ftz_mode::flush);
  expect_pooled_matches_serial<float16, float>(params_for(32, 16, 12),
                                               integration_scheme::standard,
                                               12, GetParam(), 31);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelModel,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParallelModel, Float16RunsBitIdenticalToo) {
  // The FTZ mode is thread-local; for_rows propagates the caller's
  // mode into the workers, so a flushed serial run and a flushed
  // parallel run must agree bit for bit (the event *counters* spread
  // over per-thread instances, which is fine - they are diagnostics).
  tfx::fp::ftz_guard ftz(tfx::fp::ftz_mode::flush);
  swm_params p = params_for(32, 16);
  p.log2_scale = 12;

  model<float16> serial(p, integration_scheme::compensated);
  serial.seed_random_eddies(22, 0.5);
  serial.run(15);

  thread_pool pool(4);
  model<float16> parallel(p, integration_scheme::compensated);
  parallel.attach_pool(&pool);
  parallel.seed_random_eddies(22, 0.5);
  parallel.run(15);

  const auto& a = serial.prognostic();
  const auto& b = parallel.prognostic();
  for (std::size_t k = 0; k < a.eta.size(); ++k) {
    ASSERT_EQ(a.eta.flat()[k].bits(), b.eta.flat()[k].bits()) << k;
  }
}

TEST(ParallelModel, TinyGridFallsBackToSerial) {
  // Grids smaller than 2 rows per worker skip the pool entirely (no
  // point waking 8 threads for 4 rows); this must still be correct.
  const swm_params p = params_for(16, 8);  // square cells
  thread_pool pool(8);
  model<double> m(p);
  m.attach_pool(&pool);
  m.seed_random_eddies(23, 0.4);
  m.run(10);
  EXPECT_TRUE(m.diag().finite);
}
