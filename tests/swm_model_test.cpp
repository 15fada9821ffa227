// Shallow-water model: discrete operators, conservation, stability,
// determinism, the exactness of the power-of-two scaling, and golden
// trajectory hashes at every precision.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/threadpool.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "fp/sherlog.hpp"
#include "kernels/dispatch.hpp"
#include "swm/diagnostics.hpp"
#include "swm/model.hpp"
#include "swm/output.hpp"

#include "golden_hash.hpp"

using namespace tfx::swm;
using tfx::thread_pool;
using tfx::fp::float16;
namespace fp = tfx::fp;

namespace {

swm_params small_params() {
  swm_params p;
  p.nx = 48;
  p.ny = 24;
  return p;
}

}  // namespace

TEST(Field2d, IndexingAndWrap) {
  field2d<double> f(4, 3);
  f(0, 0) = 1.0;
  f(3, 2) = 2.0;
  EXPECT_EQ(f.flat()[0], 1.0);
  EXPECT_EQ(f.flat()[11], 2.0);
  EXPECT_EQ(f.ip(3), 0);
  EXPECT_EQ(f.im(0), 3);
  EXPECT_EQ(f.jp(2), 0);
  EXPECT_EQ(f.jm(0), 2);
  f.fill(7.0);
  EXPECT_EQ(f(2, 1), 7.0);
}

TEST(Field2d, ConvertRoundTrips) {
  field2d<double> f(5, 5);
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i < 5; ++i) f(i, j) = 0.25 * i - 0.5 * j;
  const auto g = convert_field<float>(f);
  const auto back = convert_field<double>(g);
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(back(i, j), f(i, j));  // quarters are exact in float
    }
}

TEST(Params, DerivedQuantities) {
  const swm_params p = small_params();
  EXPECT_DOUBLE_EQ(p.dx(), p.Lx / p.nx);
  // dt respects the gravity-wave CFL.
  const double c = std::sqrt(p.gravity * p.depth);
  EXPECT_LE(p.dt() * c / p.dx(), p.cfl + 1e-12);
  EXPECT_GT(p.visc_biharmonic(), 0.0);
}

TEST(Model, StableAndFiniteOverLongRun) {
  model<double> m(small_params());
  m.seed_random_eddies(1, 0.5);
  m.run(400);
  const auto d = m.diag();
  EXPECT_TRUE(d.finite);
  EXPECT_LT(d.cfl, 1.0);
  EXPECT_GT(d.energy, 0.0);
}

TEST(Model, MassConservedToRoundoff) {
  // The flux-form continuity equation conserves sum(eta) exactly in
  // exact arithmetic on periodic boundaries; in double it must stay at
  // roundoff relative to the field magnitude.
  model<double> m(small_params());
  m.seed_random_eddies(2, 0.5);
  const double area = small_params().Lx * small_params().Ly;
  m.run(250);
  const auto d = m.diag();
  const auto s = m.unscaled();
  double eta_rms = 0;
  for (double v : s.eta.flat()) eta_rms += v * v;
  eta_rms = std::sqrt(eta_rms / static_cast<double>(s.eta.size()));
  EXPECT_LT(std::abs(d.mass), 1e-9 * eta_rms * area);
}

TEST(Model, EnergyDecaysWithoutForcing) {
  swm_params p = small_params();
  p.wind_stress = 0.0;
  p.drag = 1e-5;
  model<double> m(p);
  m.seed_random_eddies(3, 0.5);
  double prev = m.diag().energy;
  for (int k = 0; k < 5; ++k) {
    m.run(40);
    const double e = m.diag().energy;
    EXPECT_LT(e, prev * 1.0001);
    prev = e;
  }
}

TEST(Model, WindSpinsUpFromRest) {
  model<double> m(small_params());  // starts at rest
  EXPECT_EQ(m.diag().energy, 0.0);
  m.run(100);
  const auto d = m.diag();
  EXPECT_GT(d.energy, 0.0);
  EXPECT_GT(d.max_speed, 0.0);
  EXPECT_TRUE(d.finite);
}

TEST(Model, DeterministicAcrossInstances) {
  model<double> a(small_params()), b(small_params());
  a.seed_random_eddies(7, 0.4);
  b.seed_random_eddies(7, 0.4);
  a.run(50);
  b.run(50);
  const auto sa = a.unscaled();
  const auto sb = b.unscaled();
  for (std::size_t k = 0; k < sa.eta.size(); ++k) {
    ASSERT_EQ(sa.eta.flat()[k], sb.eta.flat()[k]);
  }
}

TEST(Model, ScalingIsExactInFloat64) {
  // The power-of-two scaling must not change a double-precision
  // trajectory: every scale operation is exact and every coefficient
  // identical, so the unscaled states agree bit-for-bit.
  swm_params plain = small_params();
  swm_params scaled = small_params();
  scaled.log2_scale = 8;
  model<double> a(plain), b(scaled);
  a.seed_random_eddies(5, 0.5);
  b.seed_random_eddies(5, 0.5);
  a.run(60);
  b.run(60);
  const auto sa = a.unscaled();
  const auto sb = b.unscaled();
  double max_rel = 0;
  for (std::size_t k = 0; k < sa.u.size(); ++k) {
    const double d = std::abs(sa.u.flat()[k] - sb.u.flat()[k]);
    const double mag = std::abs(sa.u.flat()[k]) + 1e-30;
    max_rel = std::max(max_rel, d / mag);
  }
  EXPECT_LT(max_rel, 1e-12);
}

TEST(Model, Float32TracksFloat64) {
  model<double> a(small_params());
  model<float> b(small_params());
  a.seed_random_eddies(11, 0.5);
  b.seed_random_eddies(11, 0.5);
  a.run(150);
  b.run(150);
  const auto za = relative_vorticity(a.unscaled(), small_params());
  const auto zb = relative_vorticity(b.unscaled(), small_params());
  EXPECT_GT(correlation(za, zb), 0.999);
  EXPECT_LT(rmse(za, zb), 0.01 * rms(za) + 1e-12);
}

TEST(Model, CompensatedMatchesStandardInFloat64) {
  // At double precision the compensation is inert (corrections are
  // ~1e-16 of the state): trajectories must stay extremely close.
  model<double> a(small_params(), integration_scheme::standard);
  model<double> b(small_params(), integration_scheme::compensated);
  a.seed_random_eddies(13, 0.5);
  b.seed_random_eddies(13, 0.5);
  a.run(100);
  b.run(100);
  const auto za = relative_vorticity(a.unscaled(), small_params());
  const auto zb = relative_vorticity(b.unscaled(), small_params());
  EXPECT_GT(correlation(za, zb), 0.999999);
}

TEST(Model, GravityWaveDispersionMatchesTheory) {
  // Physics validation: a small-amplitude single-mode surface wave on
  // a non-rotating, unforced, inviscid fluid oscillates at
  // omega = sqrt(g h0) * k. Count zero crossings of eta at a probe
  // point over several periods and compare the implied frequency.
  swm_params p = small_params();
  p.coriolis_f0 = 0.0;
  p.coriolis_beta = 0.0;
  p.wind_stress = 0.0;
  p.drag = 0.0;
  p.visc_fraction = 0.0;

  model<double> m(p);
  const double amp = 0.01;  // linear regime
  for (int j = 0; j < p.ny; ++j) {
    for (int i = 0; i < p.nx; ++i) {
      m.prognostic().eta(i, j) =
          amp * std::cos(2.0 * M_PI * i / p.nx);
    }
  }

  const double k = 2.0 * M_PI / p.Lx;
  const double omega = std::sqrt(p.gravity * p.depth) * k;
  const double period = 2.0 * M_PI / omega;
  const int steps = static_cast<int>(3.0 * period / p.dt());

  int crossings = 0;
  double prev = m.prognostic().eta(0, 0);
  double t_first = 0, t_last = 0;
  for (int s = 0; s < steps; ++s) {
    m.step();
    const double cur = m.prognostic().eta(0, 0);
    if (prev * cur < 0.0) {
      ++crossings;
      const double t = m.time();
      if (crossings == 1) t_first = t;
      t_last = t;
    }
    prev = cur;
  }
  ASSERT_GE(crossings, 4);
  // Crossings are half a period apart.
  const double measured_period =
      2.0 * (t_last - t_first) / (crossings - 1);
  EXPECT_NEAR(measured_period, period, 0.05 * period);
}

// ---------------------------------------------------------------------------
// Golden trajectories. Every other bit-identity check is relative
// (distributed vs serial, pool vs pool, batched vs standalone); these
// FNV-1a hashes pin the arithmetic itself. Each case runs the serial
// model from the seeded eddies on a pool of 1 and a pool of 2 and
// hashes the prognostic and Kahan compensation values - and for
// Sherlog the exponent histogram the run filled, merged over the
// pool's threads. nx covers the periodic wrap-column edge cases (one,
// two and three columns) and an odd remainder; dx == dy throughout.
// ---------------------------------------------------------------------------

namespace {

enum class personality {
  Float64,
  Float32,
  Float64_comp,
  Float32_64,  ///< model<float, double>
  Float16_comp,
  Float16_32,  ///< model<float16, float>
  Sherlog32,
};

const char* personality_name(personality k) {
  switch (k) {
    case personality::Float64: return "Float64";
    case personality::Float32: return "Float32";
    case personality::Float64_comp: return "Float64_comp";
    case personality::Float32_64: return "Float32_64";
    case personality::Float16_comp: return "Float16_comp";
    case personality::Float16_32: return "Float16_32";
    case personality::Sherlog32: return "Sherlog32";
  }
  return "?";
}

struct golden_case {
  personality kind;
  boundary bc;
  int nx;
  std::uint64_t state_hash;  ///< prognostic + compensation values
  std::uint64_t sink_hash;   ///< sherlog_sink() histogram (Sherlog only)
};

std::string case_name(const golden_case& c) {
  return std::string(personality_name(c.kind)) +
         (c.bc == boundary::channel ? "_channel" : "_periodic") + "_nx" +
         std::to_string(c.nx);
}

void PrintTo(const golden_case& c, std::ostream* os) { *os << case_name(c); }

constexpr int golden_ny = 8;
constexpr int golden_steps = 8;

template <typename V>
void hash_fields(tfx::test::fnv1a& h, const state<V>& s) {
  for (const auto* f : {&s.u, &s.v, &s.eta}) h.values(f->flat());
}

void hash_histogram(tfx::test::fnv1a& h, const fp::exponent_histogram& hist) {
  h.value(hist.zeros());
  h.value(hist.nonfinite());
  for (int e = fp::exponent_histogram::min_exponent;
       e <= fp::exponent_histogram::max_exponent; ++e) {
    h.value(hist.count(e));
  }
}

struct golden_hashes {
  std::uint64_t state = 0;
  std::uint64_t sink = 0;
};

/// Run `fn(worker)` once on every thread of `pool`, caller included.
template <typename Fn>
void on_each_worker(thread_pool& pool, const Fn& fn) {
  const auto body = [&fn](int w, std::size_t, std::size_t) { fn(w); };
  const auto t = thread_pool::task::over_indexed(
      static_cast<std::size_t>(pool.size()), body);
  pool.parallel_region({&t, 1});
}

template <typename T, typename Tprog = T>
golden_hashes run_golden(const swm_params& p, integration_scheme scheme,
                         int threads) {
  thread_pool pool(threads);
  on_each_worker(pool, [](int) { fp::sherlog_sink().reset(); });
  model<T, Tprog> m(p, scheme);
  m.attach_pool(&pool);
  m.seed_random_eddies(7, 0.5);
  m.run(golden_steps);
  EXPECT_TRUE(m.diag().finite);
  tfx::test::fnv1a st;
  hash_fields(st, m.prognostic());
  hash_fields(st, m.compensation());
  golden_hashes out{st.h, 0};
  if constexpr (std::is_same_v<T, fp::sherlog32>) {
    std::vector<fp::exponent_histogram> parts(
        static_cast<std::size_t>(threads));
    on_each_worker(pool, [&parts](int w) {
      parts[static_cast<std::size_t>(w)] = fp::sherlog_sink();
    });
    fp::exponent_histogram all;
    for (const auto& part : parts) all.merge(part);
    tfx::test::fnv1a sink;
    hash_histogram(sink, all);
    out.sink = sink.h;
  }
  return out;
}

golden_hashes run_case(const golden_case& c, int threads) {
  swm_params p;
  p.nx = c.nx;
  p.ny = golden_ny;
  p.Lx = p.Ly * c.nx / golden_ny;  // square cells (dx == dy)
  p.bc = c.bc;
  using scheme = integration_scheme;
  // Float16 flushes subnormal results (A64FX FZ16); the RHS carries
  // the caller's mode into the pool's workers. The mode is read by the
  // soft-float types only.
  fp::ftz_guard ftz(fp::ftz_mode::flush);
  switch (c.kind) {
    case personality::Float64:
      return run_golden<double>(p, scheme::standard, threads);
    case personality::Float32:
      return run_golden<float>(p, scheme::standard, threads);
    case personality::Float64_comp:
      return run_golden<double>(p, scheme::compensated, threads);
    case personality::Float32_64:
      return run_golden<float, double>(p, scheme::standard, threads);
    case personality::Float16_comp:
      p.log2_scale = 12;
      return run_golden<float16>(p, scheme::compensated, threads);
    case personality::Float16_32:
      p.log2_scale = 12;
      return run_golden<float16, float>(p, scheme::standard, threads);
    case personality::Sherlog32:
      return run_golden<fp::sherlog32>(p, scheme::standard, threads);
  }
  return {};
}

// Recorded from the scalar-loop RHS, every x-neighbour read through
// the periodic im/ip wrap. Sherlog32 computes Float32's values (it
// records, it does not round differently), so their state hashes agree.
using enum personality;
using enum boundary;
constexpr golden_case golden_cases[] = {
    {Float64, periodic, 1, 0x7f11aab2a8d2aaaull, 0},
    {Float64, periodic, 2, 0x42df5ecccee318c1ull, 0},
    {Float64, periodic, 3, 0x6b2ce7fddf6fd696ull, 0},
    {Float64, periodic, 33, 0x59b2e1032d395df8ull, 0},
    {Float64, periodic, 64, 0x9c07d554b48cbc06ull, 0},
    {Float64, channel, 1, 0xd1b4b4cc200623cfull, 0},
    {Float64, channel, 2, 0x56ca3804a2c0839aull, 0},
    {Float64, channel, 3, 0x4d8d0944a4183b49ull, 0},
    {Float64, channel, 33, 0xa9c39971a73ee669ull, 0},
    {Float64, channel, 64, 0xc1c1162238451afeull, 0},
    {Float32, periodic, 1, 0xaf75cdf5352ae383ull, 0},
    {Float32, periodic, 2, 0xb1a040f3407c5d61ull, 0},
    {Float32, periodic, 3, 0x67a12a835c9b1d74ull, 0},
    {Float32, periodic, 33, 0xb385e8aa685053a4ull, 0},
    {Float32, periodic, 64, 0xfcabc683db0be88dull, 0},
    {Float32, channel, 1, 0xea1e2d7effa12abcull, 0},
    {Float32, channel, 2, 0xe1f643f86935cc42ull, 0},
    {Float32, channel, 3, 0x16acf407060dc759ull, 0},
    {Float32, channel, 33, 0x72ee68438768f96eull, 0},
    {Float32, channel, 64, 0x15850a9800b7179eull, 0},
    {Float64_comp, periodic, 1, 0xb3c68f698ac5fc7dull, 0},
    {Float64_comp, periodic, 2, 0xa090884697dcf818ull, 0},
    {Float64_comp, periodic, 3, 0x1038fbe3d8475becull, 0},
    {Float64_comp, periodic, 33, 0x95e9ac5c250da9c9ull, 0},
    {Float64_comp, periodic, 64, 0xa72f93b0c9a132d9ull, 0},
    {Float64_comp, channel, 1, 0xac5ea5f1a2feba93ull, 0},
    {Float64_comp, channel, 2, 0x18828c84e0e91e5eull, 0},
    {Float64_comp, channel, 3, 0xd4080c43b6a6a5f7ull, 0},
    {Float64_comp, channel, 33, 0x7543e552353c800dull, 0},
    {Float64_comp, channel, 64, 0x682cfa75d635af45ull, 0},
    {Float32_64, periodic, 1, 0x4f62ebf2aa5c9742ull, 0},
    {Float32_64, periodic, 2, 0xbef1cf5a2f5bb803ull, 0},
    {Float32_64, periodic, 3, 0x6c8b1870da4ab281ull, 0},
    {Float32_64, periodic, 33, 0x6563fe399665767dull, 0},
    {Float32_64, periodic, 64, 0x57d680f1c7fd823ull, 0},
    {Float32_64, channel, 1, 0x9931438a8664cf99ull, 0},
    {Float32_64, channel, 2, 0x5d424335300bed21ull, 0},
    {Float32_64, channel, 3, 0x2fd388cbad10e885ull, 0},
    {Float32_64, channel, 33, 0x9d02c8e961393388ull, 0},
    {Float32_64, channel, 64, 0xdce170e3958c17e1ull, 0},
    {Float16_comp, periodic, 1, 0x726b440aa5f16f47ull, 0},
    {Float16_comp, periodic, 2, 0x2e40d4378427fc1bull, 0},
    {Float16_comp, periodic, 3, 0x99f8a6398891282aull, 0},
    {Float16_comp, periodic, 33, 0xb3cc378be031a019ull, 0},
    {Float16_comp, periodic, 64, 0x6c1521cb05337469ull, 0},
    {Float16_comp, channel, 1, 0xf07fbc439b13326aull, 0},
    {Float16_comp, channel, 2, 0xe2b36e3619f5d12eull, 0},
    {Float16_comp, channel, 3, 0x2a29cdcef49e4e89ull, 0},
    {Float16_comp, channel, 33, 0x5489c58fae6d49cdull, 0},
    {Float16_comp, channel, 64, 0xd012cf46acbbe110ull, 0},
    {Float16_32, periodic, 1, 0x52deb410d5b80094ull, 0},
    {Float16_32, periodic, 2, 0x82d11c349640a3a6ull, 0},
    {Float16_32, periodic, 3, 0x8f304e97b602b1c9ull, 0},
    {Float16_32, periodic, 33, 0x42e655a10405b37cull, 0},
    {Float16_32, periodic, 64, 0x6b8e511547dd2790ull, 0},
    {Float16_32, channel, 1, 0x62443d01324688e6ull, 0},
    {Float16_32, channel, 2, 0x23a93978469eb850ull, 0},
    {Float16_32, channel, 3, 0x44c9fb841d79eddeull, 0},
    {Float16_32, channel, 33, 0x975d67cd47925c25ull, 0},
    {Float16_32, channel, 64, 0x9b5e6e7daa64944full, 0},
    {Sherlog32, periodic, 1, 0xaf75cdf5352ae383ull, 0x76d080b04c27c130ull},
    {Sherlog32, periodic, 2, 0xb1a040f3407c5d61ull, 0x1ab0b66e16edc8f9ull},
    {Sherlog32, periodic, 3, 0x67a12a835c9b1d74ull, 0xe204e58fab54c67cull},
    {Sherlog32, periodic, 33, 0xb385e8aa685053a4ull, 0x3cf54f2fa7fbd444ull},
    {Sherlog32, periodic, 64, 0xfcabc683db0be88dull, 0x9c838173ecb40f2eull},
    {Sherlog32, channel, 1, 0xea1e2d7effa12abcull, 0x25d8548ae7a5d4afull},
    {Sherlog32, channel, 2, 0xe1f643f86935cc42ull, 0xba6b0ef4bcce4b3bull},
    {Sherlog32, channel, 3, 0x16acf407060dc759ull, 0xb49f64578407e59ull},
    {Sherlog32, channel, 33, 0x72ee68438768f96eull, 0xd41080346addf1a2ull},
    {Sherlog32, channel, 64, 0x15850a9800b7179eull, 0x984bac1c9409ce9eull},
};

}  // namespace

class SwmGolden : public ::testing::TestWithParam<golden_case> {};

// Each width runs its own copy of the RHS passes and sweeps: the
// baseline build's, and the AVX2 (256) and AVX-512F (512) copies on a
// host that has them (kernels/dispatch.hpp). All must give the bits
// recorded from the scalar loops.
TEST_P(SwmGolden, TrajectoryMatchesRecordedHash) {
  const golden_case& c = GetParam();
  for (const std::size_t width : {0, 128, 256, 512}) {
    ASSERT_TRUE(tfx::kernels::set_simd_width(width));
    for (const int threads : {1, 2}) {
      const golden_hashes got = run_case(c, threads);
      EXPECT_EQ(got.state, c.state_hash)
          << "width " << width << ", pool of " << threads << ": state 0x"
          << std::hex << got.state;
      EXPECT_EQ(got.sink, c.sink_hash)
          << "width " << width << ", pool of " << threads << ": sink 0x"
          << std::hex << got.sink;
    }
  }
  tfx::kernels::reset_simd_width();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SwmGolden, ::testing::ValuesIn(golden_cases),
    [](const ::testing::TestParamInfo<golden_case>& tp) {
      return case_name(tp.param);
    });

// ---------------------------------------------------------------------------
// Golden seeded states. SwmGolden seeds only ny = 8 grids; these hash
// the prognostic state seed_random_eddies leaves behind, before any
// step, at the grid sizes the benchmark and the ensemble members use:
// an odd 17x5 grid, the Float16 ensemble member (32x16, s = 2^8), and
// Float64 from 64x32 up to the 512x256 serial benchmark grid.
// ---------------------------------------------------------------------------

namespace {

struct seed_case {
  bool float16;  ///< model<float16> at log2_scale 8, else model<double>
  boundary bc;
  int nx;
  int ny;
  std::uint64_t hash;  ///< u, v, eta values after seeding
};

std::string seed_case_name(const seed_case& c) {
  return std::string(c.float16 ? "Float16" : "Float64") +
         (c.bc == boundary::channel ? "_channel_" : "_periodic_") +
         std::to_string(c.nx) + "x" + std::to_string(c.ny);
}

void PrintTo(const seed_case& c, std::ostream* os) {
  *os << seed_case_name(c);
}

template <typename T>
std::uint64_t seeded_hash(const swm_params& p) {
  model<T> m(p);
  m.seed_random_eddies(7, 0.5);
  tfx::test::fnv1a h;
  hash_fields(h, m.prognostic());
  return h.h;
}

// Recorded from the seeding loop that called sin() once per grid
// point and mode.
constexpr seed_case seed_cases[] = {
    {false, periodic, 17, 5, 0xe78749cc955c761full},
    {false, channel, 17, 5, 0x2c3f3928bb9d5bbdull},
    {true, periodic, 32, 16, 0x7c9ad2021e364f01ull},
    {true, channel, 32, 16, 0x658e590bb06f011dull},
    {false, periodic, 64, 32, 0xf0ad3200bc234667ull},
    {false, channel, 64, 32, 0x6c9564563e933ae6ull},
    {false, periodic, 128, 64, 0x21f9498b2104b292ull},
    {false, channel, 128, 64, 0x3ca92404a8dd4f1bull},
    {false, periodic, 512, 256, 0xbeacbfa2978c4c6aull},
    {false, channel, 512, 256, 0x751596d52c72d936ull},
};

}  // namespace

class SeedGolden : public ::testing::TestWithParam<seed_case> {};

TEST_P(SeedGolden, SeededStateMatchesRecordedHash) {
  const seed_case& c = GetParam();
  swm_params p;
  p.nx = c.nx;
  p.ny = c.ny;
  p.Lx = p.Ly * c.nx / c.ny;  // square cells (dx == dy)
  p.bc = c.bc;
  std::uint64_t got = 0;
  if (c.float16) {
    p.log2_scale = 8;
    got = seeded_hash<float16>(p);
  } else {
    got = seeded_hash<double>(p);
  }
  EXPECT_EQ(got, c.hash) << "seeded state 0x" << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SeedGolden, ::testing::ValuesIn(seed_cases),
    [](const ::testing::TestParamInfo<seed_case>& tp) {
      return seed_case_name(tp.param);
    });

TEST(Diagnostics, VorticityOfShearFlow) {
  // u = U0 sin(2 pi j / ny): zeta = -du/dy, checked against the
  // discrete derivative of the analytic profile.
  const swm_params p = small_params();
  state<double> s(p.nx, p.ny);
  s.fill(0.0);
  for (int j = 0; j < p.ny; ++j) {
    for (int i = 0; i < p.nx; ++i) {
      s.u(i, j) = std::sin(2.0 * M_PI * j / p.ny);
    }
  }
  const auto zeta = relative_vorticity(s, p);
  for (int j = 1; j < p.ny; ++j) {
    const double expected =
        -(s.u(0, j) - s.u(0, j - 1)) / p.dy();
    EXPECT_NEAR(zeta(5, j), expected, 1e-12);
  }
}

TEST(Diagnostics, CorrelationAndRmse) {
  field2d<double> a(8, 8), b(8, 8);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i) {
      a(i, j) = i + j;
      b(i, j) = 2.0 * (i + j) + 3.0;  // affine: perfect correlation
    }
  EXPECT_NEAR(correlation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(rmse(a, a), 0.0, 1e-15);
  EXPECT_GT(rmse(a, b), 0.0);
}

TEST(Output, PgmAndCsvFiles) {
  field2d<double> f(16, 8);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 16; ++i) f(i, j) = std::sin(0.3 * i) * j;
  EXPECT_TRUE(write_pgm(f, "/tmp/tfx_test_field.pgm"));
  EXPECT_TRUE(write_csv(f, "/tmp/tfx_test_field.csv"));
  // PGM header sanity.
  FILE* fp = std::fopen("/tmp/tfx_test_field.pgm", "rb");
  ASSERT_NE(fp, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fread(magic, 1, 2, fp), 2u);
  EXPECT_EQ(std::string(magic), "P5");
  std::fclose(fp);
}
