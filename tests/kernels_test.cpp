// Type-generic kernels, the five BLAS backends, and the trampoline
// registry (§ III-A.1).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "fp/sherlog.hpp"
#include "kernels/backend.hpp"
#include "kernels/generic.hpp"
#include "kernels/registry.hpp"

using namespace tfx;
using tfx::fp::float16;

namespace {

template <typename T>
std::vector<T> random_vec(std::size_t n, std::uint64_t seed, double lo = -2.0,
                          double hi = 2.0) {
  xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = T(rng.uniform(lo, hi));
  return v;
}

}  // namespace

TEST(GenericKernels, AxpyMatchesDoubleReference) {
  const std::size_t n = 1000;
  const auto x = random_vec<double>(n, 1);
  auto y = random_vec<double>(n, 2);
  const auto y0 = y;
  kernels::axpy(0.75, std::span<const double>(x), std::span<double>(y));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(y[i], 0.75 * x[i] + y0[i]);
  }
}

TEST(GenericKernels, AxpyWorksAtEveryPrecision) {
  // One template, four number formats - the paper's productivity claim.
  const std::size_t n = 257;  // odd: exercises remainder paths elsewhere
  const auto xd = random_vec<double>(n, 3);
  const auto yd = random_vec<double>(n, 4);

  auto check = [&](auto tag, double tol) {
    using T = decltype(tag);
    std::vector<T> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = T(xd[i]);
      y[i] = T(yd[i]);
    }
    kernels::axpy(T(0.5), std::span<const T>(x), std::span<T>(y));
    for (std::size_t i = 0; i < n; ++i) {
      const double expect = 0.5 * static_cast<double>(T(xd[i])) +
                            static_cast<double>(T(yd[i]));
      EXPECT_NEAR(static_cast<double>(y[i]), expect,
                  tol * (std::abs(expect) + 1.0))
          << "i=" << i;
    }
  };
  check(double{}, 1e-15);
  check(float{}, 1e-6);
  check(float16{}, 1e-3);
  check(fp::bfloat16{}, 1e-2);
}

TEST(GenericKernels, DotScalCopyAsum) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> y{4, 5, 6};
  EXPECT_DOUBLE_EQ(kernels::dot<double>(x, y), 32.0);

  std::vector<double> z{1, -2, 3};
  kernels::scal(2.0, std::span<double>(z));
  EXPECT_EQ(z, (std::vector<double>{2, -4, 6}));
  EXPECT_DOUBLE_EQ(kernels::asum<double>(z), 12.0);

  std::vector<double> w(3);
  kernels::copy<double>(x, w);
  EXPECT_EQ(w, x);
}

TEST(GenericKernels, Nrm2AvoidsOverflow) {
  // Classic scaled-nrm2 property, critical at Float16 (§ III-B range
  // discussion): 30000^2 overflows Float16, so a naive sum of squares
  // returns infinity, but the scaled algorithm recovers the norm
  // (42426, comfortably finite).
  std::vector<float16> v{float16(30000.0), float16(30000.0)};
  const float16 sq = v[0] * v[0];
  EXPECT_TRUE(sq.isinf());  // the naive approach is doomed
  const float16 norm = kernels::nrm2<float16>(v);
  EXPECT_FALSE(norm.isinf());
  EXPECT_NEAR(static_cast<double>(norm), 30000.0 * std::sqrt(2.0), 100.0);
}

TEST(GenericKernels, Nrm2MatchesReference) {
  const auto x = random_vec<double>(500, 9);
  double ref = 0;
  for (double v : x) ref += v * v;
  EXPECT_NEAR(kernels::nrm2<double>(x), std::sqrt(ref), 1e-12);
  EXPECT_EQ(kernels::nrm2<double>(std::vector<double>{}), 0.0);
}

TEST(GenericKernels, Iamax) {
  const std::vector<double> x{1, -7, 3, 7};
  EXPECT_EQ(kernels::iamax<double>(x), 1u);  // first of equal magnitudes
  EXPECT_EQ(kernels::iamax<double>(std::vector<double>{}), 0u);
}

TEST(GenericKernels, SherlogInstantiation) {
  // The same kernel template runs with the analysis type - this is the
  // Sherlog development workflow from § III-B.
  fp::sherlog_sink().reset();
  const std::size_t n = 64;
  std::vector<fp::sherlog32> x(n, fp::sherlog32(0.5f));
  std::vector<fp::sherlog32> y(n, fp::sherlog32(1.0f));
  kernels::axpy(fp::sherlog32(2.0f), std::span<const fp::sherlog32>(x),
                std::span<fp::sherlog32>(y));
  EXPECT_EQ(y[0].value(), 2.0f);
  EXPECT_GE(fp::sherlog_sink().total(), n);  // ops were recorded
}

// ---- backends ------------------------------------------------------

class BackendCorrectness : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendCorrectness, Float64MatchesGeneric) {
  const auto backend = kernels::blas_registry::instance().find(GetParam());
  ASSERT_NE(backend, nullptr);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 64u, 1001u}) {
    const auto x = random_vec<double>(n, n + 10);
    auto y = random_vec<double>(n, n + 20);
    auto y_ref = y;
    backend->axpy(1.5, std::span<const double>(x), std::span<double>(y));
    kernels::axpy(1.5, std::span<const double>(x), std::span<double>(y_ref));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i], y_ref[i], 1e-15 * (std::abs(y_ref[i]) + 1.0));
    }
  }
}

TEST_P(BackendCorrectness, Float32MatchesGeneric) {
  const auto backend = kernels::blas_registry::instance().find(GetParam());
  ASSERT_NE(backend, nullptr);
  const std::size_t n = 777;
  const auto x = random_vec<float>(n, 31);
  auto y = random_vec<float>(n, 32);
  auto y_ref = y;
  backend->axpy(0.25f, std::span<const float>(x), std::span<float>(y));
  kernels::axpy(0.25f, std::span<const float>(x), std::span<float>(y_ref));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], y_ref[i], 1e-6f * (std::abs(y_ref[i]) + 1.0f));
  }
}

TEST_P(BackendCorrectness, ProfileIsSane) {
  const auto backend = kernels::blas_registry::instance().find(GetParam());
  ASSERT_NE(backend, nullptr);
  const auto p = backend->axpy_profile(8);
  EXPECT_EQ(p.flops_per_elem, 2.0);
  EXPECT_EQ(p.loads_per_elem, 2.0);
  EXPECT_EQ(p.stores_per_elem, 1.0);
  EXPECT_TRUE(p.vector_bits == 512 || p.vector_bits == 128);
  EXPECT_GT(p.simd_efficiency, 0.0);
  EXPECT_LE(p.simd_efficiency, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendCorrectness,
                         ::testing::Values("Julia", "FujitsuBLAS", "BLIS",
                                           "OpenBLAS", "ARMPL"));

TEST(Backends, OnlyGenericSupportsFloat16) {
  // "there are no implementations of axpy for half-precision
  // floating-point numbers in Fujitsu BLAS, BLIS, OpenBLAS, and ARMPL,
  // whereas Julia is able to generate code for the type-generic
  // function axpy! with half-precision Float16" (§ III-A.1).
  auto& reg = kernels::blas_registry::instance();
  std::vector<float16> x{float16(1.0)}, y{float16(1.0)};
  for (const char* name : {"FujitsuBLAS", "BLIS", "OpenBLAS", "ARMPL"}) {
    const auto backend = reg.find(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_FALSE(backend->supports_float16());
    EXPECT_THROW(backend->axpy(float16(2.0), std::span<const float16>(x),
                               std::span<float16>(y)),
                 kernels::unsupported_routine);
  }
  const auto julia = reg.find("Julia");
  EXPECT_TRUE(julia->supports_float16());
  julia->axpy(float16(2.0), std::span<const float16>(x),
              std::span<float16>(y));
  EXPECT_EQ(static_cast<double>(y[0]), 3.0);
}

TEST(Backends, Float16ProfilesOnlyMeaningfulForGeneric) {
  const auto julia = kernels::blas_registry::instance().find("Julia");
  EXPECT_EQ(julia->axpy_profile(2).vector_bits, 512u);
}

// ---- registry (libblastrampoline analogue) ---------------------------

TEST(Registry, DefaultsToGenericAndSwitches) {
  auto& reg = kernels::blas_registry::instance();
  ASSERT_TRUE(reg.set_current("Julia"));
  EXPECT_EQ(reg.current()->name(), "Julia");
  EXPECT_TRUE(reg.set_current("BLIS"));
  EXPECT_EQ(reg.current()->name(), "BLIS");
  EXPECT_FALSE(reg.set_current("cuBLAS"));   // unknown: unchanged
  EXPECT_EQ(reg.current()->name(), "BLIS");
  ASSERT_TRUE(reg.set_current("Julia"));
}

TEST(Registry, ListsAllPaperBackends) {
  const auto names = kernels::blas_registry::instance().names();
  const std::vector<std::string_view> legend{"Julia", "FujitsuBLAS", "BLIS",
                                             "OpenBLAS", "ARMPL"};
  EXPECT_EQ(names, legend);
}

TEST(Registry, DispatchFollowsSelection) {
  auto& reg = kernels::blas_registry::instance();
  ASSERT_TRUE(reg.set_current("OpenBLAS"));
  std::vector<double> x{1, 2}, y{10, 20};
  kernels::axpy_dispatch(2.0, std::span<const double>(x),
                         std::span<double>(y));
  EXPECT_EQ(y[0], 12.0);
  EXPECT_EQ(y[1], 24.0);
  ASSERT_TRUE(reg.set_current("Julia"));
}
