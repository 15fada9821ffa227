// The explicitly vectorized kernel layer (kernels/simd.hpp,
// kernels/batched.hpp, kernels/dispatch.hpp, kernels/sweeps.hpp):
// bit-identity of every fixed width against the scalar oracles, the
// pinned muladd contract, the documented dot reduction tree, the
// batched kernels against their generic oracles, and the runtime width
// policy the batched entry points follow.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "arch/features.hpp"
#include "core/rng.hpp"
#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "fp/traits.hpp"
#include "kernels/batched.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/generic.hpp"
#include "kernels/simd.hpp"
#include "kernels/sweeps.hpp"

using namespace tfx;
using tfx::fp::bfloat16;
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

/// Run `f` with the compile-time width for each runtime width value.
template <typename F>
void at_width(std::size_t bits, F&& f) {
  kernels::with_simd_width(bits, std::forward<F>(f));
}

}  // namespace

// ---- muladd contract ------------------------------------------------

TEST(MuladdContract, SeparatelyRoundedNotFused) {
  // a = 1 + 2^-27: a*a = 1 + 2^-26 + 2^-54. Separate rounding loses the
  // 2^-54 term before the add; a hardware fma would keep it. The pinned
  // library contract is the separately rounded value, on every target.
  const double a = 1.0 + std::ldexp(1.0, -27);
  const double pinned = kernels::muladd(a, a, -1.0);
  EXPECT_EQ(pinned, std::ldexp(1.0, -26));
  const double fused = std::fma(a, a, -1.0);
  EXPECT_NE(pinned, fused);  // the two semantics genuinely differ here

  const float af = 1.0f + std::ldexp(1.0f, -12);
  EXPECT_EQ(kernels::muladd(af, af, -1.0f), std::ldexp(1.0f, -11));
}

TEST(MuladdContract, VectorLanesMatchScalar) {
  // The per-lane vector muladd must round exactly like the scalar one,
  // including on the contract-distinguishing inputs.
  const double a = 1.0 + std::ldexp(1.0, -27);
  auto check = [&](auto bits) {
    constexpr std::size_t B = bits();
    using P = kernels::simd::pack<double, B>;
    const P va = P::broadcast(a);
    const P vc = P::broadcast(-1.0);
    const P r = kernels::simd::muladd(va, va, vc);
    for (std::size_t l = 0; l < P::lanes; ++l) {
      EXPECT_EQ(r[l], kernels::muladd(a, a, -1.0));
    }
  };
  for (const std::size_t bits : kernels::simd::width_list) at_width(bits, check);
}

// ---- fixed-width kernels: type x width x size ------------------------

class SimdWidthSize
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  [[nodiscard]] std::size_t width() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::size_t n() const { return std::get<1>(GetParam()); }
};

TEST_P(SimdWidthSize, AxpyNativeBitIdentical) {
  auto run = [&](auto tag) {
    using T = decltype(tag);
    const auto x = random_vec<T>(n(), n() + 1);
    auto y = random_vec<T>(n(), n() + 2);
    auto y_ref = y;
    at_width(width(), [&](auto bits) {
      kernels::simd::axpy_fixed<bits(), T>(T(0.75), x, y);
    });
    kernels::axpy<T>(T(0.75), x, y_ref);
    for (std::size_t i = 0; i < n(); ++i) {
      EXPECT_EQ(y[i], y_ref[i]) << "i=" << i << " width=" << width();
    }
  };
  run(double{});
  run(float{});
}

TEST_P(SimdWidthSize, AxpyWidenedBitIdentical) {
  auto run = [&](auto tag) {
    using T = decltype(tag);
    const auto x = random_vec<T>(n(), n() + 3);
    auto y = random_vec<T>(n(), n() + 4);
    auto y_ref = y;
    at_width(width(), [&](auto bits) {
      kernels::simd::axpy_widened<bits(), T>(T(0.5), x, y);
    });
    kernels::axpy<T>(T(0.5), x, y_ref);
    for (std::size_t i = 0; i < n(); ++i) {
      EXPECT_EQ(y[i].bits(), y_ref[i].bits())
          << "i=" << i << " width=" << width();
    }
  };
  run(float16{});
  run(bfloat16{});
}

TEST_P(SimdWidthSize, ScalBitIdentical) {
  auto x = random_vec<double>(n(), n() + 5);
  auto x_ref = x;
  at_width(width(), [&](auto bits) {
    kernels::simd::scal_fixed<bits(), double>(1.5, x);
  });
  kernels::scal(1.5, std::span<double>(x_ref));
  for (std::size_t i = 0; i < n(); ++i) EXPECT_EQ(x[i], x_ref[i]);
}

TEST_P(SimdWidthSize, DotMatchesDocumentedTreeExactly) {
  const auto x = random_vec<double>(n(), n() + 6);
  const auto y = random_vec<double>(n(), n() + 7);
  double got = 0, tree = 0;
  at_width(width(), [&](auto bits) {
    got = kernels::simd::dot_fixed<bits(), double>(x, y);
    tree = kernels::simd::dot_tree_reference<bits(), double>(x, y);
  });
  // The vector reduction is EXACTLY its documented scalar tree...
  EXPECT_EQ(got, tree);
  // ...and within the documented ULP policy of the sequential dot
  // (docs/KERNELS.md: |diff| <= n * eps * sum |x_i y_i|).
  const double seq = kernels::dot<double>(x, y);
  double mag = 0;
  for (std::size_t i = 0; i < n(); ++i) mag += std::abs(x[i] * y[i]);
  const double bound =
      static_cast<double>(n() + 1) * 2.3e-16 * (mag + 1.0);
  EXPECT_NEAR(got, seq, bound);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndSizes, SimdWidthSize,
    ::testing::Combine(::testing::Values(std::size_t{128}, std::size_t{256},
                                         std::size_t{512}),
                       // Sizes straddle every remainder regime: empty,
                       // sub-lane, exact lanes, 4x-unroll blocks ± 1.
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{3}, std::size_t{7},
                                         std::size_t{8}, std::size_t{15},
                                         std::size_t{16}, std::size_t{31},
                                         std::size_t{32}, std::size_t{33},
                                         std::size_t{257}, std::size_t{1000})));

// ---- batched kernels vs generic oracles ------------------------------

class BatchedWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchedWidth, AxpyBatchedBitIdentical) {
  auto run = [&](auto tag) {
    using T = decltype(tag);
    for (const std::size_t len : {std::size_t{1}, std::size_t{7},
                                  std::size_t{16}, std::size_t{31}}) {
      const std::size_t count = 9;
      const auto a = random_vec<T>(count, len + 1);
      const auto x = random_vec<T>(count * len, len + 2);
      auto y = random_vec<T>(count * len, len + 3);
      auto y_ref = y;
      at_width(GetParam(), [&](auto bits) {
        kernels::simd::axpy_batched_fixed<bits(), T>(a, x, y, len);
      });
      kernels::axpy_batched_generic<T>(a, x, y_ref, len);
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(y[i], y_ref[i]) << "len=" << len << " i=" << i;
      }
    }
  };
  run(double{});
  run(float{});
}

TEST_P(BatchedWidth, DotBatchedDeterministicPerWidth) {
  const std::size_t count = 6, len = 23;
  const auto x = random_vec<double>(count * len, 41);
  const auto y = random_vec<double>(count * len, 42);
  std::vector<double> out(count), again(count);
  at_width(GetParam(), [&](auto bits) {
    kernels::simd::dot_batched_fixed<bits(), double>(x, y, out, len);
    kernels::simd::dot_batched_fixed<bits(), double>(x, y, again, len);
  });
  std::vector<double> ref(count);
  kernels::dot_batched_generic<double>(x, y, ref, len);
  for (std::size_t b = 0; b < count; ++b) {
    EXPECT_EQ(out[b], again[b]);  // deterministic per width
    EXPECT_NEAR(out[b], ref[b], 1e-13 * (std::abs(ref[b]) + 1.0));
  }
}

TEST_P(BatchedWidth, GemmBatchedBitIdenticalToReorderedOracle) {
  auto run = [&](auto tag) {
    using T = decltype(tag);
    // Small shapes with n deliberately not a lane multiple.
    for (const kernels::gemm_batch_shape s :
         {kernels::gemm_batch_shape{5, 4, 5, 3},
          kernels::gemm_batch_shape{7, 8, 9, 8},
          kernels::gemm_batch_shape{3, 16, 17, 16},
          kernels::gemm_batch_shape{2, 32, 32, 32}}) {
      const auto a = random_vec<T>(s.count * s.a_elems(), s.n + 1);
      const auto b = random_vec<T>(s.count * s.b_elems(), s.n + 2);
      auto c = random_vec<T>(s.count * s.c_elems(), s.n + 3);
      auto c_ref = c;
      at_width(GetParam(), [&](auto bits) {
        kernels::simd::gemm_batched_fixed<bits(), T>(s, T(1.25), a, b, T(0.5),
                                                     c);
      });
      kernels::gemm_batched_generic<T>(s, T(1.25), a, b, T(0.5), c_ref);
      for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(c[i], c_ref[i]) << "n=" << s.n << " i=" << i;
      }
    }
  };
  run(double{});
  run(float{});
}

TEST_P(BatchedWidth, GemmBatchedRaggedFinalTileBitIdentical) {
  auto run = [&](auto tag) {
    using T = decltype(tag);
    // A count that does NOT divide into the tile: every explicit tile
    // here leaves a partial final tile (11 = 4+4+3, = 5+5+1, a
    // sub-tile count for 16) — the tile loop's ragged-tail regime,
    // which the default-tile shapes above never reach. Tiling only
    // reorders whole problems, so every split must reproduce the
    // generic oracle bit-for-bit.
    const kernels::gemm_batch_shape s{11, 5, 6, 4};
    const auto a = random_vec<T>(s.count * s.a_elems(), 71);
    const auto b = random_vec<T>(s.count * s.b_elems(), 72);
    const auto c0 = random_vec<T>(s.count * s.c_elems(), 73);
    auto c_ref = c0;
    kernels::gemm_batched_generic<T>(s, T(1.25), a, b, T(0.5), c_ref);
    for (const std::size_t tile :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{5},
          std::size_t{16}}) {
      auto c = c0;
      at_width(GetParam(), [&](auto bits) {
        kernels::simd::gemm_batched_fixed<bits(), T>(s, T(1.25), a, b, T(0.5),
                                                     c, tile);
      });
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(c[i], c_ref[i]) << "tile=" << tile << " i=" << i;
      }
    }
  };
  run(double{});
  run(float{});
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchedWidth,
                         ::testing::Values(std::size_t{128}, std::size_t{256},
                                           std::size_t{512}));

TEST(Batched, TileSizingRespectsCache) {
  // 32x32x32 double problems: 3 * 32*32 * 8 B = 24 KiB each; half of
  // the A64FX's 64 KiB L1 holds exactly one.
  const kernels::gemm_batch_shape s{100, 32, 32, 32};
  EXPECT_EQ(kernels::default_gemm_tile(s, sizeof(double)), 1u);
  // Tiny problems pack densely...
  const kernels::gemm_batch_shape tiny{100, 4, 4, 4};
  EXPECT_GE(kernels::default_gemm_tile(tiny, sizeof(double)), 10u);
  // ...and a problem larger than the cache still gets a tile of 1.
  EXPECT_EQ(kernels::problems_per_tile(1u << 30, 1u << 16), 1u);
}

TEST(Batched, DispatchRoutesSoftFloatTypes) {
  // float16 takes the widened vector path; results must match the
  // generic oracle bit-for-bit at every policy width.
  const std::size_t count = 5, len = 19;
  const auto a = random_vec<float16>(count, 51);
  const auto x = random_vec<float16>(count * len, 52);
  const auto y0 = random_vec<float16>(count * len, 53);
  std::vector<float16> ref = y0;
  kernels::axpy_batched_generic<float16>(a, x, ref, len);
  for (const std::size_t w : {std::size_t{0}, std::size_t{128},
                              std::size_t{256}, std::size_t{512}}) {
    ASSERT_TRUE(kernels::set_simd_width(w));
    std::vector<float16> y = y0;
    kernels::axpy_batched_dispatch<float16>(a, x, y, len);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_EQ(y[i].bits(), ref[i].bits()) << "w=" << w << " i=" << i;
    }
  }
  kernels::reset_simd_width();
}

// ---- SWM sweep kernels ----------------------------------------------

TEST(Sweeps, Rk4UpdateBitIdenticalAcrossWidths) {
  const std::size_t n = 301;
  const auto k1 = random_vec<double>(n, 61);
  const auto k2 = random_vec<double>(n, 62);
  const auto k3 = random_vec<double>(n, 63);
  const auto k4 = random_vec<double>(n, 64);
  const auto y0 = random_vec<double>(n, 65);

  std::vector<double> ref = y0;
  kernels::sweeps::rk4_update_scalar<double>(ref, k1, k2, k3, k4, 0, n);
  for (const std::size_t w : {std::size_t{0}, std::size_t{128},
                              std::size_t{256}, std::size_t{512}}) {
    ASSERT_TRUE(kernels::set_simd_width(w));
    std::vector<double> y = y0;
    kernels::sweeps::rk4_update<double>(y, k1, k2, k3, k4, 0, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y[i], ref[i]) << "w=" << w;
  }
  kernels::reset_simd_width();
}

TEST(Sweeps, KahanUpdatePreservesCompensationBits) {
  const std::size_t n = 173;
  const auto k1 = random_vec<float>(n, 71);
  const auto k2 = random_vec<float>(n, 72);
  const auto k3 = random_vec<float>(n, 73);
  const auto k4 = random_vec<float>(n, 74);
  const auto y0 = random_vec<float>(n, 75);
  const auto c0 = random_vec<float>(n, 76, -1e-6, 1e-6);

  std::vector<float> y_ref = y0, c_ref = c0;
  kernels::sweeps::rk4_update_kahan_scalar<float>(y_ref, c_ref, k1, k2, k3,
                                                  k4, 0, n);
  for (const std::size_t w :
       {std::size_t{128}, std::size_t{256}, std::size_t{512}}) {
    ASSERT_TRUE(kernels::set_simd_width(w));
    std::vector<float> y = y0, c = c0;
    kernels::sweeps::rk4_update_kahan<float>(y, c, k1, k2, k3, k4, 0, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y[i], y_ref[i]) << "w=" << w;
      EXPECT_EQ(c[i], c_ref[i]) << "w=" << w;  // the carried residual too
    }
  }
  kernels::reset_simd_width();
}

TEST(Sweeps, Rk4UpdateBatchedMatchesPerItemDispatchBitwise) {
  // The ensemble engine's one-dispatch-per-tile apply: a ragged item
  // list (mixed lengths, incl. sub-lane) must produce exactly the
  // bits of dispatching each item alone at the same width — batching
  // is a loop-ordering change only, at every width and for the Kahan
  // variant's carried residuals too.
  constexpr std::size_t lens[] = {1, 17, 33, 64, 301};
  constexpr std::size_t count = std::size(lens);
  std::vector<std::vector<double>> y(count), c(count), y1(count), c1(count);
  std::vector<std::vector<double>> k1(count), k2(count), k3(count), k4(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t n = lens[i];
    y[i] = random_vec<double>(n, 90 + i);
    c[i] = random_vec<double>(n, 95 + i, -1e-12, 1e-12);
    k1[i] = random_vec<double>(n, 100 + i);
    k2[i] = random_vec<double>(n, 105 + i);
    k3[i] = random_vec<double>(n, 110 + i);
    k4[i] = random_vec<double>(n, 115 + i);
  }

  for (const std::size_t w : {std::size_t{0}, std::size_t{128},
                              std::size_t{256}, std::size_t{512}}) {
    ASSERT_TRUE(kernels::set_simd_width(w));
    auto yb = y, cb = c;       // batched
    auto yr = y, cr = c;       // per-item reference
    std::vector<kernels::sweeps::rk4_batch_item<double>> items;
    for (std::size_t i = 0; i < count; ++i) {
      items.push_back({yb[i], cb[i], k1[i], k2[i], k3[i], k4[i]});
    }
    kernels::sweeps::rk4_update_batched<double>(items);
    for (std::size_t i = 0; i < count; ++i) {
      kernels::sweeps::rk4_update<double>(yr[i], k1[i], k2[i], k3[i], k4[i],
                                          0, lens[i]);
      for (std::size_t j = 0; j < lens[i]; ++j) {
        ASSERT_EQ(yb[i][j], yr[i][j]) << "w=" << w << " item=" << i;
      }
    }

    auto ykb = y, ckb = c, ykr = y, ckr = c;
    items.clear();
    for (std::size_t i = 0; i < count; ++i) {
      items.push_back({ykb[i], ckb[i], k1[i], k2[i], k3[i], k4[i]});
    }
    kernels::sweeps::rk4_update_kahan_batched<double>(items);
    for (std::size_t i = 0; i < count; ++i) {
      kernels::sweeps::rk4_update_kahan<double>(ykr[i], ckr[i], k1[i], k2[i],
                                                k3[i], k4[i], 0, lens[i]);
      for (std::size_t j = 0; j < lens[i]; ++j) {
        ASSERT_EQ(ykb[i][j], ykr[i][j]) << "w=" << w << " item=" << i;
        ASSERT_EQ(ckb[i][j], ckr[i][j]) << "w=" << w << " item=" << i;
      }
    }
  }
  kernels::reset_simd_width();
}

TEST(Sweeps, CombineAndConvertBitIdentical) {
  const std::size_t n = 97;
  const auto y = random_vec<double>(n, 81);
  const auto k = random_vec<double>(n, 82);
  std::vector<double> out_ref(n);
  kernels::sweeps::combine_scalar<double>(out_ref, y, k, 0.5, 0, n);

  const auto src = random_vec<double>(n, 83);
  std::vector<float> cast_ref(n);
  for (std::size_t i = 0; i < n; ++i) cast_ref[i] = float(src[i]);

  for (const std::size_t w :
       {std::size_t{128}, std::size_t{256}, std::size_t{512}}) {
    ASSERT_TRUE(kernels::set_simd_width(w));
    std::vector<double> out(n);
    kernels::sweeps::combine<double>(out, y, k, 0.5, 0, n);
    std::vector<float> cast(n);
    kernels::sweeps::convert<float, double>(cast, src, 0, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], out_ref[i]) << "w=" << w;
      EXPECT_EQ(cast[i], cast_ref[i]) << "w=" << w;
    }
  }
  kernels::reset_simd_width();
}

// ---- width policy ----------------------------------------------------

TEST(WidthPolicy, ValidatesAndResets) {
  EXPECT_FALSE(kernels::set_simd_width(64));
  EXPECT_FALSE(kernels::set_simd_width(1024));
  ASSERT_TRUE(kernels::set_simd_width(128));
  EXPECT_EQ(kernels::simd_width(), 128u);
  ASSERT_TRUE(kernels::set_simd_width(0));
  EXPECT_EQ(kernels::simd_width(), 0u);
  kernels::reset_simd_width();
  EXPECT_EQ(kernels::simd_width(), kernels::default_simd_width());
  EXPECT_EQ(kernels::default_simd_width(), arch::preferred_vector_bits());
}

TEST(WidthPolicy, HostFeatureDetectionIsConsistent) {
  const auto& f = arch::host_features();
  EXPECT_TRUE(f.max_vector_bits == 128 || f.max_vector_bits == 256 ||
              f.max_vector_bits == 512);
  const std::size_t pref = arch::preferred_vector_bits();
  EXPECT_LE(pref, f.max_vector_bits);
  EXPECT_TRUE(kernels::simd::valid_width(pref));
}

TEST(WidthPolicy, BatchedDispatchRunsAtThePolicyWidth) {
  // The batched entry points read the width policy and nothing else:
  // at every width, axpy reproduces the generic oracle bit-for-bit and
  // dot runs that width's documented reduction tree (the sequential
  // oracle at width 0).
  const std::size_t count = 4, len = 37;
  const auto a = random_vec<double>(count, 91);
  const auto x = random_vec<double>(count * len, 92);
  const auto y0 = random_vec<double>(count * len, 93);
  auto y_ref = y0;
  kernels::axpy_batched_generic<double>(a, x, y_ref, len);
  for (const std::size_t w : {std::size_t{0}, std::size_t{128},
                              std::size_t{256}, std::size_t{512}}) {
    ASSERT_TRUE(kernels::set_simd_width(w));
    auto y = y0;
    kernels::axpy_batched_dispatch<double>(a, x, y, len);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_EQ(y[i], y_ref[i]) << "w=" << w << " i=" << i;
    }

    std::vector<double> dots(count), want(count);
    kernels::dot_batched_dispatch<double>(x, y0, dots, len);
    if (w == 0) {
      kernels::dot_batched_generic<double>(x, y0, want, len);
    } else {
      at_width(w, [&](auto bits) {
        kernels::simd::dot_batched_fixed<bits(), double>(x, y0, want, len);
      });
    }
    for (std::size_t b = 0; b < count; ++b) {
      EXPECT_EQ(dots[b], want[b]) << "w=" << w << " b=" << b;
    }
  }
  kernels::reset_simd_width();
}
