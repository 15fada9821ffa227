// Semantics of the float16 type: Julia's extend-compute-truncate model,
// FTZ policy, counters, muladd-vs-fma, ordering, numeric_limits.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "arch/features.hpp"
#include "core/rng.hpp"
#include "fp/float16.hpp"
#include "fp/rounding.hpp"

using tfx::fp::float16;
namespace fp = tfx::fp;

namespace {

float16 h(double v) { return float16(v); }

bool bits_equal(float16 a, float16 b) { return a.bits() == b.bits(); }

}  // namespace

TEST(Float16, BasicValues) {
  EXPECT_EQ(h(0.0).bits(), 0x0000u);
  EXPECT_EQ(h(1.0).bits(), 0x3c00u);
  EXPECT_EQ(h(-1.0).bits(), 0xbc00u);
  EXPECT_EQ(h(0.5).bits(), 0x3800u);
  EXPECT_EQ(h(65504.0).bits(), 0x7bffu);
  EXPECT_EQ(float16(2048).bits(), h(2048.0).bits());
  EXPECT_EQ(static_cast<double>(h(2.0)), 2.0);
}

TEST(Float16, ArithmeticMatchesExactDoubleReference) {
  // The sum/difference/product of two binary16 values is exact in
  // double, so rounding that exact value once (via the round-to-odd
  // f64 path) is the true binary16 result; the operators use the
  // independent binary32 path. The two must agree everywhere (2p+2
  // double-rounding innocuity) - this is the property that makes the
  // software type bit-compatible with A64FX hardware.
  tfx::xoshiro256 rng(7);
  for (int trial = 0; trial < 100000; ++trial) {
    const auto a = float16::from_bits(
        static_cast<std::uint16_t>(rng.bounded(0x7c01)));  // finite, +
    auto b = float16::from_bits(
        static_cast<std::uint16_t>(rng.bounded(0x7c01)));
    if (rng.bounded(2)) b = -b;
    const double da = static_cast<double>(a);
    const double db = static_cast<double>(b);

    EXPECT_TRUE(bits_equal(a + b, float16(da + db)));
    EXPECT_TRUE(bits_equal(a - b, float16(da - db)));
    EXPECT_TRUE(bits_equal(a * b, float16(da * db)));
    if (db != 0.0) {
      // Quotients are not exact in double, but binary32 division is
      // correctly rounded and 2p+2 applies to the f32->f16 narrowing.
      // Cross-check against long-double-free reference: the f32 result.
      const float q = static_cast<float>(a) / static_cast<float>(b);
      EXPECT_TRUE(bits_equal(a / b, float16(q)));
    }
  }
}

TEST(Float16, AssociativityFailsAsExpected) {
  // Documented float behaviour the compensated sums exist for.
  const float16 big = h(2048);
  const float16 one = h(1);
  EXPECT_TRUE(bits_equal((big + one) + one, big));  // 1 below the ulp of 2048
  EXPECT_TRUE(bits_equal(big + (one + one), h(2050)));
}

TEST(Float16, MuladdRoundsTwiceFmaRoundsOnce) {
  // Construct a case where the intermediate rounding changes the
  // result: a*b hits a round-up whose error the addend then exposes.
  // a = 1+2^-10 (ulp above 1), b = 1+2^-10: a*b = 1 + 2^-9 + 2^-20.
  // Rounded to f16: 1 + 2^-9 + 2^-20 -> 1+2^-9 (2^-20 far below the
  // tie). With c = -(1+2^-9): muladd gives 0, fma gives 2^-20.
  const float16 a = float16::from_bits(0x3c01);
  const float16 b = float16::from_bits(0x3c01);
  const float16 c = -(h(1.0) + float16(std::ldexp(1.0, -9)));
  const float16 via_muladd = muladd(a, b, c);
  const float16 via_fma = fma(a, b, c);
  EXPECT_EQ(static_cast<double>(via_muladd), 0.0);
  EXPECT_EQ(static_cast<double>(via_fma), std::ldexp(1.0, -20));
}

TEST(Float16, MuladdEqualsSeparateOps) {
  // muladd must be exactly x*y then +z (the fpext/fptrunc IR of
  // § IV-C), never silently fused.
  tfx::xoshiro256 rng(11);
  for (int trial = 0; trial < 20000; ++trial) {
    const float16 x = float16(rng.uniform(-100.0, 100.0));
    const float16 y = float16(rng.uniform(-100.0, 100.0));
    const float16 z = float16(rng.uniform(-100.0, 100.0));
    EXPECT_TRUE(bits_equal(muladd(x, y, z), x * y + z));
  }
}

TEST(Float16, ComparisonsFollowIEEE) {
  const float16 nan = std::numeric_limits<float16>::quiet_NaN();
  const float16 inf = std::numeric_limits<float16>::infinity();
  EXPECT_FALSE(nan == nan);
  EXPECT_TRUE(nan != nan);
  EXPECT_FALSE(nan < nan);
  EXPECT_TRUE(h(0.0) == h(-0.0));  // signed zeros compare equal
  EXPECT_TRUE(h(1.0) < inf);
  EXPECT_TRUE(-inf < h(-65504.0));
  EXPECT_TRUE(h(1.0) <= h(1.0));
  EXPECT_TRUE(h(2.0) > h(1.0));
}

TEST(Float16, ExhaustiveUnaryClassification) {
  int subnormals = 0, nans = 0, infs = 0, zeros = 0;
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto x = float16::from_bits(static_cast<std::uint16_t>(bits));
    subnormals += x.is_subnormal();
    nans += x.isnan();
    infs += x.isinf();
    zeros += x.iszero();
    // Negation must flip only the sign bit; abs must clear it.
    EXPECT_EQ((-x).bits(), bits ^ 0x8000u);
    EXPECT_EQ(fp::abs(x).bits(), bits & 0x7fffu);
    EXPECT_EQ(x.isfinite(), !x.isnan() && !x.isinf());
  }
  EXPECT_EQ(subnormals, 2 * 1023);
  EXPECT_EQ(nans, 2 * 1023);
  EXPECT_EQ(infs, 2);
  EXPECT_EQ(zeros, 2);
}

TEST(Float16, NumericLimits) {
  using lim = std::numeric_limits<float16>;
  EXPECT_EQ(static_cast<double>(lim::min()), std::ldexp(1.0, -14));
  EXPECT_EQ(static_cast<double>(lim::max()), 65504.0);
  EXPECT_EQ(static_cast<double>(lim::lowest()), -65504.0);
  EXPECT_EQ(static_cast<double>(lim::epsilon()), std::ldexp(1.0, -10));
  EXPECT_EQ(static_cast<double>(lim::denorm_min()), std::ldexp(1.0, -24));
  EXPECT_TRUE(lim::infinity().isinf());
  EXPECT_TRUE(lim::quiet_NaN().isnan());
  EXPECT_EQ(lim::digits, 11);
}

TEST(Float16Ftz, FlushModeFlushesSubnormalResults) {
  fp::counters().reset();
  const float16 tiny = float16(std::ldexp(1.0, -15));  // subnormal-producing ops
  {
    fp::ftz_guard guard(fp::ftz_mode::flush);
    const float16 half_tiny = tiny * h(0.5);  // 2^-16: subnormal
    EXPECT_TRUE(half_tiny.iszero());
    const float16 neg = (-tiny) * h(0.5);
    EXPECT_TRUE(neg.iszero());
    EXPECT_TRUE(neg.signbit());  // flush preserves the sign
  }
  EXPECT_GE(fp::counters().f16_flushed_results, 2u);
}

TEST(Float16Ftz, PreserveModeKeepsGradualUnderflow) {
  fp::set_ftz_mode(fp::ftz_mode::preserve);
  fp::counters().reset();
  const float16 tiny = float16(std::ldexp(1.0, -15));
  const float16 half_tiny = tiny * h(0.5);
  EXPECT_TRUE(half_tiny.is_subnormal());
  EXPECT_EQ(static_cast<double>(half_tiny), std::ldexp(1.0, -16));
  EXPECT_GE(fp::counters().f16_subnormal_results, 1u);
  EXPECT_EQ(fp::counters().f16_flushed_results, 0u);
}

TEST(Float16Ftz, GuardRestoresPreviousMode) {
  fp::set_ftz_mode(fp::ftz_mode::preserve);
  {
    fp::ftz_guard guard(fp::ftz_mode::flush);
    EXPECT_EQ(fp::current_ftz_mode(), fp::ftz_mode::flush);
    {
      fp::ftz_guard inner(fp::ftz_mode::preserve);
      EXPECT_EQ(fp::current_ftz_mode(), fp::ftz_mode::preserve);
    }
    EXPECT_EQ(fp::current_ftz_mode(), fp::ftz_mode::flush);
  }
  EXPECT_EQ(fp::current_ftz_mode(), fp::ftz_mode::preserve);
}

TEST(Float16Counters, OverflowAndNanCounting) {
  fp::counters().reset();
  const float16 big = h(60000.0);
  const float16 inf = big + big;
  EXPECT_TRUE(inf.isinf());
  EXPECT_GE(fp::counters().f16_overflows, 1u);
  const float16 nan = inf - inf;
  EXPECT_TRUE(nan.isnan());
  EXPECT_GE(fp::counters().f16_nans, 1u);
}

TEST(Float16Math, SqrtExpLogRoundCorrectly) {
  EXPECT_EQ(static_cast<double>(fp::sqrt(h(4.0))), 2.0);
  EXPECT_EQ(static_cast<double>(fp::sqrt(h(2.0))),
            static_cast<double>(float16(std::sqrt(2.0))));
  EXPECT_EQ(static_cast<double>(fp::exp(h(0.0))), 1.0);
  EXPECT_EQ(static_cast<double>(fp::log(h(1.0))), 0.0);
  EXPECT_TRUE(fp::isnan(fp::sqrt(h(-1.0))));
  EXPECT_EQ(static_cast<double>(fp::min(h(1.0), h(2.0))), 1.0);
  EXPECT_EQ(static_cast<double>(fp::max(h(1.0), h(2.0))), 2.0);
}

// Parameterized sweep: x -> x * (1/x) stays within one ulp of 1 across
// the full normal range (exercises division+multiplication together).
class Float16ReciprocalSweep : public ::testing::TestWithParam<int> {};

TEST_P(Float16ReciprocalSweep, MulByReciprocalNearOne) {
  const int e = GetParam();
  const float16 x = float16(std::ldexp(1.5, e));
  const float16 r = h(1.0) / x;
  const float16 p = x * r;
  EXPECT_NEAR(static_cast<double>(p), 1.0, std::ldexp(1.0, -10));
}

INSTANTIATE_TEST_SUITE_P(NormalRange, Float16ReciprocalSweep,
                         ::testing::Range(-13, 15));

// ---- operators against a software reference ------------------------
// float16 converts through F16C where the host has it (float16.hpp).
// This reference builds every operation from the rounding.hpp routines
// and the FTZ/counter policy written out, and the operators must give
// its bits and its counters in both FTZ modes, on whichever path runs.

namespace {

struct software_reference {
  fp::ftz_mode mode;
  fp::fp_counters counts{};

  static float widen(float16 x) {
    return std::bit_cast<float>(fp::f16_bits_to_f32_bits(x.bits()));
  }
  std::uint16_t canonical(std::uint16_t bits) {
    const float16 x = float16::from_bits(bits);
    if (x.is_subnormal()) {
      ++counts.f16_subnormal_results;
      if (mode == fp::ftz_mode::flush) {
        ++counts.f16_flushed_results;
        return static_cast<std::uint16_t>(bits & 0x8000u);
      }
    } else if (x.isinf()) {
      ++counts.f16_overflows;
    } else if (x.isnan()) {
      ++counts.f16_nans;
    }
    return bits;
  }
  std::uint16_t round(float f) {
    return canonical(fp::f32_bits_to_f16_bits(std::bit_cast<std::uint32_t>(f)));
  }
  std::uint16_t round(double d) { return canonical(fp::f64_to_f16_bits(d)); }
};

void expect_same_counters(const fp::fp_counters& got,
                          const fp::fp_counters& want) {
  EXPECT_EQ(got.f16_subnormal_results, want.f16_subnormal_results);
  EXPECT_EQ(got.f16_flushed_results, want.f16_flushed_results);
  EXPECT_EQ(got.f16_overflows, want.f16_overflows);
  EXPECT_EQ(got.f16_nans, want.f16_nans);
}

/// A double near the binary16 grid: a binary16 value, or the midpoint
/// of two neighbours, nudged by a few binary64 ulps or by 2^-30 of its
/// size (the double-rounding trap of Fp16FromDouble), or a NaN.
double near_grid_double(tfx::xoshiro256& rng) {
  const auto bits = static_cast<std::uint16_t>(rng.bounded(0x10000));
  double x = static_cast<double>(float16::from_bits(bits));
  if (!std::isfinite(x)) return x;
  const double next = static_cast<double>(
      float16::from_bits(static_cast<std::uint16_t>(bits + 1)));
  switch (rng.bounded(4)) {
    case 0: return x;
    case 1: x = std::isfinite(next) ? 0.5 * (x + next) : 65520.0; break;
    case 2: return std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(x) + rng.bounded(9) - 4);
    default: x = std::isfinite(next) ? 0.5 * (x + next) : 65520.0;
      x += std::ldexp(x, -30) * (rng.bounded(2) ? 1.0 : -1.0);
      break;
  }
  return (bits & 0x8000u) ? -std::abs(x) : std::abs(x);
}

}  // namespace

TEST(Float16Hardware, ProbeAgreesWithTheCompilerAndArch) {
  // The CPUID/XCR0 probe against GCC's own detection, which also
  // requires the OS's AVX state; arch reports the probe's answer.
#if TFX_FP_F16C_ASM
  __builtin_cpu_init();
  EXPECT_EQ(fp::hardware_f16_conversion(),
            __builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx"));
#else
  EXPECT_FALSE(fp::hardware_f16_conversion());
#endif
  EXPECT_EQ(tfx::arch::host_features().f16c, fp::hardware_f16_conversion());
  EXPECT_EQ(fp::detail::f16c_enabled, fp::hardware_f16_conversion());
}

TEST(Float16Hardware, OperatorsMatchSoftwareReferenceInBothFtzModes) {
  for (const auto mode : {fp::ftz_mode::preserve, fp::ftz_mode::flush}) {
    SCOPED_TRACE(mode == fp::ftz_mode::flush ? "flush" : "preserve");
    fp::ftz_guard guard(mode);
    software_reference ref{mode};
    fp::counters().reset();
    tfx::xoshiro256 rng(mode == fp::ftz_mode::flush ? 31 : 37);
    std::uint64_t mismatches = 0;
    std::string first;
    for (int trial = 0; trial < 100000; ++trial) {
      // Every pattern class: zeros, subnormals, normals, inf and NaN.
      const auto a = float16::from_bits(static_cast<std::uint16_t>(rng.bounded(0x10000)));
      auto b = float16::from_bits(static_cast<std::uint16_t>(rng.bounded(0x10000)));
      // Given two NaNs, a binary32 op returns either (x86 keeps the first
      // source, and the compiler may commute + and *), whatever path
      // converts: keep the payload out of what is compared.
      if (a.isnan() && b.isnan()) b = a;
      const double d = near_grid_double(rng);
      const auto same = [&](const char* op, float16 got, std::uint16_t want) {
        if (got.bits() == want || mismatches++ > 0) return;
        char text[128];
        std::snprintf(text, sizeof text,
                      "%s on 0x%04x, 0x%04x (double %a): got 0x%04x, want 0x%04x",
                      op, a.bits(), b.bits(), d, got.bits(), want);
        first = text;
      };
      const float wa = software_reference::widen(a);
      const float wb = software_reference::widen(b);
      same("+", a + b, ref.round(wa + wb));
      same("-", a - b, ref.round(wa - wb));
      same("*", a * b, ref.round(wa * wb));
      same("/", a / b, ref.round(wa / wb));
      same("sqrt", fp::sqrt(a), ref.round(std::sqrt(wa)));
      same("float16(double)", float16(d), ref.round(d));
    }
    EXPECT_EQ(mismatches, 0u) << "first: " << first;
    expect_same_counters(fp::counters(), ref.counts);
    EXPECT_GT(ref.counts.f16_subnormal_results, 0u);
    EXPECT_GT(ref.counts.f16_overflows, 0u);
    EXPECT_GT(ref.counts.f16_nans, 0u);
  }
}
