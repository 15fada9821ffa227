// Bit-exact conversion tests for the 16-bit formats (fp/rounding.hpp).
//
// The exhaustive suites walk all 65536 binary16 patterns; the rounding
// suites check round-to-nearest-even at every representable boundary
// via exactly-representable midpoints. The F16c suites hold the F16C
// instructions that float16 converts through on x86-64 to these
// routines, bit for bit, and skip where the host has no F16C.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "fp/float16.hpp"
#include "fp/rounding.hpp"

#if TFX_FP_F16C_ASM
#include <xmmintrin.h>
#endif

namespace fp = tfx::fp;

namespace {

float f16_to_f32(std::uint16_t h) {
  return std::bit_cast<float>(fp::f16_bits_to_f32_bits(h));
}

std::uint16_t f32_to_f16(float f) {
  return fp::f32_bits_to_f16_bits(std::bit_cast<std::uint32_t>(f));
}

bool is_f16_nan(std::uint16_t h) { return (h & 0x7fffu) > 0x7c00u; }

}  // namespace

TEST(Fp16Conversion, ExhaustiveRoundTrip) {
  // Every non-NaN binary16 value must survive the f16 -> f32 -> f16
  // round trip bit-exactly (the widening is exact, the narrowing of an
  // exactly-representable value must not move).
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    if (is_f16_nan(h)) continue;
    EXPECT_EQ(f32_to_f16(f16_to_f32(h)), h) << "pattern 0x" << std::hex << bits;
  }
}

TEST(Fp16Conversion, ExhaustiveWideningMatchesValue) {
  // Check the widening against an independent construction: sign *
  // mantissa * 2^exp assembled with std::ldexp.
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    if (is_f16_nan(h)) continue;
    const bool neg = (h & 0x8000u) != 0;
    const int exp = (h >> 10) & 0x1f;
    const int man = h & 0x3ff;
    double expected;
    if (exp == 0x1f) {
      expected = std::numeric_limits<double>::infinity();
    } else if (exp == 0) {
      expected = std::ldexp(man, -24);  // subnormal: man * 2^-24
    } else {
      expected = std::ldexp(1024 + man, exp - 15 - 10);
    }
    if (neg) expected = -expected;
    EXPECT_EQ(static_cast<double>(f16_to_f32(h)), expected)
        << "pattern 0x" << std::hex << bits;
  }
}

TEST(Fp16Conversion, ExhaustiveOrderingPreserved) {
  // Positive finite binary16 values are ordered like their bit
  // patterns; the widened floats must preserve that strict order.
  float prev = f16_to_f32(0);
  for (std::uint32_t bits = 1; bits <= 0x7c00u; ++bits) {
    const float cur = f16_to_f32(static_cast<std::uint16_t>(bits));
    EXPECT_LT(prev, cur) << "pattern 0x" << std::hex << bits;
    prev = cur;
  }
}

TEST(Fp16Rounding, TiesToEvenAtEveryBoundary) {
  // For every adjacent pair of positive finite binary16 values (a, b),
  // their midpoint is exactly representable in binary32 (12 significant
  // bits). RN-even must send the midpoint to whichever of a/b has an
  // even mantissa, and anything strictly beyond the midpoint to b.
  for (std::uint32_t bits = 0; bits < 0x7bffu; ++bits) {
    const auto a = static_cast<std::uint16_t>(bits);
    const auto b = static_cast<std::uint16_t>(bits + 1);
    const float fa = f16_to_f32(a);
    const float fb = f16_to_f32(b);
    const float mid = 0.5f * (fa + fb);  // exact: both are 11-bit values
    const std::uint16_t even = (a & 1u) == 0 ? a : b;
    EXPECT_EQ(f32_to_f16(mid), even) << "midpoint of 0x" << std::hex << bits;
    EXPECT_EQ(f32_to_f16(std::nextafterf(mid, 4.0f * fb + 1.0f)), b);
    if (fa > 0.0f) {
      EXPECT_EQ(f32_to_f16(std::nextafterf(mid, 0.0f)), a);
    }
  }
}

TEST(Fp16Rounding, OverflowThreshold) {
  // Largest finite binary16 is 65504; values >= 65520 (the midpoint to
  // the next would-be value 65536) round to infinity, RN-even sends
  // exactly 65520 to infinity too (65504 has odd mantissa... check:
  // 0x7bff mantissa 0x3ff odd, so the tie goes UP to infinity).
  EXPECT_EQ(f32_to_f16(65504.0f), 0x7bffu);
  EXPECT_EQ(f32_to_f16(65519.996f), 0x7bffu);
  EXPECT_EQ(f32_to_f16(65520.0f), 0x7c00u);
  EXPECT_EQ(f32_to_f16(65536.0f), 0x7c00u);
  EXPECT_EQ(f32_to_f16(1e30f), 0x7c00u);
  EXPECT_EQ(f32_to_f16(-65520.0f), 0xfc00u);
  EXPECT_EQ(f32_to_f16(std::numeric_limits<float>::infinity()), 0x7c00u);
}

TEST(Fp16Rounding, SubnormalBoundaries) {
  // Smallest subnormal is 2^-24. The tie between 0 and 2^-24 sits at
  // 2^-25: RN-even sends it to 0 (even).
  EXPECT_EQ(f32_to_f16(std::ldexp(1.0f, -24)), 0x0001u);
  EXPECT_EQ(f32_to_f16(std::ldexp(1.0f, -25)), 0x0000u);
  EXPECT_EQ(f32_to_f16(std::nextafterf(std::ldexp(1.0f, -25), 1.0f)), 0x0001u);
  // Largest subnormal 1023 * 2^-24; smallest normal 2^-14.
  EXPECT_EQ(f32_to_f16(1023.0f * std::ldexp(1.0f, -24)), 0x03ffu);
  EXPECT_EQ(f32_to_f16(std::ldexp(1.0f, -14)), 0x0400u);
  // binary32 subnormals are all far below 2^-25: signed zero.
  EXPECT_EQ(f32_to_f16(std::numeric_limits<float>::denorm_min()), 0x0000u);
  EXPECT_EQ(f32_to_f16(-std::numeric_limits<float>::denorm_min()), 0x8000u);
}

TEST(Fp16Rounding, NanAndSignHandling) {
  EXPECT_TRUE(is_f16_nan(f32_to_f16(std::nanf(""))));
  EXPECT_TRUE(is_f16_nan(f32_to_f16(-std::nanf(""))));
  EXPECT_EQ(f32_to_f16(0.0f), 0x0000u);
  EXPECT_EQ(f32_to_f16(-0.0f), 0x8000u);
  EXPECT_EQ(f32_to_f16(-1.0f), 0xbc00u);
}

TEST(Fp16FromDouble, AgreesWithFloatPathWhenExact) {
  // When the double is exactly a binary32 value, the round-to-odd inner
  // step is a no-op and both paths must agree.
  for (float f : {0.0f, 1.0f, -2.5f, 1024.0f, 65504.0f, 1e-7f, 3.14159f}) {
    EXPECT_EQ(fp::f64_to_f16_bits(static_cast<double>(f)), f32_to_f16(f));
  }
}

TEST(Fp16FromDouble, DoubleRoundingTrapAvoided) {
  // value = 1 + 2^-11 + 2^-30: exactly between binary16 neighbours
  // 1.0 and 1+2^-10, nudged up by 2^-30 (invisible at binary32
  // precision around 1+2^-11). Naive double->float->half would round
  // 1+2^-11+2^-30 -> 1+2^-11 (f32) -> tie-to-even -> 1.0: WRONG.
  // Correct single rounding gives 1+2^-10.
  const double trap = 1.0 + std::ldexp(1.0, -11) + std::ldexp(1.0, -30);
  EXPECT_EQ(fp::f64_to_f16_bits(trap), 0x3c01u);  // 1 + 2^-10

  // Mirror case below the midpoint: 1 + 2^-11 - 2^-30 must go DOWN.
  const double trap_down = 1.0 + std::ldexp(1.0, -11) - std::ldexp(1.0, -30);
  EXPECT_EQ(fp::f64_to_f16_bits(trap_down), 0x3c00u);  // 1.0

  // The exact tie stays a tie: to even (1.0).
  EXPECT_EQ(fp::f64_to_f16_bits(1.0 + std::ldexp(1.0, -11)), 0x3c00u);
}

TEST(Fp16FromDouble, RandomizedAgainstExactComparison) {
  // For random doubles, the correctly rounded binary16 is the candidate
  // (among the two bracketing halves) closer to the value, ties to
  // even - checked via exact double arithmetic.
  std::uint64_t state = 12345;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 200000; ++trial) {
    const double mag = std::ldexp(1.0, static_cast<int>(next() % 45) - 26);
    const double x =
        (static_cast<double>(next() % (1u << 24)) / (1u << 24) * 2.0 - 1.0) *
        mag;
    const std::uint16_t got = fp::f64_to_f16_bits(x);
    ASSERT_FALSE(is_f16_nan(got));
    if ((got & 0x7c00u) == 0x7c00u) {
      // Rounded to infinity: must be at/beyond the overflow threshold
      // 65520 (max + half ulp); closest-value logic does not apply.
      EXPECT_GE(std::abs(x), 65520.0);
      continue;
    }
    const double gv = static_cast<double>(f16_to_f32(got));
    // Neighbours of the result:
    const std::uint16_t lo = static_cast<std::uint16_t>(got - 1);
    const std::uint16_t hi = static_cast<std::uint16_t>(got + 1);
    if (!is_f16_nan(lo) && (got & 0x7fffu) != 0 && (lo & 0x7c00u) != 0x7c00u) {
      const double lv = static_cast<double>(f16_to_f32(lo));
      EXPECT_LE(std::abs(gv - x), std::abs(lv - x))
          << "x=" << x << " got=" << std::hex << got;
    }
    if ((hi & 0x7c00u) != 0x7c00u) {
      const double hv = static_cast<double>(f16_to_f32(hi));
      EXPECT_LE(std::abs(gv - x), std::abs(hv - x))
          << "x=" << x << " got=" << std::hex << got;
    }
  }
}

TEST(Bf16Conversion, RoundTripAndBasicValues) {
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto b = static_cast<std::uint16_t>(bits);
    const bool nan = ((b & 0x7f80u) == 0x7f80u) && (b & 0x7fu) != 0;
    if (nan) continue;
    const float f = std::bit_cast<float>(fp::bf16_bits_to_f32_bits(b));
    EXPECT_EQ(fp::f32_bits_to_bf16_bits(std::bit_cast<std::uint32_t>(f)), b);
  }
  EXPECT_EQ(fp::f32_bits_to_bf16_bits(std::bit_cast<std::uint32_t>(1.0f)),
            0x3f80u);
  EXPECT_EQ(fp::f32_bits_to_bf16_bits(std::bit_cast<std::uint32_t>(-2.0f)),
            0xc000u);
}

TEST(Bf16Conversion, RoundToNearestEven) {
  // 1 + 2^-8 is the midpoint between bf16 neighbours 1.0 (mantissa 0,
  // even) and 1 + 2^-7: the tie must go to 1.0.
  const float tie = 1.0f + std::ldexp(1.0f, -8);
  EXPECT_EQ(fp::f32_bits_to_bf16_bits(std::bit_cast<std::uint32_t>(tie)),
            0x3f80u);
  const float above = std::nextafterf(tie, 2.0f);
  EXPECT_EQ(fp::f32_bits_to_bf16_bits(std::bit_cast<std::uint32_t>(above)),
            0x3f81u);
  // Next midpoint (between 1+2^-7 and 1+2^-6) must go UP to even.
  const float tie2 = 1.0f + std::ldexp(3.0f, -8);
  EXPECT_EQ(fp::f32_bits_to_bf16_bits(std::bit_cast<std::uint32_t>(tie2)),
            0x3f82u);
}

TEST(Bf16Conversion, BigRangeNoOverflowWhereFloat16Overflows) {
  // The paper's motivation for comparing the formats: bfloat16 keeps
  // binary32's exponent range.
  EXPECT_EQ(fp::f64_to_bf16_bits(1e30),
            fp::f32_bits_to_bf16_bits(std::bit_cast<std::uint32_t>(1e30f)));
  const std::uint16_t b = fp::f64_to_bf16_bits(1e30);
  EXPECT_NE(b & 0x7f80u, 0x7f80u);  // finite
  EXPECT_EQ(fp::f64_to_f16_bits(1e30), 0x7c00u);  // f16: infinity
}

// ---- F16C against the software routines ------------------------------

namespace {

/// Counts disagreements between the F16C path and the software
/// routines, and keeps the first one for the failure message.
struct f16c_check {
  std::uint64_t mismatches = 0;
  std::uint32_t first = 0;

  void widen(std::uint16_t h) {
#if TFX_FP_F16C_ASM
    const auto hw = std::bit_cast<std::uint32_t>(fp::detail::vcvtph2ps(h));
    note(hw != fp::f16_bits_to_f32_bits(h), h);
#else
    (void)h;
#endif
  }
  void narrow(std::uint32_t x) {
#if TFX_FP_F16C_ASM
    const std::uint16_t hw = fp::detail::vcvtps2ph(std::bit_cast<float>(x));
    note(hw != fp::f32_bits_to_f16_bits(x), x);
#else
    (void)x;
#endif
  }
  void note(bool differs, std::uint32_t pattern) {
    if (differs && mismatches++ == 0) first = pattern;
  }
};

#define EXPECT_F16C_AGREES(check)                          \
  EXPECT_EQ((check).mismatches, 0u)                       \
      << "first mismatch at input pattern 0x" << std::hex \
      << (check).first

/// For every pair of adjacent positive binary16 values (lo, hi), the
/// 65504 -> 65536 step to infinity included: both endpoints, the
/// binary32 midpoint, the midpoint one binary32 ulp either side, and
/// one ulp inside each endpoint; then all of it with the sign set.
std::vector<std::uint32_t> boundary_patterns() {
  std::vector<std::uint32_t> out;
  for (std::uint32_t bits = 0; bits <= 0x7bffu; ++bits) {
    const std::uint32_t lo = fp::f16_bits_to_f32_bits(static_cast<std::uint16_t>(bits));
    const std::uint32_t hi =
        bits == 0x7bffu ? std::bit_cast<std::uint32_t>(65536.0f)
                        : fp::f16_bits_to_f32_bits(static_cast<std::uint16_t>(bits + 1));
    // Exact: both endpoints carry at most 11 significant bits.
    const auto mid = std::bit_cast<std::uint32_t>(
        0.5f * (std::bit_cast<float>(lo) + std::bit_cast<float>(hi)));
    for (const std::uint32_t x : {lo, hi, mid, mid - 1, mid + 1, lo + 1, hi - 1}) {
      out.push_back(x);
      out.push_back(x | 0x80000000u);
    }
  }
  return out;
}

bool has_f16c() { return fp::hardware_f16_conversion(); }

}  // namespace

TEST(F16cConversion, AllWideningsMatchSoftware) {
  if (!has_f16c()) GTEST_SKIP() << "no F16C on this host";
  f16c_check check;
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    check.widen(static_cast<std::uint16_t>(bits));
  }
  EXPECT_F16C_AGREES(check);
}

TEST(F16cConversion, NarrowingMatchesSoftwareAtEveryBoundary) {
  if (!has_f16c()) GTEST_SKIP() << "no F16C on this host";
  f16c_check check;
  for (const std::uint32_t x : boundary_patterns()) check.narrow(x);
  EXPECT_F16C_AGREES(check);
}

TEST(F16cConversion, NanPayloadsZerosAndInfinities) {
  if (!has_f16c()) GTEST_SKIP() << "no F16C on this host";
  f16c_check check;
  // Every combination of the ten mantissa bits binary16 keeps (the
  // quiet bit and nine payload bits), each with no, the lowest, the
  // highest or all of the thirteen bits it drops: signalling and quiet
  // NaNs, payloads that survive and payloads that vanish.
  for (std::uint32_t kept = 0; kept < 1024u; ++kept) {
    for (const std::uint32_t dropped : {0u, 1u, 0x1000u, 0x1fffu}) {
      const std::uint32_t mantissa = (kept << 13) | dropped;
      if (mantissa == 0) continue;  // infinity
      check.narrow(0x7f800000u | mantissa);
      check.narrow(0xff800000u | mantissa);
    }
  }
  for (const float f : {0.0f, std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::max(),
                        std::numeric_limits<float>::min(),
                        std::numeric_limits<float>::denorm_min()}) {
    check.narrow(std::bit_cast<std::uint32_t>(f));
    check.narrow(std::bit_cast<std::uint32_t>(-f));
  }
  EXPECT_F16C_AGREES(check);
}

TEST(F16cConversion, RandomPatternsMatchSoftware) {
  if (!has_f16c()) GTEST_SKIP() << "no F16C on this host";
  tfx::xoshiro256 rng(2024);
  f16c_check check;
  for (int i = 0; i < (1 << 20); ++i) {
    check.narrow(static_cast<std::uint32_t>(rng() >> 32));
  }
  EXPECT_F16C_AGREES(check);
}

#if TFX_FP_F16C_ASM
TEST(F16cConversion, MxcsrModesChangeNoBits) {
  // VCVTPS2PH's immediate rounding overrides MXCSR.RC, FTZ does not
  // apply to it, and DAZ only zeroes binary32 subnormal inputs, which
  // round to that zero anyway. Set each and rerun both sweeps.
  if (!has_f16c()) GTEST_SKIP() << "no F16C on this host";
  const auto patterns = boundary_patterns();
  const unsigned saved = _mm_getcsr();
  for (const unsigned mode :
       {_MM_FLUSH_ZERO_ON | 0x0040u /* DAZ */, unsigned{_MM_ROUND_TOWARD_ZERO},
        unsigned{_MM_ROUND_UP}, unsigned{_MM_ROUND_DOWN}}) {
    f16c_check check;
    _mm_setcsr((saved & ~(_MM_ROUND_MASK | _MM_FLUSH_ZERO_MASK | 0x0040u)) | mode);
    for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
      check.widen(static_cast<std::uint16_t>(bits));
    }
    for (const std::uint32_t x : patterns) check.narrow(x);
    _mm_setcsr(saved);
    EXPECT_F16C_AGREES(check) << " with MXCSR mode bits 0x" << mode;
  }
}
#endif
